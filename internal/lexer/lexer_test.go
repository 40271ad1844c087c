package lexer

import (
	"math"
	"strings"
	"testing"
	"unsafe"
)

func kinds(t *testing.T, src string) []Kind {
	t.Helper()
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatalf("Tokenize(%q): %v", src, err)
	}
	out := make([]Kind, 0, len(toks))
	for _, tok := range toks {
		out = append(out, tok.Kind)
	}
	return out
}

func wantKinds(t *testing.T, src string, want ...Kind) {
	t.Helper()
	got := kinds(t, src)
	if len(got) != len(want)+1 || got[len(got)-1] != EOF {
		t.Fatalf("%q: got %v, want %v + EOF", src, got, want)
	}
	for i, k := range want {
		if got[i] != k {
			t.Fatalf("%q: token %d is %v, want %v", src, i, got[i], k)
		}
	}
}

func TestBasicTokens(t *testing.T) {
	wantKinds(t, "x = 1 + 2;", Ident, Assign, Number, Plus, Number, Semicolon)
	wantKinds(t, "a(3, :)", Ident, LParen, Number, Comma, Colon, RParen)
	wantKinds(t, "A .* B ./ C .\\ D .^ E", Ident, DotStar, Ident, DotSlash, Ident, DotBSlash, Ident, DotCaret, Ident)
	wantKinds(t, "a == b ~= c <= d >= e < f > g", Ident, Eq, Ident, Ne, Ident, Le, Ident, Ge, Ident, Lt, Ident, Gt, Ident)
	wantKinds(t, "a && b || c & d | e ~f", Ident, AndAnd, Ident, OrOr, Ident, And, Ident, Or, Ident, Not, Ident)
}

func TestNumbers(t *testing.T) {
	cases := map[string]float64{
		"42":     42,
		"3.25":   3.25,
		".5":     0.5,
		"1e3":    1000,
		"1.5e-2": 0.015,
		"2E+2":   200,
	}
	for src, want := range cases {
		toks, err := Tokenize(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if toks[0].Kind != Number || toks[0].Num != want {
			t.Errorf("%q: got %v (%g), want %g", src, toks[0].Kind, toks[0].Num, want)
		}
	}
}

// TestNumberLiteral pins the value of the literal forms at the edges of
// strconv.ParseFloat: a trailing dot, a leading zero, an explicit
// exponent sign, underflow to zero and to the least subnormal, an
// imaginary suffix, and overflow, which is an error rather than Inf.
func TestNumberLiteral(t *testing.T) {
	cases := []struct {
		src, text string
		want      float64
	}{
		{"1.", "1.", 1},
		{"08", "08", 8},
		{"3.25e+2", "3.25e+2", 325},
		{"1e-400", "1e-400", 0},
		{"4e-324", "4e-324", math.SmallestNonzeroFloat64},
		{"2i", "2i", 2},
	}
	for _, c := range cases {
		toks, err := Tokenize(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		tok := toks[0]
		if tok.Kind != Number || tok.Text != c.text || math.Float64bits(tok.Num) != math.Float64bits(c.want) {
			t.Errorf("%q: got %v %q %g, want Number %q %g", c.src, tok.Kind, tok.Text, tok.Num, c.text, c.want)
		}
	}
	_, err := Tokenize("1e999")
	if err == nil || !strings.Contains(err.Error(), `malformed number "1e999"`) {
		t.Errorf("1e999: got error %v, want malformed number", err)
	}
}

func TestImaginaryLiteral(t *testing.T) {
	toks, err := Tokenize("3i + 2.5j")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != Number || !strings.HasSuffix(toks[0].Text, "i") {
		t.Fatalf("3i: %v %q", toks[0].Kind, toks[0].Text)
	}
	if toks[2].Kind != Number || !strings.HasSuffix(toks[2].Text, "i") {
		t.Fatalf("2.5j: %v %q", toks[2].Kind, toks[2].Text)
	}
	// but "2if" is number 2 followed by keyword if
	toks, _ = Tokenize("2if")
	if toks[0].Kind != Number || toks[0].Text != "2" || toks[1].Kind != Keyword {
		t.Fatalf("2if: %v", toks)
	}
}

// The quote is a transpose after values and a string opener elsewhere —
// the classic MATLAB lexing ambiguity.
func TestQuoteDisambiguation(t *testing.T) {
	wantKinds(t, "x = A';", Ident, Assign, Ident, Quote, Semicolon)
	wantKinds(t, "x = 'str';", Ident, Assign, Str, Semicolon)
	wantKinds(t, "y = A(1)';", Ident, Assign, Ident, LParen, Number, RParen, Quote, Semicolon)
	wantKinds(t, "y = [1 2]';", Ident, Assign, LBracket, Number, Number, RBracket, Quote, Semicolon)
	wantKinds(t, "f('a', 'b')", Ident, LParen, Str, Comma, Str, RParen)
	wantKinds(t, "x = 5';", Ident, Assign, Number, Quote, Semicolon)
	// transpose then string: A' 'still a string'? After a quote token,
	// another quote continues as transpose per MATLAB (A'' is (A')').
	wantKinds(t, "A''", Ident, Quote, Quote)
	// dot-quote is always a transpose
	wantKinds(t, "z.'", Ident, DotQuote)
}

func TestStringEscapes(t *testing.T) {
	toks, err := Tokenize("'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != Str || toks[0].Text != "it's" {
		t.Fatalf("got %q", toks[0].Text)
	}
	if _, err := Tokenize("'unterminated"); err == nil {
		t.Fatal("unterminated string must error")
	}
}

func TestCommentsAndContinuation(t *testing.T) {
	wantKinds(t, "x = 1; % comment with 'quotes' and stuff\ny = 2;",
		Ident, Assign, Number, Semicolon, Newline, Ident, Assign, Number, Semicolon)
	wantKinds(t, "x = 1 + ...\n    2;", Ident, Assign, Number, Plus, Number, Semicolon)
}

func TestKeywords(t *testing.T) {
	wantKinds(t, "if x, end", Keyword, Ident, Comma, Keyword)
	toks, _ := Tokenize("for while break continue return function end")
	for i := 0; i < 7; i++ {
		if toks[i].Kind != Keyword {
			t.Fatalf("token %d not a keyword: %v", i, toks[i])
		}
	}
	// keywords are not identifiers: "iff" is an identifier
	wantKinds(t, "iff = 1", Ident, Assign, Number)
}

func TestSpaceBefore(t *testing.T) {
	toks, err := Tokenize("[1 -2]")
	if err != nil {
		t.Fatal(err)
	}
	// tokens: [ 1 - 2 ]
	if !toks[2].SpaceBefore {
		t.Fatal("minus must record preceding space")
	}
	if toks[3].SpaceBefore {
		t.Fatal("2 must not record preceding space")
	}
	toks, _ = Tokenize("[1 - 2]")
	if !toks[3].SpaceBefore {
		t.Fatal("2 must record preceding space in [1 - 2]")
	}
}

func TestPositions(t *testing.T) {
	toks, err := Tokenize("a = 1;\nbb = 22;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Fatalf("a at %d:%d", toks[0].Line, toks[0].Col)
	}
	var bb Token
	for _, tok := range toks {
		if tok.Text == "bb" {
			bb = tok
		}
	}
	if bb.Line != 2 || bb.Col != 1 {
		t.Fatalf("bb at %d:%d", bb.Line, bb.Col)
	}
}

func TestErrorPosition(t *testing.T) {
	_, err := Tokenize("x = $")
	if err == nil {
		t.Fatal("expected error")
	}
	le, ok := err.(*Error)
	if !ok || le.Line != 1 {
		t.Fatalf("error %v", err)
	}
}

// TestLexerReadsInPlace: identifier, keyword, number and string texts are
// substrings of the source, so lexing into a slice that has room
// allocates nothing, and Tokenize allocates only its token slice. Only a
// doubled quote and a j suffix copy their text; every text is what it was.
func TestLexerReadsInPlace(t *testing.T) {
	const src = "if x1 >= 2.5e3, y = A(end, :)' + 'it''s' .* 3i - 4j; else z = [1 -2]; end % done\n"
	want := []string{"if", "x1", ">=", "2.5e3", ",", "y", "=", "A", "(", "end", ",", ":", ")", "'", "+", "it's",
		".*", "3i", "-", "4i", ";", "else", "z", "=", "[", "1", "-", "2", "]", ";", "end", "\n", ""}
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != len(want) {
		t.Fatalf("%d tokens, want %d: %v", len(toks), len(want), toks)
	}
	inSource := func(s string) bool {
		lo, hi := uintptr(unsafe.Pointer(unsafe.StringData(src))), uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return hi >= lo && hi < lo+uintptr(len(src))
	}
	for i, tok := range toks {
		if tok.Text != want[i] {
			t.Errorf("token %d: text %q, want %q", i, tok.Text, want[i])
		}
		copied := tok.Text == "it's" || tok.Text == "4i"
		if k := tok.Kind; (k == Ident || k == Keyword || k == Number || k == Str) && !copied && !inSource(tok.Text) {
			t.Errorf("token %d (%s) copied its text out of the source", i, tok)
		}
	}

	buf := make([]Token, 0, len(toks))
	if n := testing.AllocsPerRun(100, func() { buf, _ = AppendTokens(buf[:0], src) }); n != 2 {
		t.Errorf("AppendTokens into a slice with room: %v allocations, want 2 (the doubled quote and the j suffix)", n)
	}
	const plain = "for k = 1:n, s = s + A(k, end) * 2.5; t = 'ok'; end\n"
	if n := testing.AllocsPerRun(100, func() { buf, _ = AppendTokens(buf[:0], plain) }); n != 0 {
		t.Errorf("AppendTokens of %q into a slice with room: %v allocations, want 0", plain, n)
	}
	// Tokenize allocates what growing its token slice takes, and no more.
	ntoks := len(kinds(t, plain))
	grow := testing.AllocsPerRun(100, func() {
		var s []Token
		for range ntoks {
			s = append(s, Token{})
		}
	})
	if n := testing.AllocsPerRun(100, func() { Tokenize(plain) }); n != grow {
		t.Errorf("Tokenize of %q: %v allocations, want %v (its token slice's growth)", plain, n, grow)
	}
}
