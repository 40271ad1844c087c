package parser_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/bench"
	"repro/internal/lexer"
	"repro/internal/parser"
)

// tokenPieces are the lexical atoms the random-soup test strings
// together and FuzzParse starts from.
var tokenPieces = []string{
	"x", "y", "foo", "if", "else", "elseif", "end", "for", "while",
	"function", "return", "break", "continue", "switch", "case",
	"otherwise", "global", "clear",
	"1", "2.5", "1e3", "3i", "'str'", "'it''s'",
	"+", "-", "*", "/", "\\", "^", ".*", "./", ".^", "'", ".'",
	"==", "~=", "<", "<=", ">", ">=", "&", "|", "&&", "||", "~",
	"(", ")", "[", "]", ",", ";", ":", "=", "\n", " ", "...",
	"%comment", "@",
}

// TestParserNeverPanics feeds the parser random token soup: it must
// return an error or an AST, never crash.
func TestParserNeverPanics(t *testing.T) {
	pieces := tokenPieces
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 3000; trial++ {
		var b strings.Builder
		n := 1 + r.Intn(30)
		for i := 0; i < n; i++ {
			b.WriteString(pieces[r.Intn(len(pieces))])
			if r.Intn(3) == 0 {
				b.WriteByte(' ')
			}
		}
		src := b.String()
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("parser panicked on %q: %v", src, rec)
				}
			}()
			_, _ = parser.Parse(src) // error or AST; both fine
		}()
	}
}

// FuzzParse: on any input the parser returns an AST or a positioned
// error — a *parser.Error or *lexer.Error on a line ≥ 1 — and never panics.
// A tree it returns is the input's alone: parsing the input again gives
// an equal tree, and a tree parsed before it is unchanged after it, so
// nothing of the parser's scratch leaks into a result.
// Seeded with every Table 1 program and the token pieces above; random
// bytes are the fuzzer's own mutations. Run it with
// go test -run='^$' -fuzz=FuzzParse ./internal/parser.
func FuzzParse(f *testing.F) {
	for _, b := range bench.All() {
		f.Add(b.Source(bench.Small))
	}
	for _, p := range tokenPieces {
		f.Add(p)
	}
	// earlier, parsed before the input, must still equal seed after it;
	// the input's tree must equal kept, a copy taken when it was returned
	// that shares no memory with anything a later parse writes.
	seed, err := parser.Parse(everyKind)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		earlier, _ := parser.Parse(everyKind)
		file, err := parser.Parse(src)
		if err == nil {
			kept := ast.CloneFile(file)
			again, _ := parser.Parse(src)
			if !reflect.DeepEqual(file, kept) || !reflect.DeepEqual(again, kept) {
				t.Fatalf("parser.Parse(%q) twice: the trees differ:\n%s\nthen\n%s", src, ast.Print(file), ast.Print(again))
			}
		}
		if !reflect.DeepEqual(earlier, seed) {
			t.Fatalf("parsing %q changed a tree parsed before it:\n%s", src, ast.Print(earlier))
		}
		line := 1
		switch e := err.(type) {
		case nil:
		case *parser.Error:
			line = e.Line
		case *lexer.Error:
			line = e.Line
		default:
			t.Fatalf("parser.Parse(%q): unpositioned error %T: %v", src, err, err)
		}
		if line < 1 {
			t.Fatalf("parser.Parse(%q): error on line %d: %v", src, line, err)
		}
	})
}
