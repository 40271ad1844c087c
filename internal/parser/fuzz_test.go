package parser_test

import (
	"math/rand"
	"strings"
	"testing"

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
	f.Fuzz(func(t *testing.T, src string) {
		_, err := parser.Parse(src)
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

// TestParseExprNeverPanics covers the expression entry point too.
func TestParseExprNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	pieces := []string{"x", "1", "(", ")", "[", "]", "+", "*", ":", "end", "'s'", "'", ",", "-"}
	for trial := 0; trial < 3000; trial++ {
		var b strings.Builder
		for i := 0; i < 1+r.Intn(12); i++ {
			b.WriteString(pieces[r.Intn(len(pieces))])
		}
		src := b.String()
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("ParseExpr panicked on %q: %v", src, rec)
				}
			}()
			_, _ = parser.ParseExpr(src)
		}()
	}
}
