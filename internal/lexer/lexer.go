// Package lexer tokenizes MATLAB source text. The scanner handles the
// MATLAB-specific context sensitivities: the single quote is either the
// transpose operator (after an identifier, number, closing bracket, or
// another transpose) or a string delimiter; newlines are statement
// terminators except after a "..." continuation; and '%' starts a
// comment to end of line.
package lexer

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind identifies a token class.
type Kind uint8

const (
	EOF Kind = iota
	Newline
	Ident
	Number
	Str
	Keyword

	// punctuation / operators
	LParen
	RParen
	LBracket
	RBracket
	Comma
	Semicolon
	Colon
	Assign // =
	Plus
	Minus
	Star   // *
	Slash  // /
	BSlash // \
	Caret  // ^
	DotStar
	DotSlash
	DotBSlash
	DotCaret
	Quote    // ' transpose
	DotQuote // .'
	Eq       // ==
	Ne       // ~=
	Lt
	Le
	Gt
	Ge
	And    // &
	Or     // |
	AndAnd // &&
	OrOr   // ||
	Not    // ~
	At     // @
	Dot    // .
)

var kindNames = map[Kind]string{
	EOF: "end of input", Newline: "newline", Ident: "identifier",
	Number: "number", Str: "string", Keyword: "keyword",
	LParen: "(", RParen: ")", LBracket: "[", RBracket: "]",
	Comma: ",", Semicolon: ";", Colon: ":", Assign: "=",
	Plus: "+", Minus: "-", Star: "*", Slash: "/", BSlash: "\\",
	Caret: "^", DotStar: ".*", DotSlash: "./", DotBSlash: ".\\",
	DotCaret: ".^", Quote: "'", DotQuote: ".'", Eq: "==", Ne: "~=",
	Lt: "<", Le: "<=", Gt: ">", Ge: ">=", And: "&", Or: "|",
	AndAnd: "&&", OrOr: "||", Not: "~", At: "@", Dot: ".",
}

// String returns the display name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Keywords of the supported subset.
var keywords = map[string]bool{
	"if": true, "elseif": true, "else": true, "end": true,
	"for": true, "while": true, "break": true, "continue": true,
	"return": true, "function": true, "global": true, "clear": true,
	"switch": true, "case": true, "otherwise": true,
}

// Token is one lexical token with its source position. SpaceBefore
// records whether whitespace (or a comment) preceded the token; the
// parser needs it to disambiguate binary from unary +/- inside matrix
// literals ([1 -2] is two elements, [1 - 2] is one).
type Token struct {
	Kind        Kind
	Text        string
	Num         float64 // valid when Kind == Number
	Line        int
	Col         int
	SpaceBefore bool
}

func (t Token) String() string {
	switch t.Kind {
	case Ident, Keyword, Number, Str:
		return fmt.Sprintf("%s(%q)", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}

// Error is a lexical error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("lex error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Lexer scans MATLAB source.
type Lexer struct {
	src       []byte
	pos       int
	line, col int
	// prevValueEnd tracks whether the previous token can end a value
	// expression, which makes a following quote a transpose rather than a
	// string opener.
	prevValueEnd bool
}

// New returns a Lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: []byte(src), line: 1, col: 1}
}

// Tokenize scans all of src and returns the token stream (terminated by
// an EOF token).
func Tokenize(src string) ([]Token, error) {
	lx := New(src)
	var toks []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

func (lx *Lexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peek2() byte {
	if lx.pos+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+1]
}

func (lx *Lexer) advance() byte {
	ch := lx.src[lx.pos]
	lx.pos++
	if ch == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return ch
}

func (lx *Lexer) errf(format string, args ...any) error {
	return &Error{Line: lx.line, Col: lx.col, Msg: fmt.Sprintf(format, args...)}
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	space := false
	for {
		// skip horizontal whitespace
		for lx.pos < len(lx.src) && (lx.peek() == ' ' || lx.peek() == '\t' || lx.peek() == '\r') {
			lx.advance()
			space = true
		}
		// comments
		if lx.peek() == '%' {
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
			space = true
			continue
		}
		// line continuation
		if lx.peek() == '.' && lx.pos+2 < len(lx.src) && lx.src[lx.pos+1] == '.' && lx.src[lx.pos+2] == '.' {
			// consume to end of line including the newline
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
			if lx.pos < len(lx.src) {
				lx.advance()
			}
			continue
		}
		break
	}
	line, col := lx.line, lx.col
	if lx.pos >= len(lx.src) {
		return Token{Kind: EOF, Line: line, Col: col, SpaceBefore: space}, nil
	}
	ch := lx.peek()

	mk := func(k Kind, text string, valueEnd bool) Token {
		lx.prevValueEnd = valueEnd
		return Token{Kind: k, Text: text, Line: line, Col: col, SpaceBefore: space}
	}

	switch {
	case ch == '\n':
		lx.advance()
		return mk(Newline, "\n", false), nil
	case isAlpha(ch):
		start := lx.pos
		for lx.pos < len(lx.src) && isAlnum(lx.peek()) {
			lx.advance()
		}
		word := string(lx.src[start:lx.pos])
		if keywords[word] {
			// the keyword "end" acts as a value inside subscripts; the
			// parser decides, but for quote disambiguation it ends a value.
			return mk(Keyword, word, word == "end"), nil
		}
		return mk(Ident, word, true), nil
	case isDigit(ch) || (ch == '.' && isDigit(lx.peek2())):
		return lx.number(line, col, space)
	case ch == '\'':
		if lx.prevValueEnd {
			lx.advance()
			return mk(Quote, "'", true), nil
		}
		return lx.str(line, col, space)
	}

	lx.advance()
	two := func(next byte, k2 Kind, k1 Kind) (Token, error) {
		if lx.peek() == next {
			lx.advance()
			return mk(k2, kindNames[k2], false), nil
		}
		return mk(k1, kindNames[k1], false), nil
	}

	switch ch {
	case '(':
		return mk(LParen, "(", false), nil
	case ')':
		return mk(RParen, ")", true), nil
	case '[':
		return mk(LBracket, "[", false), nil
	case ']':
		return mk(RBracket, "]", true), nil
	case ',':
		return mk(Comma, ",", false), nil
	case ';':
		return mk(Semicolon, ";", false), nil
	case ':':
		return mk(Colon, ":", false), nil
	case '+':
		return mk(Plus, "+", false), nil
	case '-':
		return mk(Minus, "-", false), nil
	case '*':
		return mk(Star, "*", false), nil
	case '/':
		return mk(Slash, "/", false), nil
	case '\\':
		return mk(BSlash, "\\", false), nil
	case '^':
		return mk(Caret, "^", false), nil
	case '@':
		return mk(At, "@", false), nil
	case '=':
		return two('=', Eq, Assign)
	case '~':
		return two('=', Ne, Not)
	case '<':
		return two('=', Le, Lt)
	case '>':
		return two('=', Ge, Gt)
	case '&':
		return two('&', AndAnd, And)
	case '|':
		return two('|', OrOr, Or)
	case '.':
		switch lx.peek() {
		case '*':
			lx.advance()
			return mk(DotStar, ".*", false), nil
		case '/':
			lx.advance()
			return mk(DotSlash, "./", false), nil
		case '\\':
			lx.advance()
			return mk(DotBSlash, ".\\", false), nil
		case '^':
			lx.advance()
			return mk(DotCaret, ".^", false), nil
		case '\'':
			lx.advance()
			return mk(DotQuote, ".'", true), nil
		}
		return mk(Dot, ".", false), nil
	}
	return Token{}, lx.errf("unexpected character %q", ch)
}

func (lx *Lexer) number(line, col int, space bool) (Token, error) {
	start := lx.pos
	for lx.pos < len(lx.src) && isDigit(lx.peek()) {
		lx.advance()
	}
	if lx.peek() == '.' && lx.peek2() != '*' && lx.peek2() != '/' && lx.peek2() != '\\' && lx.peek2() != '^' && lx.peek2() != '\'' {
		lx.advance()
		for lx.pos < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
	}
	if c := lx.peek(); c == 'e' || c == 'E' {
		save := lx.pos
		lx.advance()
		if c := lx.peek(); c == '+' || c == '-' {
			lx.advance()
		}
		if !isDigit(lx.peek()) {
			lx.pos = save // 'e' belongs to a following identifier
		} else {
			for lx.pos < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		}
	}
	text := string(lx.src[start:lx.pos])
	num, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return Token{}, lx.errf("malformed number %q", text)
	}
	// Trailing i/j makes an imaginary literal; the parser handles it by
	// seeing the suffix in the text.
	if c := lx.peek(); c == 'i' || c == 'j' {
		// Only when not followed by more identifier chars (2i but not 2if).
		if lx.pos+1 >= len(lx.src) || !isAlnum(lx.src[lx.pos+1]) {
			lx.advance()
			text += "i"
		}
	}
	lx.prevValueEnd = true
	return Token{Kind: Number, Text: text, Num: num, Line: line, Col: col, SpaceBefore: space}, nil
}

func (lx *Lexer) str(line, col int, space bool) (Token, error) {
	lx.advance() // opening quote
	var b strings.Builder
	for {
		if lx.pos >= len(lx.src) || lx.peek() == '\n' {
			return Token{}, lx.errf("unterminated string literal")
		}
		ch := lx.advance()
		if ch == '\'' {
			if lx.peek() == '\'' { // escaped quote
				lx.advance()
				b.WriteByte('\'')
				continue
			}
			lx.prevValueEnd = true
			return Token{Kind: Str, Text: b.String(), Line: line, Col: col, SpaceBefore: space}, nil
		}
		b.WriteByte(ch)
	}
}

func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isAlnum(c byte) bool { return isAlpha(c) || isDigit(c) }
