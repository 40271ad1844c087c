// Package parser implements a recursive-descent parser for the MATLAB
// subset MaJIC supports. It produces the AST of package ast and follows
// MATLAB's operator precedence, the space-sensitivity rules inside
// matrix literals, and the 'end' subscript magic.
package parser

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/lexer"
	"repro/internal/reuse"
)

// Error is a parse error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

type parser struct {
	toks []lexer.Token
	pos  int
	// matrixDepth > 0 while parsing a [...] literal (space separates
	// elements); parenDepth tracks nesting of () inside the literal,
	// where space is insignificant again.
	matrixDepth int
	parenDepth  []int
	// endDims carries the subscript context for the 'end' keyword.
	endDims []endCtx
}

type endCtx struct {
	dim     int
	numDims int // filled when the subscript list is complete; -1 = unknown yet
}

// tokenPool holds the token slices Parse lexes into: a token stream is
// dead once its parse returns, since the AST keeps texts, not tokens.
// A slice goes back cleared, so a pooled one pins no source text.
var tokenPool reuse.Pool[[]lexer.Token]

// Parse parses a full source file (script statements and/or functions).
func Parse(src string) (*ast.File, error) {
	buf := tokenPool.Get()
	toks, err := lexer.AppendTokens((*buf)[:0], src)
	defer func() {
		clear(toks)
		*buf = toks[:0]
		tokenPool.Put(buf)
	}()
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	file := &ast.File{P: ast.Pos{Line: 1, Col: 1}}
	p.skipTerms()
	for !p.at(lexer.EOF) {
		if p.atKeyword("function") {
			fn, err := p.function(src)
			if err != nil {
				return nil, err
			}
			file.Funcs = append(file.Funcs, fn)
		} else {
			s, err := p.statement()
			if err != nil {
				return nil, err
			}
			if s != nil {
				file.Stmts = append(file.Stmts, s)
			}
		}
		p.skipTerms()
	}
	return file, nil
}

// ParseExpr parses a single expression (REPL convenience).
func ParseExpr(src string) (ast.Expr, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	p.skipTerms()
	if !p.at(lexer.EOF) {
		return nil, p.errf("unexpected %s after expression", p.cur())
	}
	return e, nil
}

func (p *parser) cur() lexer.Token  { return p.toks[p.pos] }
func (p *parser) next() lexer.Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) peekAt(off int) lexer.Token {
	i := p.pos + off
	if i >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[i]
}

func (p *parser) at(k lexer.Kind) bool { return p.cur().Kind == k }

func (p *parser) atKeyword(words ...string) bool {
	if p.cur().Kind != lexer.Keyword {
		return false
	}
	for _, w := range words {
		if p.cur().Text == w {
			return true
		}
	}
	return false
}

func (p *parser) eat(k lexer.Kind) bool {
	if p.at(k) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(k lexer.Kind) (lexer.Token, error) {
	if p.at(k) {
		return p.next(), nil
	}
	return lexer.Token{}, p.errf("expected %s, got %s", k, p.cur())
}

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return &Error{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) posOf(t lexer.Token) ast.Pos { return ast.Pos{Line: t.Line, Col: t.Col} }

// skipTerms consumes statement terminators (newlines, semicolons, commas).
func (p *parser) skipTerms() {
	for p.at(lexer.Newline) || p.at(lexer.Semicolon) || p.at(lexer.Comma) {
		p.pos++
	}
}

// --- functions --------------------------------------------------------------

func (p *parser) function(fullSrc string) (*ast.Function, error) {
	start := p.cur()
	p.next() // 'function'
	fn := &ast.Function{P: p.posOf(start)}

	// Forms:
	//   function name
	//   function name(ins)
	//   function out = name(ins)
	//   function [o1,o2] = name(ins)
	if p.at(lexer.LBracket) {
		p.next()
		for !p.at(lexer.RBracket) {
			t, err := p.expect(lexer.Ident)
			if err != nil {
				return nil, err
			}
			fn.Outs = append(fn.Outs, t.Text)
			p.eat(lexer.Comma)
		}
		p.next() // ]
		if _, err := p.expect(lexer.Assign); err != nil {
			return nil, err
		}
		t, err := p.expect(lexer.Ident)
		if err != nil {
			return nil, err
		}
		fn.Name = t.Text
	} else {
		t, err := p.expect(lexer.Ident)
		if err != nil {
			return nil, err
		}
		if p.at(lexer.Assign) {
			fn.Outs = []string{t.Text}
			p.next()
			t2, err := p.expect(lexer.Ident)
			if err != nil {
				return nil, err
			}
			fn.Name = t2.Text
		} else {
			fn.Name = t.Text
		}
	}
	if p.eat(lexer.LParen) {
		for !p.at(lexer.RParen) {
			t, err := p.expect(lexer.Ident)
			if err != nil {
				return nil, err
			}
			fn.Ins = append(fn.Ins, t.Text)
			p.eat(lexer.Comma)
		}
		p.next() // )
	}
	p.skipTerms()
	body, err := p.block("end", "function")
	if err != nil {
		return nil, err
	}
	fn.Body = body
	// Functions may be terminated by 'end' or by the next 'function' /
	// EOF (classic MATLAB files have no closing end).
	if p.atKeyword("end") {
		p.next()
	}
	fn.LineCount = countFunctionLines(body)
	fn.Source = fullSrc
	return fn, nil
}

// countFunctionLines approximates the paper's "lines of code" inlining
// metric by counting statements recursively.
func countFunctionLines(body []ast.Stmt) int {
	n := 0
	ast.WalkStmts(body, func(node ast.Node) bool {
		if _, ok := node.(ast.Stmt); ok {
			n++
		}
		return true
	})
	return n
}

// block parses statements until one of the stop keywords is at the front
// (not consumed). stops are keyword texts; "function" and EOF always stop.
func (p *parser) block(stops ...string) ([]ast.Stmt, error) {
	var out []ast.Stmt
	p.skipTerms()
	for {
		if p.at(lexer.EOF) || p.atKeyword(stops...) || p.atKeyword("function") {
			return out, nil
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		if s != nil {
			out = append(out, s)
		}
		p.skipTerms()
	}
}

// --- statements --------------------------------------------------------------

func (p *parser) statement() (ast.Stmt, error) {
	t := p.cur()
	if t.Kind == lexer.Keyword {
		switch t.Text {
		case "if":
			return p.ifStmt()
		case "while":
			return p.whileStmt()
		case "for":
			return p.forStmt()
		case "switch":
			return p.switchStmt()
		case "break":
			p.next()
			p.eatSemi()
			return &ast.Break{P: p.posOf(t)}, nil
		case "continue":
			p.next()
			p.eatSemi()
			return &ast.Continue{P: p.posOf(t)}, nil
		case "return":
			p.next()
			p.eatSemi()
			return &ast.Return{P: p.posOf(t)}, nil
		case "global":
			p.next()
			var names []string
			for p.at(lexer.Ident) {
				names = append(names, p.next().Text)
				p.eat(lexer.Comma)
			}
			p.eatSemi()
			return &ast.Global{P: p.posOf(t), Names: names}, nil
		case "clear":
			p.next()
			var names []string
			for p.at(lexer.Ident) {
				names = append(names, p.next().Text)
				p.eat(lexer.Comma)
			}
			p.eatSemi()
			return &ast.Clear{P: p.posOf(t), Names: names}, nil
		case "end", "else", "elseif", "case", "otherwise":
			return nil, p.errf("unexpected %q", t.Text)
		}
	}
	return p.simpleStmt()
}

// eatSemi consumes one optional statement terminator, recording display
// suppression. Returns true if a semicolon was present.
func (p *parser) eatSemi() bool {
	if p.at(lexer.Semicolon) {
		p.pos++
		return true
	}
	return false
}

// simpleStmt parses assignment or expression statements.
func (p *parser) simpleStmt() (ast.Stmt, error) {
	start := p.cur()

	// Multi-assignment: [a, b] = f(...). Distinguish from a matrix-literal
	// expression statement by scanning for `] =` at bracket depth 0.
	if p.at(lexer.LBracket) && p.isMultiAssign() {
		return p.multiAssign()
	}

	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.at(lexer.Assign) {
		if !isAssignable(e) {
			return nil, p.errf("invalid assignment target")
		}
		p.next()
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		display := !p.eatSemi()
		if display {
			if err := p.requireTerm(); err != nil {
				return nil, err
			}
		}
		return &ast.Assign{P: p.posOf(start), LHS: []ast.Expr{e}, RHS: rhs, Display: display}, nil
	}
	display := !p.eatSemi()
	if display {
		if err := p.requireTerm(); err != nil {
			return nil, err
		}
	}
	return &ast.ExprStmt{P: p.posOf(start), X: e, Display: display}, nil
}

// requireTerm checks that a simple statement is properly terminated:
// MATLAB rejects juxtapositions like "x = a b".
func (p *parser) requireTerm() error {
	switch p.cur().Kind {
	case lexer.Newline, lexer.Semicolon, lexer.Comma, lexer.EOF:
		return nil
	case lexer.Keyword:
		switch p.cur().Text {
		case "end", "else", "elseif", "case", "otherwise", "function":
			return nil
		}
	}
	return p.errf("unexpected %s after statement", p.cur())
}

func isAssignable(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return true
	case *ast.Call:
		// A(i) = ... — indexing assignment; the callee must be a name.
		return x.Name != ""
	}
	return false
}

// isMultiAssign looks ahead from a '[' for the pattern [ ... ] = that is
// not ==.
func (p *parser) isMultiAssign() bool {
	depth := 0
	for i := p.pos; i < len(p.toks); i++ {
		switch p.toks[i].Kind {
		case lexer.LBracket, lexer.LParen:
			depth++
		case lexer.RBracket, lexer.RParen:
			depth--
			if depth == 0 {
				return p.toks[i+1].Kind == lexer.Assign
			}
		case lexer.Newline, lexer.EOF:
			return false
		}
	}
	return false
}

func (p *parser) multiAssign() (ast.Stmt, error) {
	start := p.cur()
	p.next() // [
	var lhs []ast.Expr
	for !p.at(lexer.RBracket) {
		e, err := p.postfixExpr()
		if err != nil {
			return nil, err
		}
		if !isAssignable(e) {
			return nil, p.errf("invalid assignment target in multi-assignment")
		}
		lhs = append(lhs, e)
		p.eat(lexer.Comma)
	}
	p.next() // ]
	if _, err := p.expect(lexer.Assign); err != nil {
		return nil, err
	}
	rhs, err := p.expr()
	if err != nil {
		return nil, err
	}
	if call, ok := rhs.(*ast.Call); ok {
		call.NArgsOut = len(lhs)
	}
	display := !p.eatSemi()
	return &ast.Assign{P: p.posOf(start), LHS: lhs, RHS: rhs, Display: display}, nil
}

func (p *parser) ifStmt() (ast.Stmt, error) {
	start := p.next() // if
	node := &ast.If{P: p.posOf(start)}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	node.Conds = append(node.Conds, cond)
	blk, err := p.block("end", "else", "elseif")
	if err != nil {
		return nil, err
	}
	node.Blocks = append(node.Blocks, blk)
	for p.atKeyword("elseif") {
		p.next()
		c, err := p.expr()
		if err != nil {
			return nil, err
		}
		b, err := p.block("end", "else", "elseif")
		if err != nil {
			return nil, err
		}
		node.Conds = append(node.Conds, c)
		node.Blocks = append(node.Blocks, b)
	}
	if p.atKeyword("else") {
		p.next()
		b, err := p.block("end")
		if err != nil {
			return nil, err
		}
		if b == nil {
			b = []ast.Stmt{}
		}
		node.Else = b
	}
	if !p.atKeyword("end") {
		return nil, p.errf("expected 'end' to close if")
	}
	p.next()
	p.eatSemi()
	return node, nil
}

func (p *parser) whileStmt() (ast.Stmt, error) {
	start := p.next() // while
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	body, err := p.block("end")
	if err != nil {
		return nil, err
	}
	if !p.atKeyword("end") {
		return nil, p.errf("expected 'end' to close while")
	}
	p.next()
	p.eatSemi()
	return &ast.While{P: p.posOf(start), Cond: cond, Body: body}, nil
}

func (p *parser) forStmt() (ast.Stmt, error) {
	start := p.next() // for
	v, err := p.expect(lexer.Ident)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.Assign); err != nil {
		return nil, err
	}
	iter, err := p.expr()
	if err != nil {
		return nil, err
	}
	body, err := p.block("end")
	if err != nil {
		return nil, err
	}
	if !p.atKeyword("end") {
		return nil, p.errf("expected 'end' to close for")
	}
	p.next()
	p.eatSemi()
	return &ast.For{P: p.posOf(start), Var: v.Text, Iter: iter, Body: body}, nil
}

func (p *parser) switchStmt() (ast.Stmt, error) {
	start := p.next() // switch
	subj, err := p.expr()
	if err != nil {
		return nil, err
	}
	node := &ast.Switch{P: p.posOf(start), Subject: subj}
	p.skipTerms()
	for p.atKeyword("case") {
		p.next()
		cv, err := p.expr()
		if err != nil {
			return nil, err
		}
		blk, err := p.block("end", "case", "otherwise")
		if err != nil {
			return nil, err
		}
		node.CaseVals = append(node.CaseVals, cv)
		node.CaseBlks = append(node.CaseBlks, blk)
	}
	if p.atKeyword("otherwise") {
		p.next()
		blk, err := p.block("end")
		if err != nil {
			return nil, err
		}
		if blk == nil {
			blk = []ast.Stmt{}
		}
		node.Otherwise = blk
	}
	if !p.atKeyword("end") {
		return nil, p.errf("expected 'end' to close switch")
	}
	p.next()
	p.eatSemi()
	return node, nil
}

// --- expressions -------------------------------------------------------------
//
// Precedence (low to high), per MATLAB:
//   ||  &&  |  &  relational  :  + -  * / \ .* ./ .\  unary  ^ .^ ' .'

func (p *parser) expr() (ast.Expr, error) { return p.orOr() }

// The operator table of each binaryLevel, built once.
var (
	orOrOps       = map[lexer.Kind]ast.BinOp{lexer.OrOr: ast.OpOrOr}
	andAndOps     = map[lexer.Kind]ast.BinOp{lexer.AndAnd: ast.OpAndAnd}
	orOps         = map[lexer.Kind]ast.BinOp{lexer.Or: ast.OpOr}
	andOps        = map[lexer.Kind]ast.BinOp{lexer.And: ast.OpAnd}
	relationalOps = map[lexer.Kind]ast.BinOp{
		lexer.Eq: ast.OpEq, lexer.Ne: ast.OpNe, lexer.Lt: ast.OpLt,
		lexer.Le: ast.OpLe, lexer.Gt: ast.OpGt, lexer.Ge: ast.OpGe,
	}
	multiplicativeOps = map[lexer.Kind]ast.BinOp{
		lexer.Star: ast.OpMul, lexer.Slash: ast.OpDiv, lexer.BSlash: ast.OpLDiv,
		lexer.DotStar: ast.OpEMul, lexer.DotSlash: ast.OpEDiv, lexer.DotBSlash: ast.OpELDiv,
	}
)

func (p *parser) binaryLevel(sub func() (ast.Expr, error), ops map[lexer.Kind]ast.BinOp) (ast.Expr, error) {
	l, err := sub()
	if err != nil {
		return nil, err
	}
	for {
		op, ok := ops[p.cur().Kind]
		if !ok {
			return l, nil
		}
		t := p.next()
		r, err := sub()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{P: p.posOf(t), Op: op, L: l, R: r}
	}
}

func (p *parser) orOr() (ast.Expr, error) {
	return p.binaryLevel(p.andAnd, orOrOps)
}

func (p *parser) andAnd() (ast.Expr, error) {
	return p.binaryLevel(p.orExpr, andAndOps)
}

func (p *parser) orExpr() (ast.Expr, error) {
	return p.binaryLevel(p.andExpr, orOps)
}

func (p *parser) andExpr() (ast.Expr, error) {
	return p.binaryLevel(p.relational, andOps)
}

func (p *parser) relational() (ast.Expr, error) {
	return p.binaryLevel(p.rangeExpr, relationalOps)
}

// rangeExpr parses a:b and a:s:b. The colon here is the range operator;
// the bare-colon subscript case is handled in argument parsing.
func (p *parser) rangeExpr() (ast.Expr, error) {
	lo, err := p.additive()
	if err != nil {
		return nil, err
	}
	if !p.at(lexer.Colon) {
		return lo, nil
	}
	t := p.next()
	mid, err := p.additive()
	if err != nil {
		return nil, err
	}
	if p.at(lexer.Colon) {
		p.next()
		hi, err := p.additive()
		if err != nil {
			return nil, err
		}
		return &ast.Range{P: p.posOf(t), Lo: lo, Step: mid, Hi: hi}, nil
	}
	return &ast.Range{P: p.posOf(t), Lo: lo, Hi: mid}, nil
}

func (p *parser) additive() (ast.Expr, error) {
	l, err := p.multiplicative()
	if err != nil {
		return nil, err
	}
	for {
		k := p.cur().Kind
		if k != lexer.Plus && k != lexer.Minus {
			return l, nil
		}
		// Inside a matrix literal, `space +/- nonspace` means a new
		// element (unary sign), not a binary operator.
		if p.inMatrix() && p.cur().SpaceBefore && !p.peekAt(1).SpaceBefore {
			return l, nil
		}
		t := p.next()
		r, err := p.multiplicative()
		if err != nil {
			return nil, err
		}
		op := ast.OpAdd
		if k == lexer.Minus {
			op = ast.OpSub
		}
		l = &ast.Binary{P: p.posOf(t), Op: op, L: l, R: r}
	}
}

func (p *parser) multiplicative() (ast.Expr, error) {
	return p.binaryLevel(p.unary, multiplicativeOps)
}

func (p *parser) unary() (ast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case lexer.Minus:
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{P: p.posOf(t), Op: ast.OpNeg, X: x}, nil
	case lexer.Plus:
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{P: p.posOf(t), Op: ast.OpPos, X: x}, nil
	case lexer.Not:
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{P: p.posOf(t), Op: ast.OpNot, X: x}, nil
	}
	return p.power()
}

// power parses ^ and .^ which bind tighter than unary minus and are
// left-associative in MATLAB; the exponent may itself carry unary signs
// (2^-3 is legal).
func (p *parser) power() (ast.Expr, error) {
	l, err := p.postfixExpr()
	if err != nil {
		return nil, err
	}
	for {
		k := p.cur().Kind
		if k != lexer.Caret && k != lexer.DotCaret {
			return l, nil
		}
		t := p.next()
		// allow signed exponent
		var r ast.Expr
		if p.at(lexer.Minus) || p.at(lexer.Plus) {
			st := p.next()
			x, err := p.postfixExpr()
			if err != nil {
				return nil, err
			}
			op := ast.OpPos
			if st.Kind == lexer.Minus {
				op = ast.OpNeg
			}
			r = &ast.Unary{P: p.posOf(st), Op: op, X: x}
		} else {
			x, err := p.postfixExpr()
			if err != nil {
				return nil, err
			}
			r = x
		}
		op := ast.OpPow
		if k == lexer.DotCaret {
			op = ast.OpEPow
		}
		l = &ast.Binary{P: p.posOf(t), Op: op, L: l, R: r}
	}
}

// postfixExpr parses a primary followed by transpose and call/index
// suffixes.
func (p *parser) postfixExpr() (ast.Expr, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(lexer.Quote):
			t := p.next()
			e = &ast.Transpose{P: p.posOf(t), X: e, Conjugate: true}
		case p.at(lexer.DotQuote):
			t := p.next()
			e = &ast.Transpose{P: p.posOf(t), X: e, Conjugate: false}
		default:
			return e, nil
		}
	}
}

func (p *parser) primary() (ast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case lexer.Number:
		p.next()
		imag := strings.HasSuffix(t.Text, "i") || strings.HasSuffix(t.Text, "j")
		isInt := !imag && !strings.ContainsAny(t.Text, ".eE")
		return &ast.NumberLit{P: p.posOf(t), Value: t.Num, Imag: imag, IsInt: isInt}, nil
	case lexer.Str:
		p.next()
		return &ast.StringLit{P: p.posOf(t), Value: t.Text}, nil
	case lexer.Ident:
		p.next()
		if p.at(lexer.LParen) {
			args, err := p.argList(t)
			if err != nil {
				return nil, err
			}
			return &ast.Call{P: p.posOf(t), Name: t.Text, Args: args}, nil
		}
		return &ast.Ident{P: p.posOf(t), Name: t.Text}, nil
	case lexer.LParen:
		p.next()
		p.pushParen()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		p.popParen()
		if _, err := p.expect(lexer.RParen); err != nil {
			return nil, err
		}
		return e, nil
	case lexer.LBracket:
		return p.matrixLit()
	case lexer.Keyword:
		if t.Text == "end" && len(p.endDims) > 0 {
			p.next()
			ctx := p.endDims[len(p.endDims)-1]
			return &ast.End{P: p.posOf(t), Dim: ctx.dim, NumDims: ctx.numDims}, nil
		}
	}
	return nil, p.errf("unexpected %s in expression", t)
}

// argList parses the parenthesized argument/subscript list after a name.
// Bare ':' arguments become Colon nodes; 'end' is legal inside.
func (p *parser) argList(nameTok lexer.Token) ([]ast.Expr, error) {
	p.next() // (
	p.pushParen()
	defer p.popParen()
	var args []ast.Expr
	if p.at(lexer.RParen) {
		p.next()
		return args, nil
	}
	for {
		p.endDims = append(p.endDims, endCtx{dim: len(args), numDims: -1})
		var a ast.Expr
		var err error
		if p.at(lexer.Colon) && (p.peekAt(1).Kind == lexer.Comma || p.peekAt(1).Kind == lexer.RParen) {
			t := p.next()
			a = &ast.Colon{P: p.posOf(t)}
		} else {
			a, err = p.expr()
		}
		p.endDims = p.endDims[:len(p.endDims)-1]
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.eat(lexer.Comma) {
			continue
		}
		break
	}
	if _, err := p.expect(lexer.RParen); err != nil {
		return nil, err
	}
	// Fill NumDims on End nodes now that the arity is known.
	for i, a := range args {
		dim := i
		ast.Walk(a, func(n ast.Node) bool {
			if e, ok := n.(*ast.End); ok && e.NumDims == -1 {
				e.Dim = dim
				e.NumDims = len(args)
			}
			// Do not descend into nested calls: their own arg parsing
			// already resolved their End nodes.
			_, isCall := n.(*ast.Call)
			return !isCall || n == a
		})
	}
	return args, nil
}

// matrixLit parses [ ... ; ... ]. Inside, space and comma separate
// elements, semicolon and newline separate rows.
func (p *parser) matrixLit() (ast.Expr, error) {
	t := p.next() // [
	p.matrixDepth++
	defer func() { p.matrixDepth-- }()
	m := &ast.Matrix{P: p.posOf(t)}
	var row []ast.Expr
	flushRow := func() {
		if len(row) > 0 {
			m.Rows = append(m.Rows, row)
			row = nil
		}
	}
	for {
		switch {
		case p.at(lexer.RBracket):
			p.next()
			flushRow()
			return m, nil
		case p.at(lexer.EOF):
			return nil, p.errf("unterminated matrix literal")
		case p.at(lexer.Semicolon) || p.at(lexer.Newline):
			p.next()
			flushRow()
		case p.at(lexer.Comma):
			p.next()
		default:
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
		}
	}
}

// inMatrix reports whether we are directly inside a matrix literal (not
// inside parentheses nested within it).
func (p *parser) inMatrix() bool {
	if p.matrixDepth == 0 {
		return false
	}
	return len(p.parenDepth) == 0 || p.parenDepth[len(p.parenDepth)-1] < p.matrixDepth
}

func (p *parser) pushParen() { p.parenDepth = append(p.parenDepth, p.matrixDepth) }
func (p *parser) popParen()  { p.parenDepth = p.parenDepth[:len(p.parenDepth)-1] }
