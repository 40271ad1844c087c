// Package parser implements a recursive-descent parser for the MATLAB
// subset MaJIC supports. It produces the AST of package ast and follows
// MATLAB's operator precedence, the space-sensitivity rules inside
// matrix literals, and the 'end' subscript magic.
package parser

import (
	"fmt"
	"strings"
	"sync/atomic"

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
	// endDims carries the subscript context for the 'end' keyword; ends
	// holds the End nodes whose subscript list is still open.
	endDims []endCtx
	ends    []*ast.End

	// a is the scratch every tree is built in, one slab per kind, and
	// funcs the file's functions; a is reset, not remade, for the next
	// parse, and Parse returns a copy (ast.CloneFile) whose arrays the
	// clone's count sizes exactly. A list is built on its kind's stack and copied, once complete, into a
	// window of its kind's slab (done). Lists nest, and a nested list is
	// complete before its enclosing one goes on, so each stack holds the
	// lists under construction one above the other.
	a     ast.Slabs
	funcs []*ast.Function
	exprs []ast.Expr
	stmts []ast.Stmt
	lists [][]ast.Stmt
	rows  [][]ast.Expr
	names []string
	// made counts the source statements parsed, which gives a function
	// its LineCount, and switches the switches parsed in the function,
	// which numbers their temporaries.
	made, switches int
}

type endCtx struct {
	dim     int
	numDims int // filled when the subscript list is complete; -1 = unknown yet
}

// parsers holds the parsers Parse works in: the tokens, the stacks and
// the scratch tree are dead once a parse returns, since the tree keeps
// texts, not tokens, and Parse returns a copy of it. A parser goes back
// holding no pointer: not into the source, not into the scratch tree.
//
// spare is one parser more, kept where a collection does not reach it.
// The pool drops a parser that sat out two collections, and the next
// parse then makes every array the parser kept again, growing each kind
// from nothing; a session that collects every few parses would pay that
// over and over. Only a parser whose token slice holds at most
// spareTokens (four times the largest Table 1 program) is kept there,
// which bounds what it pins while idle.
var (
	parsers reuse.Pool[parser]
	spare   atomic.Pointer[parser]
)

const spareTokens = 2048

// takeParser takes the spare parser, or one from the pool.
func takeParser() *parser {
	if p := spare.Swap(nil); p != nil {
		return p
	}
	return parsers.Get()
}

func (p *parser) release() {
	p.a.Reset()
	clear(p.toks)
	clear(p.ends[:cap(p.ends)])
	clear(p.funcs[:cap(p.funcs)])
	clear(p.exprs[:cap(p.exprs)])
	clear(p.stmts[:cap(p.stmts)])
	clear(p.lists[:cap(p.lists)])
	clear(p.rows[:cap(p.rows)])
	clear(p.names[:cap(p.names)])
	*p = parser{
		toks: p.toks[:0], parenDepth: p.parenDepth[:0], endDims: p.endDims[:0], ends: p.ends[:0], a: p.a,
		funcs: p.funcs[:0], exprs: p.exprs[:0], stmts: p.stmts[:0], lists: p.lists[:0], rows: p.rows[:0], names: p.names[:0],
	}
	if cap(p.toks) > spareTokens || !spare.CompareAndSwap(nil, p) {
		parsers.Put(p)
	}
}

// done copies the list that starts at mark on stack into a window of s
// and takes it off the stack.
func done[T any](stack *[]T, mark int, s *ast.Slab[T]) []T {
	list := s.Copy((*stack)[mark:])
	*stack = (*stack)[:mark]
	return list
}

// Parse parses a full source file (script statements and/or functions).
func Parse(src string) (*ast.File, error) {
	p := takeParser()
	defer p.release()
	var err error
	if p.toks, err = lexer.AppendTokens(p.toks[:0], src); err != nil {
		return nil, err
	}
	tree, err := p.file(src)
	if err != nil {
		return nil, err
	}
	return ast.CloneFile(&tree), nil
}

// file parses the tokens into a tree in the parser's scratch.
func (p *parser) file(src string) (ast.File, error) {
	p.skipTerms()
	for !p.at(lexer.EOF) {
		if p.atKeyword("function") {
			fn, err := p.function(src)
			if err != nil {
				return ast.File{}, err
			}
			p.funcs = append(p.funcs, fn)
		} else if err := p.statement(); err != nil {
			return ast.File{}, err
		}
		p.skipTerms()
	}
	return ast.File{P: ast.Pos{Line: 1, Col: 1}, Stmts: done(&p.stmts, 0, &p.a.Stmts), Funcs: p.funcs}, nil
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
	fn := p.a.Functions.New(ast.Function{P: p.posOf(start)})
	made := p.made
	p.switches = 0

	// Forms:
	//   function name
	//   function name(ins)
	//   function out = name(ins)
	//   function [o1,o2] = name(ins)
	if p.at(lexer.LBracket) {
		p.next()
		mark := len(p.names)
		for !p.at(lexer.RBracket) {
			t, err := p.expect(lexer.Ident)
			if err != nil {
				return nil, err
			}
			p.names = append(p.names, t.Text)
			p.eat(lexer.Comma)
		}
		p.next() // ]
		fn.Outs = done(&p.names, mark, &p.a.Names)
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
			p.names = append(p.names, t.Text)
			fn.Outs = done(&p.names, len(p.names)-1, &p.a.Names)
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
		mark := len(p.names)
		for !p.at(lexer.RParen) {
			t, err := p.expect(lexer.Ident)
			if err != nil {
				return nil, err
			}
			p.names = append(p.names, t.Text)
			p.eat(lexer.Comma)
		}
		p.next() // )
		fn.Ins = done(&p.names, mark, &p.a.Names)
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
	// The paper's "lines of code" inlining metric is approximated by the
	// statements of the body, at every depth.
	fn.LineCount = p.made - made
	fn.Source = fullSrc
	return fn, nil
}

// block parses statements until one of the stop keywords is at the front
// (not consumed). stops are keyword texts; "function" and EOF always stop.
func (p *parser) block(stops ...string) ([]ast.Stmt, error) {
	mark := len(p.stmts)
	p.skipTerms()
	for {
		if p.at(lexer.EOF) || p.atKeyword(stops...) || p.atKeyword("function") {
			return done(&p.stmts, mark, &p.a.Stmts), nil
		}
		if err := p.statement(); err != nil {
			return nil, err
		}
		p.skipTerms()
	}
}

// --- statements --------------------------------------------------------------

// statement parses one statement onto the statement stack. A switch
// counts as one, whatever it lowers to.
func (p *parser) statement() error {
	s, err := p.stmt()
	if err != nil {
		return err
	}
	p.made++
	if s != nil {
		p.stmts = append(p.stmts, s)
	}
	return nil
}

func (p *parser) stmt() (ast.Stmt, error) {
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
			return p.a.Breaks.New(ast.Break{P: p.posOf(t)}), nil
		case "continue":
			p.next()
			p.eatSemi()
			return p.a.Continues.New(ast.Continue{P: p.posOf(t)}), nil
		case "return":
			p.next()
			p.eatSemi()
			return p.a.Returns.New(ast.Return{P: p.posOf(t)}), nil
		case "global":
			p.next()
			return p.a.Globals.New(ast.Global{P: p.posOf(t), Names: p.nameList()}), nil
		case "clear":
			p.next()
			return p.a.Clears.New(ast.Clear{P: p.posOf(t), Names: p.nameList()}), nil
		case "end", "else", "elseif", "case", "otherwise":
			return nil, p.errf("unexpected %q", t.Text)
		}
	}
	return p.simpleStmt()
}

// nameList parses the names of a global or clear statement.
func (p *parser) nameList() []string {
	mark := len(p.names)
	for p.at(lexer.Ident) {
		p.names = append(p.names, p.next().Text)
		p.eat(lexer.Comma)
	}
	p.eatSemi()
	return done(&p.names, mark, &p.a.Names)
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
		p.exprs = append(p.exprs, e)
		lhs := done(&p.exprs, len(p.exprs)-1, &p.a.Exprs)
		return p.a.Assigns.New(ast.Assign{P: p.posOf(start), LHS: lhs, RHS: rhs, Display: display}), nil
	}
	display := !p.eatSemi()
	if display {
		if err := p.requireTerm(); err != nil {
			return nil, err
		}
	}
	return p.a.ExprStmts.New(ast.ExprStmt{P: p.posOf(start), X: e, Display: display}), nil
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
	mark := len(p.exprs)
	for !p.at(lexer.RBracket) {
		e, err := p.postfixExpr()
		if err != nil {
			return nil, err
		}
		if !isAssignable(e) {
			return nil, p.errf("invalid assignment target in multi-assignment")
		}
		p.exprs = append(p.exprs, e)
		p.eat(lexer.Comma)
	}
	p.next() // ]
	lhs := done(&p.exprs, mark, &p.a.Exprs)
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
	return p.a.Assigns.New(ast.Assign{P: p.posOf(start), LHS: lhs, RHS: rhs, Display: display}), nil
}

func (p *parser) ifStmt() (ast.Stmt, error) {
	start := p.next() // if
	node := p.a.Ifs.New(ast.If{P: p.posOf(start)})
	conds, blocks := len(p.exprs), len(p.lists)
	for {
		c, err := p.expr()
		if err != nil {
			return nil, err
		}
		b, err := p.block("end", "else", "elseif")
		if err != nil {
			return nil, err
		}
		p.exprs = append(p.exprs, c)
		p.lists = append(p.lists, b)
		if !p.atKeyword("elseif") {
			break
		}
		p.next()
	}
	node.Conds = done(&p.exprs, conds, &p.a.Exprs)
	node.Blocks = done(&p.lists, blocks, &p.a.Lists)
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
	return p.a.Whiles.New(ast.While{P: p.posOf(start), Cond: cond, Body: body}), nil
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
	return p.a.Fors.New(ast.For{P: p.posOf(start), Var: v.Text, Iter: iter, Body: body}), nil
}

// switchStmt parses switch s, case c1 ... otherwise ... end and lowers
// it: t = s, then if t case c1 ... elseif t case c2 ... else ... end,
// where t is the switch's temporary (ast.SwitchTemp) and case the case
// match (ast.OpCase). So the subject is evaluated once, before any case
// value. A switch without a case is the assignment and the otherwise's
// statements. The assignment, and those statements, go on the
// statement stack; the if is returned.
func (p *parser) switchStmt() (ast.Stmt, error) {
	start := p.next() // switch
	pos := p.posOf(start)
	p.switches++
	temp := ast.SwitchTemp(p.switches)
	subj, err := p.expr()
	if err != nil {
		return nil, err
	}
	conds, blks := len(p.exprs), len(p.lists)
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
		t := p.a.Idents.New(ast.Ident{P: pos, Name: temp})
		p.exprs = append(p.exprs, p.a.Binaries.New(ast.Binary{P: cv.Pos(), Op: ast.OpCase, L: t, R: cv}))
		p.lists = append(p.lists, blk)
	}
	node := ast.If{P: pos, Conds: done(&p.exprs, conds, &p.a.Exprs), Blocks: done(&p.lists, blks, &p.a.Lists)}
	if p.atKeyword("otherwise") {
		p.next()
		if node.Else, err = p.block("end"); err != nil {
			return nil, err
		}
	}
	if !p.atKeyword("end") {
		return nil, p.errf("expected 'end' to close switch")
	}
	p.next()
	p.eatSemi()
	p.exprs = append(p.exprs, p.a.Idents.New(ast.Ident{P: pos, Name: temp}))
	lhs := done(&p.exprs, len(p.exprs)-1, &p.a.Exprs)
	p.stmts = append(p.stmts, p.a.Assigns.New(ast.Assign{P: pos, LHS: lhs, RHS: subj}))
	if len(node.Conds) == 0 {
		p.stmts = append(p.stmts, node.Else...)
		return nil, nil
	}
	return p.a.Ifs.New(node), nil
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
		l = p.a.Binaries.New(ast.Binary{P: p.posOf(t), Op: op, L: l, R: r})
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
		return p.a.Ranges.New(ast.Range{P: p.posOf(t), Lo: lo, Step: mid, Hi: hi}), nil
	}
	return p.a.Ranges.New(ast.Range{P: p.posOf(t), Lo: lo, Hi: mid}), nil
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
		l = p.a.Binaries.New(ast.Binary{P: p.posOf(t), Op: op, L: l, R: r})
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
		return p.a.Unaries.New(ast.Unary{P: p.posOf(t), Op: ast.OpNeg, X: x}), nil
	case lexer.Plus:
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return p.a.Unaries.New(ast.Unary{P: p.posOf(t), Op: ast.OpPos, X: x}), nil
	case lexer.Not:
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return p.a.Unaries.New(ast.Unary{P: p.posOf(t), Op: ast.OpNot, X: x}), nil
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
			r = p.a.Unaries.New(ast.Unary{P: p.posOf(st), Op: op, X: x})
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
		l = p.a.Binaries.New(ast.Binary{P: p.posOf(t), Op: op, L: l, R: r})
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
			e = p.a.Transposes.New(ast.Transpose{P: p.posOf(t), X: e, Conjugate: true})
		case p.at(lexer.DotQuote):
			t := p.next()
			e = p.a.Transposes.New(ast.Transpose{P: p.posOf(t), X: e, Conjugate: false})
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
		return p.a.NumberLits.New(ast.NumberLit{P: p.posOf(t), Value: t.Num, Imag: imag, IsInt: isInt}), nil
	case lexer.Str:
		p.next()
		return p.a.StringLits.New(ast.StringLit{P: p.posOf(t), Value: t.Text}), nil
	case lexer.Ident:
		p.next()
		if p.at(lexer.LParen) {
			args, err := p.argList(t)
			if err != nil {
				return nil, err
			}
			return p.a.Calls.New(ast.Call{P: p.posOf(t), Name: t.Text, Args: args}), nil
		}
		return p.a.Idents.New(ast.Ident{P: p.posOf(t), Name: t.Text}), nil
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
			e := p.a.Ends.New(ast.End{P: p.posOf(t), Dim: ctx.dim, NumDims: ctx.numDims})
			p.ends = append(p.ends, e)
			return e, nil
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
	if p.at(lexer.RParen) {
		p.next()
		return nil, nil
	}
	mark, ends := len(p.exprs), len(p.ends)
	for {
		p.endDims = append(p.endDims, endCtx{dim: len(p.exprs) - mark, numDims: -1})
		var a ast.Expr
		var err error
		if p.at(lexer.Colon) && (p.peekAt(1).Kind == lexer.Comma || p.peekAt(1).Kind == lexer.RParen) {
			t := p.next()
			a = p.a.Colons.New(ast.Colon{P: p.posOf(t)})
		} else {
			a, err = p.expr()
		}
		p.endDims = p.endDims[:len(p.endDims)-1]
		if err != nil {
			return nil, err
		}
		p.exprs = append(p.exprs, a)
		if p.eat(lexer.Comma) {
			continue
		}
		break
	}
	if _, err := p.expect(lexer.RParen); err != nil {
		return nil, err
	}
	// Fill NumDims on this list's End nodes now that the arity is known;
	// a nested subscript list filled, and took off, its own.
	for _, e := range p.ends[ends:] {
		e.NumDims = len(p.exprs) - mark
	}
	p.ends = p.ends[:ends]
	return done(&p.exprs, mark, &p.a.Exprs), nil
}

// matrixLit parses [ ... ; ... ]. Inside, space and comma separate
// elements, semicolon and newline separate rows.
func (p *parser) matrixLit() (ast.Expr, error) {
	t := p.next() // [
	p.matrixDepth++
	defer func() { p.matrixDepth-- }()
	m := p.a.Matrices.New(ast.Matrix{P: p.posOf(t)})
	rows, row := len(p.rows), len(p.exprs)
	flushRow := func() {
		if len(p.exprs) > row {
			p.rows = append(p.rows, done(&p.exprs, row, &p.a.Exprs))
		}
	}
	for {
		switch {
		case p.at(lexer.RBracket):
			p.next()
			flushRow()
			m.Rows = done(&p.rows, rows, &p.a.Rows)
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
			p.exprs = append(p.exprs, e)
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
