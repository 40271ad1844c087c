package parser

import "repro/internal/lexer"

// count bounds, from the tokens alone, how many nodes of each kind and
// list elements of each kind the parse can make: the slabs' Need.
// Literals are counted exactly; an identifier is a Call when a '('
// follows it and an Ident otherwise; an operator makes at most one
// Binary, Unary or Range; a statement starts after a terminator or is
// opened by its keyword. A count that falls short of the tree (input the
// bound does not foresee) costs allocations, not correctness.
func (p *parser) count() {
	a := &p.a
	// open holds the bracket kinds around the current token: '(' after
	// a name opens an argument list, any other '(' a group, '[' a matrix.
	const (
		args = iota
		group
		matrix
	)
	var openBuf [32]uint8
	open := openBuf[:0]
	// A simple statement (assignment or expression) is open from its
	// first token to the terminator that ends it at depth 0.
	inSimple, assigns := false, false
	closeSimple := func() {
		if inSimple {
			if assigns {
				a.Assigns.Need++
				a.Exprs.Need++ // LHS; a multi-assignment's are counted as elements
			} else {
				a.ExprStmts.Need++
			}
		}
		inSimple, assigns = false, false
	}
	// header is set while the names of a function header or a global or
	// clear statement run, which are neither Idents nor Calls.
	header := false
	stmtStart := true
	for i, t := range p.toks {
		var prev, next lexer.Token
		if i > 0 {
			prev = p.toks[i-1]
		}
		if i+1 < len(p.toks) {
			next = p.toks[i+1]
		}
		depth := len(open)
		top := -1
		if depth > 0 {
			top = int(open[depth-1])
		}
		operandEnd := endsOperand(prev, depth)
		if top == matrix && startsOperand(t) {
			switch {
			case prev.Kind == lexer.LBracket, prev.Kind == lexer.Comma, prev.Kind == lexer.Semicolon, prev.Kind == lexer.Newline:
				a.Exprs.Need++
			case t.SpaceBefore && operandEnd:
				if t.Kind != lexer.Plus && t.Kind != lexer.Minus || !next.SpaceBefore {
					a.Exprs.Need++
				}
			}
		}
		if depth == 0 && stmtStart {
			stmtStart = false
			switch t.Kind {
			case lexer.Keyword, lexer.Newline, lexer.Semicolon, lexer.Comma, lexer.EOF:
			default:
				a.Stmts.Need++
				inSimple = true
			}
		}
		switch t.Kind {
		case lexer.Number:
			a.NumberLits.Need++
		case lexer.Str:
			a.StringLits.Need++
		case lexer.Ident:
			switch {
			case header:
				a.Names.Need++
			case next.Kind == lexer.LParen:
				a.Calls.Need++
			default:
				a.Idents.Need++
			}
		case lexer.Keyword:
			if depth > 0 {
				if t.Text == "end" {
					a.Ends.Need++
				}
				break
			}
			closeSimple()
			switch t.Text {
			case "if":
				a.Ifs.Need++
				a.Exprs.Need++ // its condition
				a.Lists.Need++ // its block
			case "elseif", "case":
				a.Exprs.Need++
				a.Lists.Need++
			case "while":
				a.Whiles.Need++
			case "for":
				a.Fors.Need++
			case "switch":
				a.Switches.Need++
			case "break":
				a.Breaks.Need++
			case "continue":
				a.Continues.Need++
			case "return":
				a.Returns.Need++
			case "global":
				a.Globals.Need++
				header = true
			case "clear":
				a.Clears.Need++
				header = true
			case "function":
				a.Functions.Need++
				header = true
			case "else", "otherwise":
				stmtStart = true // a statement may follow on the same line
			}
			switch t.Text {
			case "if", "while", "for", "switch", "break", "continue", "return", "global", "clear":
				a.Stmts.Need++ // a statement its keyword opens
			}
		case lexer.Plus, lexer.Minus:
			switch {
			case !operandEnd:
				a.Unaries.Need++
			case top == matrix && t.SpaceBefore && !next.SpaceBefore:
				a.Unaries.Need++ // a signed element, or an operator
				a.Binaries.Need++
			default:
				a.Binaries.Need++
			}
		case lexer.Not:
			a.Unaries.Need++
		case lexer.Star, lexer.Slash, lexer.BSlash, lexer.Caret, lexer.DotStar, lexer.DotSlash,
			lexer.DotBSlash, lexer.DotCaret, lexer.Eq, lexer.Ne, lexer.Lt, lexer.Le, lexer.Gt,
			lexer.Ge, lexer.And, lexer.Or, lexer.AndAnd, lexer.OrOr:
			a.Binaries.Need++
		case lexer.Colon:
			if (prev.Kind == lexer.LParen || prev.Kind == lexer.Comma) && (next.Kind == lexer.Comma || next.Kind == lexer.RParen) {
				a.Colons.Need++
			} else {
				a.Ranges.Need++
			}
		case lexer.Quote, lexer.DotQuote:
			a.Transposes.Need++
		case lexer.LBracket:
			if header { // a function's outputs
				open = append(open, group)
				break
			}
			a.Matrices.Need++
			a.Rows.Need++
			open = append(open, matrix)
		case lexer.LParen:
			switch {
			case header:
				open = append(open, group)
			case prev.Kind == lexer.Ident:
				if next.Kind != lexer.RParen {
					a.Exprs.Need++ // the first argument
				}
				open = append(open, args)
			default:
				open = append(open, group)
			}
		case lexer.RParen, lexer.RBracket:
			if depth > 0 {
				open = open[:depth-1]
			}
		case lexer.Assign:
			if depth == 0 && inSimple {
				assigns = true
			}
		case lexer.Comma:
			switch {
			case top == args:
				a.Exprs.Need++
			case depth == 0:
				closeSimple()
				stmtStart = true
			}
		case lexer.Semicolon, lexer.Newline:
			switch {
			case top == matrix:
				a.Rows.Need++
			case depth == 0:
				closeSimple()
				stmtStart, header = true, false
			}
		case lexer.EOF:
			closeSimple()
		}
	}
}

// endsOperand reports whether tok, the token before an operator, ends
// an operand, so that a '+' or '-' after it is binary.
func endsOperand(tok lexer.Token, depth int) bool {
	switch tok.Kind {
	case lexer.Number, lexer.Str, lexer.Ident, lexer.RParen, lexer.RBracket, lexer.Quote, lexer.DotQuote:
		return true
	case lexer.Keyword:
		return depth > 0 && tok.Text == "end"
	}
	return false
}

// startsOperand reports whether tok can open a matrix element.
func startsOperand(tok lexer.Token) bool {
	switch tok.Kind {
	case lexer.Number, lexer.Str, lexer.Ident, lexer.LParen, lexer.LBracket, lexer.Plus, lexer.Minus, lexer.Not:
		return true
	case lexer.Keyword:
		return tok.Text == "end"
	}
	return false
}
