package ast

// CloneExpr returns a deep copy of an expression tree. A copy carries
// what the analyses recorded on each node: its number and its verdict.
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *NumberLit:
		c := *x
		return &c
	case *StringLit:
		c := *x
		return &c
	case *Ident:
		c := *x
		return &c
	case *Binary:
		return &Binary{P: x.P, Op: x.Op, L: CloneExpr(x.L), R: CloneExpr(x.R), ExprID: x.ExprID}
	case *Unary:
		return &Unary{P: x.P, Op: x.Op, X: CloneExpr(x.X), ExprID: x.ExprID}
	case *Transpose:
		return &Transpose{P: x.P, X: CloneExpr(x.X), Conjugate: x.Conjugate, ExprID: x.ExprID}
	case *Range:
		c := *x
		c.Lo, c.Step, c.Hi = CloneExpr(x.Lo), CloneExpr(x.Step), CloneExpr(x.Hi)
		return &c
	case *Colon:
		c := *x
		return &c
	case *End:
		c := *x
		return &c
	case *Call:
		c := *x
		c.Args = nil
		for _, a := range x.Args {
			c.Args = append(c.Args, CloneExpr(a))
		}
		return &c
	case *Matrix:
		c := *x
		c.Rows = nil
		for _, row := range x.Rows {
			nr := make([]Expr, len(row))
			for i, e := range row {
				nr[i] = CloneExpr(e)
			}
			c.Rows = append(c.Rows, nr)
		}
		return &c
	}
	panic("ast: CloneExpr: unknown node")
}

// CloneStmt returns a deep copy of a statement tree.
func CloneStmt(s Stmt) Stmt {
	switch x := s.(type) {
	case *ExprStmt:
		return &ExprStmt{P: x.P, X: CloneExpr(x.X), Display: x.Display}
	case *Assign:
		a := &Assign{P: x.P, RHS: CloneExpr(x.RHS), Display: x.Display}
		for _, l := range x.LHS {
			a.LHS = append(a.LHS, CloneExpr(l))
		}
		return a
	case *If:
		n := &If{P: x.P}
		for i, c := range x.Conds {
			n.Conds = append(n.Conds, CloneExpr(c))
			n.Blocks = append(n.Blocks, CloneStmts(x.Blocks[i]))
		}
		if x.Else != nil {
			n.Else = CloneStmts(x.Else)
		}
		return n
	case *While:
		return &While{P: x.P, Cond: CloneExpr(x.Cond), Body: CloneStmts(x.Body)}
	case *For:
		return &For{P: x.P, Var: x.Var, Iter: CloneExpr(x.Iter), Body: CloneStmts(x.Body)}
	case *Switch:
		n := &Switch{P: x.P, Subject: CloneExpr(x.Subject)}
		for i, c := range x.CaseVals {
			n.CaseVals = append(n.CaseVals, CloneExpr(c))
			n.CaseBlks = append(n.CaseBlks, CloneStmts(x.CaseBlks[i]))
		}
		if x.Otherwise != nil {
			n.Otherwise = CloneStmts(x.Otherwise)
		}
		return n
	case *Break:
		c := *x
		return &c
	case *Continue:
		c := *x
		return &c
	case *Return:
		c := *x
		return &c
	case *Global:
		c := *x
		c.Names = append([]string(nil), x.Names...)
		return &c
	case *Clear:
		c := *x
		c.Names = append([]string(nil), x.Names...)
		return &c
	}
	panic("ast: CloneStmt: unknown node")
}

// CloneStmts deep-copies a statement list.
func CloneStmts(list []Stmt) []Stmt {
	out := make([]Stmt, len(list))
	for i, s := range list {
		out[i] = CloneStmt(s)
	}
	return out
}

// CloneFunction deep-copies a function definition.
func CloneFunction(f *Function) *Function {
	return &Function{
		P:         f.P,
		Name:      f.Name,
		Ins:       append([]string(nil), f.Ins...),
		Outs:      append([]string(nil), f.Outs...),
		Body:      CloneStmts(f.Body),
		Source:    f.Source,
		LineCount: f.LineCount,
	}
}
