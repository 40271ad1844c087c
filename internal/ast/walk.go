package ast

// Walk traverses the tree rooted at n in depth-first pre-order, calling
// f for each node. If f returns false the node's children are skipped.
func Walk(n Node, f func(Node) bool) {
	if n == nil || !f(n) {
		return
	}
	switch x := n.(type) {
	case *Binary:
		Walk(x.L, f)
		Walk(x.R, f)
	case *Unary:
		Walk(x.X, f)
	case *Transpose:
		Walk(x.X, f)
	case *Range:
		Walk(x.Lo, f)
		if x.Step != nil {
			Walk(x.Step, f)
		}
		Walk(x.Hi, f)
	case *Call:
		for _, a := range x.Args {
			Walk(a, f)
		}
	case *Matrix:
		for _, row := range x.Rows {
			for _, e := range row {
				Walk(e, f)
			}
		}
	case *ExprStmt:
		Walk(x.X, f)
	case *Assign:
		for _, l := range x.LHS {
			Walk(l, f)
		}
		Walk(x.RHS, f)
	case *If:
		for i, c := range x.Conds {
			Walk(c, f)
			WalkStmts(x.Blocks[i], f)
		}
		WalkStmts(x.Else, f)
	case *While:
		Walk(x.Cond, f)
		WalkStmts(x.Body, f)
	case *For:
		Walk(x.Iter, f)
		WalkStmts(x.Body, f)
	case *Function:
		WalkStmts(x.Body, f)
	case *File:
		WalkStmts(x.Stmts, f)
		for _, fn := range x.Funcs {
			Walk(fn, f)
		}
	}
}

// WalkStmts walks each statement in order.
func WalkStmts(stmts []Stmt, f func(Node) bool) {
	for _, s := range stmts {
		Walk(s, f)
	}
}

// HasLoop reports whether stmts hold a for or while loop at any depth.
func HasLoop(stmts []Stmt) bool {
	found := false
	WalkStmts(stmts, func(n Node) bool {
		switch n.(type) {
		case *For, *While:
			found = true
		}
		return !found
	})
	return found
}

// Calls reports whether stmts name the function name at any depth: a
// call, or a bare identifier, which MATLAB reads as a call with no
// arguments when no variable holds that name. A variable that happens
// to share the name also counts.
func Calls(stmts []Stmt, name string) bool {
	found := false
	WalkStmts(stmts, func(n Node) bool {
		switch x := n.(type) {
		case *Call:
			found = found || x.Name == name
		case *Ident:
			found = found || x.Name == name
		}
		return !found
	})
	return found
}
