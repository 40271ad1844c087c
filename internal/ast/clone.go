package ast

// A clone allocates per kind of node rather than per node: it counts the
// tree first, then takes every node, and the backing of every list, from
// a slab of exactly that many (Slab).

// cloner counts into, and takes from, one slab per kind.
type cloner Slabs

// countExpr adds what cloning e takes to the slabs' needs.
func (c *cloner) countExpr(e Expr) {
	switch x := e.(type) {
	case *NumberLit:
		c.NumberLits.Need++
	case *StringLit:
		c.StringLits.Need++
	case *Ident:
		c.Idents.Need++
	case *Binary:
		c.Binaries.Need++
		c.countExpr(x.L)
		c.countExpr(x.R)
	case *Unary:
		c.Unaries.Need++
		c.countExpr(x.X)
	case *Transpose:
		c.Transposes.Need++
		c.countExpr(x.X)
	case *Range:
		c.Ranges.Need++
		c.countExpr(x.Lo)
		c.countExpr(x.Step)
		c.countExpr(x.Hi)
	case *Colon:
		c.Colons.Need++
	case *End:
		c.Ends.Need++
	case *Call:
		c.Calls.Need++
		c.countExprs(x.Args)
	case *Matrix:
		c.Matrices.Need++
		c.Rows.Need += len(x.Rows)
		for _, row := range x.Rows {
			c.countExprs(row)
		}
	}
}

func (c *cloner) countExprs(list []Expr) {
	c.Exprs.Need += len(list)
	for _, e := range list {
		c.countExpr(e)
	}
}

// countStmts adds what cloning list takes, its own backing included.
func (c *cloner) countStmts(list []Stmt) {
	c.Stmts.Need += len(list)
	for _, s := range list {
		switch x := s.(type) {
		case *ExprStmt:
			c.ExprStmts.Need++
			c.countExpr(x.X)
		case *Assign:
			c.Assigns.Need++
			c.countExprs(x.LHS)
			c.countExpr(x.RHS)
		case *If:
			c.Ifs.Need++
			c.countExprs(x.Conds)
			c.Lists.Need += len(x.Blocks)
			for _, b := range x.Blocks {
				c.countStmts(b)
			}
			c.countStmts(x.Else)
		case *While:
			c.Whiles.Need++
			c.countExpr(x.Cond)
			c.countStmts(x.Body)
		case *For:
			c.Fors.Need++
			c.countExpr(x.Iter)
			c.countStmts(x.Body)
		case *Break:
			c.Breaks.Need++
		case *Continue:
			c.Continues.Need++
		case *Return:
			c.Returns.Need++
		case *Global:
			c.Globals.Need++
			c.Names.Need += len(x.Names)
		case *Clear:
			c.Clears.Need++
			c.Names.Need += len(x.Names)
		}
	}
}

func (c *cloner) expr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *NumberLit:
		return c.NumberLits.New(*x)
	case *StringLit:
		return c.StringLits.New(*x)
	case *Ident:
		return c.Idents.New(*x)
	case *Binary:
		n := c.Binaries.New(*x)
		n.L, n.R = c.expr(x.L), c.expr(x.R)
		return n
	case *Unary:
		n := c.Unaries.New(*x)
		n.X = c.expr(x.X)
		return n
	case *Transpose:
		n := c.Transposes.New(*x)
		n.X = c.expr(x.X)
		return n
	case *Range:
		n := c.Ranges.New(*x)
		n.Lo, n.Step, n.Hi = c.expr(x.Lo), c.expr(x.Step), c.expr(x.Hi)
		return n
	case *Colon:
		return c.Colons.New(*x)
	case *End:
		return c.Ends.New(*x)
	case *Call:
		n := c.Calls.New(*x)
		n.Args = c.exprList(x.Args)
		return n
	case *Matrix:
		n := c.Matrices.New(*x)
		n.Rows = c.Rows.Window(len(x.Rows))
		for i, row := range x.Rows {
			n.Rows[i] = c.exprList(row)
		}
		return n
	}
	panic("ast: clone: unknown expression")
}

func (c *cloner) exprList(list []Expr) []Expr {
	out := c.Exprs.Window(len(list))
	for i, e := range list {
		out[i] = c.expr(e)
	}
	return out
}

// stmtList clones a statement list: a nil list stays nil, and an empty
// one (an else without statements) stays empty.
func (c *cloner) stmtList(list []Stmt) []Stmt {
	out := c.Stmts.Window(len(list))
	if out == nil && list != nil {
		out = []Stmt{}
	}
	for i, s := range list {
		out[i] = c.stmt(s)
	}
	return out
}

func (c *cloner) stmtLists(lists [][]Stmt) [][]Stmt {
	out := c.Lists.Window(len(lists))
	for i, l := range lists {
		out[i] = c.stmtList(l)
	}
	return out
}

func (c *cloner) stmt(s Stmt) Stmt {
	switch x := s.(type) {
	case *ExprStmt:
		n := c.ExprStmts.New(*x)
		n.X = c.expr(x.X)
		return n
	case *Assign:
		n := c.Assigns.New(*x)
		n.LHS, n.RHS = c.exprList(x.LHS), c.expr(x.RHS)
		return n
	case *If:
		n := c.Ifs.New(*x)
		n.Conds, n.Blocks, n.Else = c.exprList(x.Conds), c.stmtLists(x.Blocks), c.stmtList(x.Else)
		return n
	case *While:
		n := c.Whiles.New(*x)
		n.Cond, n.Body = c.expr(x.Cond), c.stmtList(x.Body)
		return n
	case *For:
		n := c.Fors.New(*x)
		n.Iter, n.Body = c.expr(x.Iter), c.stmtList(x.Body)
		return n
	case *Break:
		return c.Breaks.New(*x)
	case *Continue:
		return c.Continues.New(*x)
	case *Return:
		return c.Returns.New(*x)
	case *Global:
		n := c.Globals.New(*x)
		n.Names = c.Names.Copy(x.Names)
		return n
	case *Clear:
		n := c.Clears.New(*x)
		n.Names = c.Names.Copy(x.Names)
		return n
	}
	panic("ast: clone: unknown statement")
}

// CloneStmts deep-copies a statement list into one exact array per
// kind. A copy carries what the analyses recorded on each node: its
// number and its verdict.
func CloneStmts(list []Stmt) []Stmt {
	return new(Slabs).CloneStmts(list, 1)
}

// CloneStmts copies list into s, for a builder that copies the same list
// again and again. It counts what the copy takes first, and a kind whose
// slab has less room than that gets a new array of n times the count: n
// copies take one array per kind, sized from the list rather than from
// the slab's last array.
func (s *Slabs) CloneStmts(list []Stmt, n int) []Stmt {
	var c cloner
	c.countStmts(list)
	s.reserve((*Slabs)(&c), n)
	return (*cloner)(s).stmtList(list)
}

// countFunction adds what cloning f takes.
func (c *cloner) countFunction(f *Function) {
	c.Functions.Need++
	c.Names.Need += len(f.Ins) + len(f.Outs)
	c.countStmts(f.Body)
}

func (c *cloner) function(f *Function) *Function {
	n := c.Functions.New(*f)
	n.Ins, n.Outs = c.Names.Copy(f.Ins), c.Names.Copy(f.Outs)
	n.Body = c.stmtList(f.Body)
	return n
}

// CloneFunction deep-copies a function definition.
func CloneFunction(f *Function) *Function {
	var c cloner
	c.countFunction(f)
	(*Slabs)(&c).Reset()
	return c.function(f)
}

// CloneFile deep-copies a file, its script and every function from one
// set of slabs.
func CloneFile(f *File) *File {
	var c cloner
	c.countStmts(f.Stmts)
	for _, fn := range f.Funcs {
		c.countFunction(fn)
	}
	(*Slabs)(&c).Reset()
	n := &File{P: f.P, Stmts: c.stmtList(f.Stmts)}
	if len(f.Funcs) > 0 {
		n.Funcs = make([]*Function, len(f.Funcs))
		for i, fn := range f.Funcs {
			n.Funcs[i] = c.function(fn)
		}
	}
	return n
}
