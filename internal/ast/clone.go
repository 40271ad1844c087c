package ast

// A clone allocates per kind of node rather than per node: it counts the
// tree first, then takes every node, and the backing of every list, from
// a slab of exactly that many. Each list it hands out is a window whose
// capacity is its length, so an append to a cloned list copies instead of
// writing over its neighbour in the slab. Should a count fall short, the
// slab allocates: a wrong count costs allocations, never a shared node.

// slab hands out values of one kind, taken from one exactly sized array.
type slab[T any] struct {
	need int // what the count found
	free []T
}

func (s *slab[T]) alloc() {
	if s.need > 0 {
		s.free = make([]T, s.need)
	}
}

// node takes one value, or allocates one when the slab is spent.
func (s *slab[T]) node() *T {
	if len(s.free) == 0 {
		return new(T)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}

// window takes n values as a list of capacity n; it is nil when n is 0.
func (s *slab[T]) window(n int) []T {
	switch {
	case n == 0:
		return nil
	case len(s.free) < n:
		return make([]T, n)
	}
	w := s.free[:n:n]
	s.free = s.free[n:]
	return w
}

// cloner holds one slab per node kind and per kind of list.
type cloner struct {
	nums       slab[NumberLit]
	strs       slab[StringLit]
	idents     slab[Ident]
	binaries   slab[Binary]
	unaries    slab[Unary]
	transposes slab[Transpose]
	ranges     slab[Range]
	colons     slab[Colon]
	ends       slab[End]
	calls      slab[Call]
	matrices   slab[Matrix]

	exprStmts slab[ExprStmt]
	assigns   slab[Assign]
	ifs       slab[If]
	whiles    slab[While]
	fors      slab[For]
	switches  slab[Switch]
	breaks    slab[Break]
	continues slab[Continue]
	returns   slab[Return]
	globals   slab[Global]
	clears    slab[Clear]

	exprs slab[Expr]   // Call.Args, Assign.LHS, If.Conds, Switch.CaseVals, matrix rows
	stmts slab[Stmt]   // statement lists
	lists slab[[]Stmt] // If.Blocks, Switch.CaseBlks
	rows  slab[[]Expr] // Matrix.Rows
	names slab[string] // Function.Ins and Outs, Global and Clear names
}

func (c *cloner) alloc() {
	c.nums.alloc()
	c.strs.alloc()
	c.idents.alloc()
	c.binaries.alloc()
	c.unaries.alloc()
	c.transposes.alloc()
	c.ranges.alloc()
	c.colons.alloc()
	c.ends.alloc()
	c.calls.alloc()
	c.matrices.alloc()
	c.exprStmts.alloc()
	c.assigns.alloc()
	c.ifs.alloc()
	c.whiles.alloc()
	c.fors.alloc()
	c.switches.alloc()
	c.breaks.alloc()
	c.continues.alloc()
	c.returns.alloc()
	c.globals.alloc()
	c.clears.alloc()
	c.exprs.alloc()
	c.stmts.alloc()
	c.lists.alloc()
	c.rows.alloc()
	c.names.alloc()
}

// countExpr adds what cloning e takes to the slabs' needs.
func (c *cloner) countExpr(e Expr) {
	switch x := e.(type) {
	case *NumberLit:
		c.nums.need++
	case *StringLit:
		c.strs.need++
	case *Ident:
		c.idents.need++
	case *Binary:
		c.binaries.need++
		c.countExpr(x.L)
		c.countExpr(x.R)
	case *Unary:
		c.unaries.need++
		c.countExpr(x.X)
	case *Transpose:
		c.transposes.need++
		c.countExpr(x.X)
	case *Range:
		c.ranges.need++
		c.countExpr(x.Lo)
		c.countExpr(x.Step)
		c.countExpr(x.Hi)
	case *Colon:
		c.colons.need++
	case *End:
		c.ends.need++
	case *Call:
		c.calls.need++
		c.countExprs(x.Args)
	case *Matrix:
		c.matrices.need++
		c.rows.need += len(x.Rows)
		for _, row := range x.Rows {
			c.countExprs(row)
		}
	}
}

func (c *cloner) countExprs(list []Expr) {
	c.exprs.need += len(list)
	for _, e := range list {
		c.countExpr(e)
	}
}

// countStmts adds what cloning list takes, its own backing included.
func (c *cloner) countStmts(list []Stmt) {
	c.stmts.need += len(list)
	for _, s := range list {
		switch x := s.(type) {
		case *ExprStmt:
			c.exprStmts.need++
			c.countExpr(x.X)
		case *Assign:
			c.assigns.need++
			c.countExprs(x.LHS)
			c.countExpr(x.RHS)
		case *If:
			c.ifs.need++
			c.countExprs(x.Conds)
			c.lists.need += len(x.Blocks)
			for _, b := range x.Blocks {
				c.countStmts(b)
			}
			c.countStmts(x.Else)
		case *While:
			c.whiles.need++
			c.countExpr(x.Cond)
			c.countStmts(x.Body)
		case *For:
			c.fors.need++
			c.countExpr(x.Iter)
			c.countStmts(x.Body)
		case *Switch:
			c.switches.need++
			c.countExpr(x.Subject)
			c.countExprs(x.CaseVals)
			c.lists.need += len(x.CaseBlks)
			for _, b := range x.CaseBlks {
				c.countStmts(b)
			}
			c.countStmts(x.Otherwise)
		case *Break:
			c.breaks.need++
		case *Continue:
			c.continues.need++
		case *Return:
			c.returns.need++
		case *Global:
			c.globals.need++
			c.names.need += len(x.Names)
		case *Clear:
			c.clears.need++
			c.names.need += len(x.Names)
		}
	}
}

// take copies *x into a node of s.
func take[T any](s *slab[T], x *T) *T {
	n := s.node()
	*n = *x
	return n
}

func (c *cloner) expr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *NumberLit:
		return take(&c.nums, x)
	case *StringLit:
		return take(&c.strs, x)
	case *Ident:
		return take(&c.idents, x)
	case *Binary:
		n := take(&c.binaries, x)
		n.L, n.R = c.expr(x.L), c.expr(x.R)
		return n
	case *Unary:
		n := take(&c.unaries, x)
		n.X = c.expr(x.X)
		return n
	case *Transpose:
		n := take(&c.transposes, x)
		n.X = c.expr(x.X)
		return n
	case *Range:
		n := take(&c.ranges, x)
		n.Lo, n.Step, n.Hi = c.expr(x.Lo), c.expr(x.Step), c.expr(x.Hi)
		return n
	case *Colon:
		return take(&c.colons, x)
	case *End:
		return take(&c.ends, x)
	case *Call:
		n := take(&c.calls, x)
		n.Args = c.exprList(x.Args)
		return n
	case *Matrix:
		n := take(&c.matrices, x)
		n.Rows = c.rows.window(len(x.Rows))
		for i, row := range x.Rows {
			n.Rows[i] = c.exprList(row)
		}
		return n
	}
	panic("ast: clone: unknown expression")
}

func (c *cloner) exprList(list []Expr) []Expr {
	out := c.exprs.window(len(list))
	for i, e := range list {
		out[i] = c.expr(e)
	}
	return out
}

func (c *cloner) nameList(list []string) []string {
	out := c.names.window(len(list))
	copy(out, list)
	return out
}

// stmtList clones a statement list; the copy is never nil.
func (c *cloner) stmtList(list []Stmt) []Stmt {
	out := c.stmts.window(len(list))
	if out == nil {
		out = []Stmt{}
	}
	for i, s := range list {
		out[i] = c.stmt(s)
	}
	return out
}

func (c *cloner) stmtLists(lists [][]Stmt) [][]Stmt {
	out := c.lists.window(len(lists))
	for i, l := range lists {
		out[i] = c.stmtList(l)
	}
	return out
}

func (c *cloner) stmt(s Stmt) Stmt {
	switch x := s.(type) {
	case *ExprStmt:
		n := take(&c.exprStmts, x)
		n.X = c.expr(x.X)
		return n
	case *Assign:
		n := take(&c.assigns, x)
		n.LHS, n.RHS = c.exprList(x.LHS), c.expr(x.RHS)
		return n
	case *If:
		n := take(&c.ifs, x)
		n.Conds, n.Blocks = c.exprList(x.Conds), c.stmtLists(x.Blocks)
		if x.Else != nil { // an absent else stays absent
			n.Else = c.stmtList(x.Else)
		}
		return n
	case *While:
		n := take(&c.whiles, x)
		n.Cond, n.Body = c.expr(x.Cond), c.stmtList(x.Body)
		return n
	case *For:
		n := take(&c.fors, x)
		n.Iter, n.Body = c.expr(x.Iter), c.stmtList(x.Body)
		return n
	case *Switch:
		n := take(&c.switches, x)
		n.Subject, n.CaseVals = c.expr(x.Subject), c.exprList(x.CaseVals)
		n.CaseBlks = c.stmtLists(x.CaseBlks)
		if x.Otherwise != nil {
			n.Otherwise = c.stmtList(x.Otherwise)
		}
		return n
	case *Break:
		return take(&c.breaks, x)
	case *Continue:
		return take(&c.continues, x)
	case *Return:
		return take(&c.returns, x)
	case *Global:
		n := take(&c.globals, x)
		n.Names = c.nameList(x.Names)
		return n
	case *Clear:
		n := take(&c.clears, x)
		n.Names = c.nameList(x.Names)
		return n
	}
	panic("ast: clone: unknown statement")
}

// CloneExpr returns a deep copy of an expression tree. A copy carries
// what the analyses recorded on each node: its number and its verdict.
func CloneExpr(e Expr) Expr {
	var c cloner
	c.countExpr(e)
	c.alloc()
	return c.expr(e)
}

// CloneStmts deep-copies a statement list.
func CloneStmts(list []Stmt) []Stmt {
	var c cloner
	c.countStmts(list)
	c.alloc()
	return c.stmtList(list)
}

// CloneFunction deep-copies a function definition.
func CloneFunction(f *Function) *Function {
	var c cloner
	c.names.need = len(f.Ins) + len(f.Outs)
	c.countStmts(f.Body)
	c.alloc()
	n := *f
	n.Ins, n.Outs = c.nameList(f.Ins), c.nameList(f.Outs)
	n.Body = c.stmtList(f.Body)
	return &n
}
