package ast

// Slab hands out values of one kind, taken from one array of Need values
// made by Alloc. A list it hands out is a window whose capacity is its
// length, so an append to the list copies instead of writing over its
// neighbour in the slab. Once the array is spent, the slab allocates each
// value on its own: a short count costs allocations, never a shared value.
type Slab[T any] struct {
	Need int // what a count found
	free []T
}

// Alloc makes the array of Need values.
func (s *Slab[T]) Alloc() {
	if s.Need > 0 {
		s.free = make([]T, s.Need)
	}
}

// New takes one value, set to v.
func (s *Slab[T]) New(v T) *T {
	if len(s.free) == 0 {
		p := new(T)
		*p = v
		return p
	}
	p := &s.free[0]
	*p = v
	s.free = s.free[1:]
	return p
}

// Window takes n values as a list of capacity n; it is nil when n is 0.
func (s *Slab[T]) Window(n int) []T {
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

// Copy takes a window holding list's values; it is nil when list is
// empty.
func (s *Slab[T]) Copy(list []T) []T {
	w := s.Window(len(list))
	copy(w, list)
	return w
}

// Slabs holds one slab per kind of node and per kind of list: what a
// tree is built from when it is built per kind rather than per node.
type Slabs struct {
	NumberLits Slab[NumberLit]
	StringLits Slab[StringLit]
	Idents     Slab[Ident]
	Binaries   Slab[Binary]
	Unaries    Slab[Unary]
	Transposes Slab[Transpose]
	Ranges     Slab[Range]
	Colons     Slab[Colon]
	Ends       Slab[End]
	Calls      Slab[Call]
	Matrices   Slab[Matrix]

	ExprStmts Slab[ExprStmt]
	Assigns   Slab[Assign]
	Ifs       Slab[If]
	Whiles    Slab[While]
	Fors      Slab[For]
	Switches  Slab[Switch]
	Breaks    Slab[Break]
	Continues Slab[Continue]
	Returns   Slab[Return]
	Globals   Slab[Global]
	Clears    Slab[Clear]
	Functions Slab[Function]

	Exprs Slab[Expr]   // Call.Args, Assign.LHS, If.Conds, Switch.CaseVals, matrix rows
	Stmts Slab[Stmt]   // statement lists
	Lists Slab[[]Stmt] // If.Blocks, Switch.CaseBlks
	Rows  Slab[[]Expr] // Matrix.Rows
	Names Slab[string] // Function.Ins and Outs, Global and Clear names
}

// Alloc makes every slab's array.
func (s *Slabs) Alloc() {
	s.NumberLits.Alloc()
	s.StringLits.Alloc()
	s.Idents.Alloc()
	s.Binaries.Alloc()
	s.Unaries.Alloc()
	s.Transposes.Alloc()
	s.Ranges.Alloc()
	s.Colons.Alloc()
	s.Ends.Alloc()
	s.Calls.Alloc()
	s.Matrices.Alloc()
	s.ExprStmts.Alloc()
	s.Assigns.Alloc()
	s.Ifs.Alloc()
	s.Whiles.Alloc()
	s.Fors.Alloc()
	s.Switches.Alloc()
	s.Breaks.Alloc()
	s.Continues.Alloc()
	s.Returns.Alloc()
	s.Globals.Alloc()
	s.Clears.Alloc()
	s.Functions.Alloc()
	s.Exprs.Alloc()
	s.Stmts.Alloc()
	s.Lists.Alloc()
	s.Rows.Alloc()
	s.Names.Alloc()
}
