package ast

// Slab hands out values of one kind, taken from one array. A list it
// hands out is a window whose capacity is its length, so an append to
// the list copies instead of writing over its neighbour in the slab.
// Once the array is spent, the slab makes a new whole one, at least twice
// as long: a short count costs an allocation, never a shared value and
// never one per value.
type Slab[T any] struct {
	// Need is what the next Reset's array must hold: what a count
	// found, or every value handed out since the last Reset.
	Need int
	buf  []T // the newest array
	free []T // what buf has not handed out
}

// Reset readies the slab for a tree of Need values. It takes back every
// value it handed out, cleared, and makes a new array only when Need is
// more than its own: a builder that keeps its slabs between trees resets
// them, and makes no array for a tree no larger than the last.
func (s *Slab[T]) Reset() {
	if s.Need > len(s.buf) {
		s.buf = make([]T, s.Need)
	} else {
		clear(s.buf[:len(s.buf)-len(s.free)])
	}
	s.free, s.Need = s.buf, 0
}

// reserve gives the slab a new array of n times need values when it has
// less room than need.
func (s *Slab[T]) reserve(need, n int) {
	if len(s.free) < need {
		s.buf = make([]T, n*need)
		s.free = s.buf
	}
}

// take hands out n values as a window of capacity n.
func (s *Slab[T]) take(n int) []T {
	if len(s.free) < n {
		s.buf = make([]T, max(n, 2*len(s.buf)))
		s.free = s.buf
	}
	w := s.free[:n:n]
	s.free = s.free[n:]
	s.Need += n
	return w
}

// New takes one value, set to v.
func (s *Slab[T]) New(v T) *T {
	p := &s.take(1)[0]
	*p = v
	return p
}

// Window takes n values as a list of capacity n; it is nil when n is 0.
func (s *Slab[T]) Window(n int) []T {
	if n == 0 {
		return nil
	}
	return s.take(n)
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
	Breaks    Slab[Break]
	Continues Slab[Continue]
	Returns   Slab[Return]
	Globals   Slab[Global]
	Clears    Slab[Clear]
	Functions Slab[Function]

	Exprs Slab[Expr]   // Call.Args, Assign.LHS, If.Conds, matrix rows
	Stmts Slab[Stmt]   // statement lists
	Lists Slab[[]Stmt] // If.Blocks
	Rows  Slab[[]Expr] // Matrix.Rows
	Names Slab[string] // Function.Ins and Outs, Global and Clear names
}

// Reset resets every slab.
func (s *Slabs) Reset() {
	s.NumberLits.Reset()
	s.StringLits.Reset()
	s.Idents.Reset()
	s.Binaries.Reset()
	s.Unaries.Reset()
	s.Transposes.Reset()
	s.Ranges.Reset()
	s.Colons.Reset()
	s.Ends.Reset()
	s.Calls.Reset()
	s.Matrices.Reset()
	s.ExprStmts.Reset()
	s.Assigns.Reset()
	s.Ifs.Reset()
	s.Whiles.Reset()
	s.Fors.Reset()
	s.Breaks.Reset()
	s.Continues.Reset()
	s.Returns.Reset()
	s.Globals.Reset()
	s.Clears.Reset()
	s.Functions.Reset()
	s.Exprs.Reset()
	s.Stmts.Reset()
	s.Lists.Reset()
	s.Rows.Reset()
	s.Names.Reset()
}

// reserve readies every slab for n times what need counts of its kind.
func (s *Slabs) reserve(need *Slabs, n int) {
	s.NumberLits.reserve(need.NumberLits.Need, n)
	s.StringLits.reserve(need.StringLits.Need, n)
	s.Idents.reserve(need.Idents.Need, n)
	s.Binaries.reserve(need.Binaries.Need, n)
	s.Unaries.reserve(need.Unaries.Need, n)
	s.Transposes.reserve(need.Transposes.Need, n)
	s.Ranges.reserve(need.Ranges.Need, n)
	s.Colons.reserve(need.Colons.Need, n)
	s.Ends.reserve(need.Ends.Need, n)
	s.Calls.reserve(need.Calls.Need, n)
	s.Matrices.reserve(need.Matrices.Need, n)
	s.ExprStmts.reserve(need.ExprStmts.Need, n)
	s.Assigns.reserve(need.Assigns.Need, n)
	s.Ifs.reserve(need.Ifs.Need, n)
	s.Whiles.reserve(need.Whiles.Need, n)
	s.Fors.reserve(need.Fors.Need, n)
	s.Breaks.reserve(need.Breaks.Need, n)
	s.Continues.reserve(need.Continues.Need, n)
	s.Returns.reserve(need.Returns.Need, n)
	s.Globals.reserve(need.Globals.Need, n)
	s.Clears.reserve(need.Clears.Need, n)
	s.Functions.reserve(need.Functions.Need, n)
	s.Exprs.reserve(need.Exprs.Need, n)
	s.Stmts.reserve(need.Stmts.Need, n)
	s.Lists.reserve(need.Lists.Need, n)
	s.Rows.reserve(need.Rows.Need, n)
	s.Names.reserve(need.Names.Need, n)
}
