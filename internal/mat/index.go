package mat

import "math"

// This file implements MATLAB subscripting: bounds-checked reads, writes
// with resize-on-overflow, colon and vector subscripts, and the paper's
// array "oversizing" policy — on growth, about 10% extra capacity is
// allocated so that subsequent growth does not reallocate. Large arrays
// are never oversized.

// oversizeLimit is the element count above which arrays are never
// oversized (the paper: "Large arrays are never oversized").
const oversizeLimit = 1 << 20

// OversizeEnabled is the ablation switch for the paper's array
// oversizing policy. It exists for the benchmark harness (measuring the
// cost of repeated exact-size reallocation); it is process-global and
// not safe to toggle while engines are running concurrently.
var OversizeEnabled = true

// growCap returns the capacity to allocate for a requested element count.
func growCap(n int) int {
	if !OversizeEnabled || n >= oversizeLimit {
		return n
	}
	extra := n / 10
	if extra < 4 {
		extra = 4
	}
	return n + extra
}

// Subscript is one resolved subscript: either Colon (the ':' magic) or a
// list of 1-based indices. ShapeRows/ShapeCols record the shape of the
// subscript expression, which determines result orientation.
type Subscript struct {
	Colon     bool
	Idx       []int // 1-based
	ShapeRows int
	ShapeCols int
}

// ResolveSubscript converts a subscript value into index form, validating
// that every entry is a positive integer. extent is the dimension length
// used to resolve 'end' (already substituted by the caller); it is not
// used here but kept for interface symmetry.
func ResolveSubscript(v *Value) (Subscript, error) {
	if v.sp != nil {
		d, err := v.Dense()
		if err != nil {
			return Subscript{}, err
		}
		v = d
	}
	n := v.rows * v.cols
	idx := make([]int, n)
	for i := 0; i < n; i++ {
		x := v.re[i] // MATLAB silently ignores imaginary parts of subscripts
		if x != math.Trunc(x) || x < 1 || math.IsInf(x, 0) || math.IsNaN(x) {
			return Subscript{}, Errorf("subscript indices must be positive integers (got %g)", x)
		}
		idx[i] = int(x)
	}
	return Subscript{Idx: idx}, nil
}

// IndexScalar is A(s) for the common case that needs no index list:
// a dense base and one real scalar subscript that is a positive integer
// within numel(A). ok is false for everything else — errors included —
// and the caller takes ResolveSubscript and Index1.
func IndexScalar(a, s *Value) (v *Value, ok bool) {
	if a.sp != nil || s.sp != nil || s.im != nil || s.rows*s.cols != 1 {
		return nil, false
	}
	x := s.re[0]
	if !(x >= 1 && x <= float64(a.rows*a.cols)) || x != math.Trunc(x) {
		return nil, false
	}
	i := int(x) - 1
	if a.im != nil {
		return ComplexScalar(complex(a.re[i], a.im[i])), true
	}
	return scalarOf(a.kind, a.re[i]), true
}

// Index1 implements A(s) with one subscript. A colon subscript returns
// A(:) (all elements as a column). Linear indices follow column-major
// order. The shape of the result follows MATLAB: if the subscript is a
// matrix, the result has its shape; if A is a row vector and the
// subscript a vector, the result is a row vector.
func Index1(a *Value, s Subscript) (*Value, error) {
	n := a.rows * a.cols
	if s.Colon {
		if a.sp != nil {
			d, err := a.Dense()
			if err != nil {
				return nil, err
			}
			a = d
		}
		out := NewKind(a.kind, n, 1)
		copy(out.re, a.re[:n])
		if a.im != nil {
			copy(out.im, a.im[:n])
		}
		return out, nil
	}
	// MATLAB orientation rule: the result takes the subscript's shape,
	// except that a vector subscript into a vector A takes A's orientation.
	rows, cols := s.ShapeRows, s.ShapeCols
	if rows*cols != len(s.Idx) {
		rows, cols = len(s.Idx), 1
	}
	vecSub := rows == 1 || cols == 1
	if vecSub && a.rows == 1 && a.cols != 1 {
		rows, cols = 1, len(s.Idx)
	} else if vecSub && a.cols == 1 && a.rows != 1 {
		rows, cols = len(s.Idx), 1
	}
	out := NewKind(a.kind, rows, cols)
	for i, ix := range s.Idx {
		if ix > n {
			return nil, Errorf("index exceeds matrix dimensions (index %d, numel %d)", ix, n)
		}
		if a.sp != nil {
			// Per-element lookup: reads never densify a sparse operand.
			out.re[i] = a.sp.linear(ix - 1)
			continue
		}
		out.re[i] = a.re[ix-1]
		if a.im != nil {
			out.im[i] = a.im[ix-1]
		}
	}
	return out, nil
}

// Index2 implements A(r,c) with two subscripts.
func Index2(a *Value, rs, cs Subscript) (*Value, error) {
	ridx, err := expand(rs, a.rows)
	if err != nil {
		return nil, err
	}
	cidx, err := expand(cs, a.cols)
	if err != nil {
		return nil, err
	}
	for _, r := range ridx {
		if r > a.rows {
			return nil, Errorf("index exceeds matrix dimensions (row %d of %d)", r, a.rows)
		}
	}
	for _, c := range cidx {
		if c > a.cols {
			return nil, Errorf("index exceeds matrix dimensions (column %d of %d)", c, a.cols)
		}
	}
	out := NewKind(a.kind, len(ridx), len(cidx))
	for j, c := range cidx {
		for i, r := range ridx {
			if a.sp != nil {
				out.re[j*len(ridx)+i] = a.sp.at(r-1, c-1)
				continue
			}
			out.re[j*len(ridx)+i] = a.re[(c-1)*a.rows+(r-1)]
			if a.im != nil {
				out.im[j*len(ridx)+i] = a.im[(c-1)*a.rows+(r-1)]
			}
		}
	}
	return out, nil
}

func expand(s Subscript, extent int) ([]int, error) {
	if !s.Colon {
		return s.Idx, nil
	}
	idx := make([]int, extent)
	for i := range idx {
		idx[i] = i + 1
	}
	return idx, nil
}

// Assign1 implements A(s) = rhs with one subscript, growing A on index
// overflow per MATLAB semantics: a vector (or empty) A grows along its
// orientation; growing a true matrix by linear index is an error.
func Assign1(a *Value, s Subscript, rhs *Value) error {
	// Indexed stores mutate in place: a sparse destination densifies
	// first (copy-on-write has already unshared it), and a sparse rhs
	// densifies so the element copies below can read it.
	if err := a.densifyInPlace(); err != nil {
		return err
	}
	if rhs.sp != nil {
		d, err := rhs.Dense()
		if err != nil {
			return err
		}
		rhs = d
	}
	if s.Colon {
		n := a.rows * a.cols
		if rhs.IsScalar() {
			a.promoteFor(rhs)
			for i := 0; i < n; i++ {
				a.re[i] = rhs.re[0]
				if a.im != nil {
					a.im[i] = rhs.imAtOrZero(0)
				}
			}
			return nil
		}
		if rhs.rows*rhs.cols != n {
			return Errorf("A(:) = B requires numel(B) == numel(A)")
		}
		a.promoteFor(rhs)
		copy(a.re[:n], rhs.re[:n])
		if a.im != nil {
			for i := 0; i < n; i++ {
				a.im[i] = rhs.imAtOrZero(i)
			}
		}
		return nil
	}
	if !rhs.IsScalar() && rhs.rows*rhs.cols != len(s.Idx) {
		return Errorf("in an assignment A(I) = B, the number of elements in B and I must be the same")
	}
	maxIdx := 0
	for _, ix := range s.Idx {
		if ix > maxIdx {
			maxIdx = ix
		}
	}
	if maxIdx > a.rows*a.cols {
		if err := a.growLinear(maxIdx); err != nil {
			return err
		}
	}
	a.promoteFor(rhs)
	for i, ix := range s.Idx {
		if rhs.IsScalar() {
			a.re[ix-1] = rhs.re[0]
			if a.im != nil {
				a.im[ix-1] = rhs.imAtOrZero(0)
			}
		} else {
			a.re[ix-1] = rhs.re[i]
			if a.im != nil {
				a.im[ix-1] = rhs.imAtOrZero(i)
			}
		}
	}
	return nil
}

// Assign2 implements A(r,c) = rhs, growing A when subscripts exceed the
// current dimensions.
func Assign2(a *Value, rs, cs Subscript, rhs *Value) error {
	if err := a.densifyInPlace(); err != nil {
		return err
	}
	if rhs.sp != nil {
		d, err := rhs.Dense()
		if err != nil {
			return err
		}
		rhs = d
	}
	maxR, maxC := 0, 0
	ridx, err := expand(rs, a.rows)
	if err != nil {
		return err
	}
	cidx, err := expand(cs, a.cols)
	if err != nil {
		return err
	}
	for _, r := range ridx {
		if r > maxR {
			maxR = r
		}
	}
	for _, c := range cidx {
		if c > maxC {
			maxC = c
		}
	}
	if maxR > a.rows || maxC > a.cols {
		nr, nc := a.rows, a.cols
		if maxR > nr {
			nr = maxR
		}
		if maxC > nc {
			nc = maxC
		}
		a.Grow(nr, nc)
	}
	if !rhs.IsScalar() && (rhs.rows != len(ridx) || rhs.cols != len(cidx)) {
		if rhs.rows*rhs.cols == len(ridx)*len(cidx) && (len(ridx) == 1 || len(cidx) == 1) && rhs.IsVector() {
			// vector-shaped rhs assigned into a vector slice: allowed
		} else {
			return Errorf("subscripted assignment dimension mismatch")
		}
	}
	a.promoteFor(rhs)
	k := 0
	for j, c := range cidx {
		for i, r := range ridx {
			at := (c-1)*a.rows + (r - 1)
			if rhs.IsScalar() {
				a.re[at] = rhs.re[0]
				if a.im != nil {
					a.im[at] = rhs.imAtOrZero(0)
				}
			} else {
				var src int
				if rhs.rows == len(ridx) && rhs.cols == len(cidx) {
					src = j*rhs.rows + i
				} else {
					src = k
				}
				a.re[at] = rhs.re[src]
				if a.im != nil {
					a.im[at] = rhs.imAtOrZero(src)
				}
			}
			k++
		}
	}
	return nil
}

// promoteFor widens a's kind so it can store rhs without loss: storing a
// complex value into a real array converts the array; storing a real into
// an int/bool array widens it to real when needed.
func (a *Value) promoteFor(rhs *Value) {
	if rhs.kind == Complex && a.im == nil {
		a.im = make([]float64, len(a.re))
		a.kind = Complex
	}
	if a.kind == Bool || a.kind == Int {
		if rhs.kind > a.kind && rhs.kind != Char {
			a.kind = rhs.kind
		}
	}
	if a.kind == Char && rhs.kind != Char {
		a.kind = Real
	}
}

// growLinear grows a vector (or empty value) to hold n elements.
func (a *Value) growLinear(n int) error {
	switch {
	case a.IsEmpty():
		a.rows, a.cols = 1, 0
		a.Grow(1, n)
	case a.rows == 1:
		a.Grow(1, n)
	case a.cols == 1:
		a.Grow(n, 1)
	default:
		return Errorf("in an assignment A(I) = B, a matrix A cannot be resized by a linear index")
	}
	return nil
}

// Grow resizes a to nr x nc (never shrinking a dimension), preserving
// content and zero-filling new cells. This is where oversizing applies:
// when fresh storage is needed, growCap adds ~10% headroom, so a
// subsequent growth along the same column layout reuses the allocation.
// The oversized array always reports its exact dimensions.
func (a *Value) Grow(nr, nc int) {
	if nr < a.rows {
		nr = a.rows
	}
	if nc < a.cols {
		nc = a.cols
	}
	if nr == a.rows && nc == a.cols {
		return
	}
	need := nr * nc
	if nr == a.rows && len(a.re) >= need {
		// Column count grows with unchanged row count: column-major layout
		// is already compatible; just zero the new tail and extend.
		tail := a.re[a.rows*a.cols : need]
		for i := range tail {
			tail[i] = 0
		}
		if a.im != nil {
			tailIm := a.im[a.rows*a.cols : need]
			for i := range tailIm {
				tailIm[i] = 0
			}
		}
		a.cols = nc
		return
	}
	re := a.re
	im := a.im
	newRe := make([]float64, growCap(need))
	var newIm []float64
	if im != nil {
		newIm = make([]float64, growCap(need))
	}
	for c := 0; c < a.cols; c++ {
		copy(newRe[c*nr:c*nr+a.rows], re[c*a.rows:(c+1)*a.rows])
		if im != nil {
			copy(newIm[c*nr:c*nr+a.rows], im[c*a.rows:(c+1)*a.rows])
		}
	}
	// Keep the oversized headroom in the slice length so the cheap
	// grow-by-columns fast path above can reuse it without reallocating.
	a.re = newRe
	if im != nil {
		a.im = newIm
	}
	a.rows, a.cols = nr, nc
}

// FastGet1 is the unchecked linear load used by compiled code after
// subscript-check removal (0-based index, caller guarantees bounds).
func (a *Value) FastGet1(i int) float64 { return a.re[i] }

// FastSet1 is the unchecked linear store (0-based).
func (a *Value) FastSet1(i int, x float64) { a.re[i] = x }

// maxSubscript bounds a store's subscripts: past it a float64 no longer
// holds every integer, and int() of an infinite one is garbage.
const maxSubscript = 1 << 53

// CheckedGet1 is the checked linear load used by compiled code when
// subscript checks could not be removed (1-based index, validates
// integrality and bounds as MATLAB mandates).
func (a *Value) CheckedGet1(x float64) (float64, error) {
	if x != math.Trunc(x) || x < 1 {
		return 0, Errorf("subscript indices must be positive integers (got %g)", x)
	}
	if x > float64(a.rows*a.cols) { // compared as a float: past int64, int(x) is garbage
		return 0, Errorf("index exceeds matrix dimensions (index %.0f, numel %d)", x, a.rows*a.cols)
	}
	i := int(x)
	if a.sp != nil {
		return a.sp.linear(i - 1), nil
	}
	return a.re[i-1], nil
}

// CheckedGet1C is CheckedGet1's complex twin: the element with its
// imaginary part (0 when a is not complex), behind CheckedGet1's check.
func (a *Value) CheckedGet1C(x float64) (complex128, error) {
	re, err := a.CheckedGet1(x)
	if err != nil || a.im == nil {
		return complex(re, 0), err
	}
	return complex(re, a.im[int(x)-1]), nil
}

// FastGet1C is FastGet1's complex twin.
func (a *Value) FastGet1C(i int) complex128 { return a.ComplexAt(i) }

// CheckedSet1 is the checked linear store with growth semantics.
func (a *Value) CheckedSet1(x float64, val float64) error {
	if x != math.Trunc(x) || x < 1 {
		return Errorf("subscript indices must be positive integers (got %g)", x)
	}
	if x > maxSubscript {
		return Errorf("maximum variable size exceeded (index %g)", x)
	}
	if err := a.densifyInPlace(); err != nil {
		return err
	}
	i := int(x)
	if i > a.rows*a.cols {
		if err := a.growLinear(i); err != nil {
			return err
		}
	}
	a.re[i-1] = val
	return nil
}

// CheckedGet2 is the checked 2-D load (1-based subscripts).
func (a *Value) CheckedGet2(xr, xc float64) (float64, error) {
	if xr != math.Trunc(xr) || xr < 1 || xc != math.Trunc(xc) || xc < 1 {
		return 0, Errorf("subscript indices must be positive integers")
	}
	if xr > float64(a.rows) || xc > float64(a.cols) {
		return 0, Errorf("index exceeds matrix dimensions (%.0f,%.0f of %dx%d)", xr, xc, a.rows, a.cols)
	}
	r, c := int(xr), int(xc)
	if a.sp != nil {
		return a.sp.at(r-1, c-1), nil
	}
	return a.re[(c-1)*a.rows+(r-1)], nil
}

// CheckedGet2C is CheckedGet2's complex twin, behind CheckedGet2's check.
func (a *Value) CheckedGet2C(xr, xc float64) (complex128, error) {
	re, err := a.CheckedGet2(xr, xc)
	if err != nil || a.im == nil {
		return complex(re, 0), err
	}
	return complex(re, a.im[(int(xc)-1)*a.rows+int(xr)-1]), nil
}

// CheckedSet2 is the checked 2-D store with growth semantics.
func (a *Value) CheckedSet2(xr, xc float64, val float64) error {
	if xr != math.Trunc(xr) || xr < 1 || xc != math.Trunc(xc) || xc < 1 {
		return Errorf("subscript indices must be positive integers")
	}
	if xr > maxSubscript || xc > maxSubscript {
		return Errorf("maximum variable size exceeded (index %g,%g)", xr, xc)
	}
	if err := a.densifyInPlace(); err != nil {
		return err
	}
	r, c := int(xr), int(xc)
	if r > a.rows || c > a.cols {
		a.Grow(max(r, a.rows), max(c, a.cols))
	}
	a.re[(c-1)*a.rows+(r-1)] = val
	return nil
}

// The Try accessors are the common case of the checked loads and stores,
// small enough to inline into the VM's dispatch loop: an in-range
// integral subscript into a dense payload (and, for a store, one the
// caller owns, so it writes in place). They answer false wherever the
// checked form would fail, grow, densify or copy — and on a sparse load,
// which the checked form reads the slow way — and the caller then runs
// the checked form. Where they answer true they read or write the
// element the checked form would. The I forms take the subscript a
// caller would convert to float64 for the checked form.

// TryGet1 is CheckedGet1's common case.
func (a *Value) TryGet1(x float64) (float64, bool) {
	if a == nil || a.sp != nil || !(x >= 1 && x <= float64(a.rows*a.cols)) || x != float64(int(x)) {
		return 0, false
	}
	return a.re[int(x)-1], true
}

// TryGet1I is TryGet1 for an integer subscript.
func (a *Value) TryGet1I(k int64) (float64, bool) {
	if a == nil || a.sp != nil || uint64(k-1) >= uint64(a.rows*a.cols) {
		return 0, false
	}
	return a.re[k-1], true
}

// TryGet2 is CheckedGet2's common case.
func (a *Value) TryGet2(xr, xc float64) (float64, bool) {
	if a == nil || a.sp != nil || !(xr >= 1 && xr <= float64(a.rows) && xc >= 1 && xc <= float64(a.cols)) ||
		xr != float64(int(xr)) || xc != float64(int(xc)) {
		return 0, false
	}
	return a.re[(int(xc)-1)*a.rows+int(xr)-1], true
}

// TryGet2I is TryGet2 for integer subscripts.
func (a *Value) TryGet2I(r, c int64) (float64, bool) {
	if a == nil || a.sp != nil || uint64(r-1) >= uint64(a.rows) || uint64(c-1) >= uint64(a.cols) {
		return 0, false
	}
	return a.re[(c-1)*int64(a.rows)+r-1], true
}

// TrySet1 is CheckedSet1's common case on a value the caller owns.
func (a *Value) TrySet1(x, val float64) bool {
	if a == nil || a.IsShared() || a.sp != nil || !(x >= 1 && x <= float64(a.rows*a.cols)) || x != float64(int(x)) {
		return false
	}
	a.re[int(x)-1] = val
	return true
}

// TrySet1I is TrySet1 for an integer subscript.
func (a *Value) TrySet1I(k int64, val float64) bool {
	if a == nil || a.IsShared() || a.sp != nil || uint64(k-1) >= uint64(a.rows*a.cols) {
		return false
	}
	a.re[k-1] = val
	return true
}

// TrySet2 is CheckedSet2's common case on a value the caller owns.
func (a *Value) TrySet2(xr, xc, val float64) bool {
	if a == nil || a.IsShared() || a.sp != nil || !(xr >= 1 && xr <= float64(a.rows) && xc >= 1 && xc <= float64(a.cols)) ||
		xr != float64(int(xr)) || xc != float64(int(xc)) {
		return false
	}
	a.re[(int(xc)-1)*a.rows+int(xr)-1] = val
	return true
}

// TrySet2I is TrySet2 for integer subscripts.
func (a *Value) TrySet2I(r, c int64, val float64) bool {
	if a == nil || a.IsShared() || a.sp != nil || uint64(r-1) >= uint64(a.rows) || uint64(c-1) >= uint64(a.cols) {
		return false
	}
	a.re[(c-1)*int64(a.rows)+r-1] = val
	return true
}

// Owned reports whether a store may write through a in place: it is
// set and not shared.
func (a *Value) Owned() bool { return a != nil && !a.IsShared() }

// Reusable reports whether a can stand for zeros(rows, cols) without a
// new allocation: an owned dense real matrix of that shape.
func (a *Value) Reusable(rows, cols int) bool {
	return a.Owned() && a.sp == nil && a.kind == Real && a.rows == rows && a.cols == cols
}

// FastGet2 is the unchecked 2-D load (0-based).
func (a *Value) FastGet2(r, c int) float64 { return a.re[c*a.rows+r] }

// FastGet2C is FastGet2's complex twin.
func (a *Value) FastGet2C(r, c int) complex128 { return a.ComplexAt(c*a.rows + r) }

// FastSet2 is the unchecked 2-D store (0-based).
func (a *Value) FastSet2(r, c int, x float64) { a.re[c*a.rows+r] = x }
