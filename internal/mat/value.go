// Package mat implements the runtime value system of the MaJIC
// reproduction: two-dimensional, column-major MATLAB matrices with the
// intrinsic kinds bool, int, real, complex and char, together with the
// polymorphic generic operator library that interpreted and unspecialized
// ("mcc"-tier) code dispatches through.
//
// The package plays the role of the MATLAB C library (mxArray plus the
// mlf* operator functions) in the original system: every operation checks
// kinds and shapes dynamically, boxes its result, and implements MATLAB's
// resize-on-store semantics, including the ~10% oversizing policy the
// paper describes for repeatedly growing arrays.
package mat

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Kind is the intrinsic kind of a Value. The ordering mirrors the paper's
// intrinsic lattice: bool ⊑ int ⊑ real ⊑ complex, with char (string) on a
// separate arm.
type Kind uint8

const (
	Bool Kind = iota
	Int
	Real
	Complex
	Char
)

// String returns the MATLAB-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case Bool:
		return "logical"
	case Int:
		return "int"
	case Real:
		return "double"
	case Complex:
		return "complex"
	case Char:
		return "char"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsNumeric reports whether values of the kind participate in arithmetic
// without conversion through char codes.
func (k Kind) IsNumeric() bool { return k != Char }

// Value is a two-dimensional MATLAB array. Data is stored column-major in
// re (and im for complex values). The backing slices may be longer than
// rows*cols: the extra capacity is the oversizing headroom used to make
// repeated growth cheap. All observable behaviour (Size, indexing,
// display) uses the exact rows/cols, never the oversized capacity.
//
// Char values store character codes in re, exactly as MATLAB stores char
// arrays; String() reassembles the text.
type Value struct {
	kind Kind
	rows int
	cols int
	re   []float64
	im   []float64 // non-nil iff kind == Complex
	// sp is the CSR payload of a sparse value (kind Real, re/im nil).
	// Dense code paths never see it: operators either dispatch to the
	// sparse implementations in sparse.go or densify first. sparseData
	// is immutable, so sp may be shared between values (Clone is O(1)).
	sp *sparseData
	// shared marks a value that may be reachable through more than one
	// binding (B = A, function arguments, returned values). In-place
	// mutation paths (indexed assignment) clone shared values first —
	// MATLAB's copy-on-write semantics. Accessed atomically: with the
	// async compilation service, one argument value can flow into
	// concurrent invocations, each of which marks it shared on entry.
	shared uint32
	// one is the inline element store of the scalar constructors: re
	// points at it, so a boxed scalar is one allocation instead of two.
	// The struct stays in the 96-byte size class. The array is never
	// pooled: its capacity is below the smallest pool class (see Recycle).
	one [1]float64
}

// MarkShared flags the value as reachable through multiple bindings.
func (v *Value) MarkShared() { atomic.StoreUint32(&v.shared, 1) }

// IsShared reports whether in-place mutation must copy first.
func (v *Value) IsShared() bool { return atomic.LoadUint32(&v.shared) != 0 }

// Error is the error type reported by runtime operations. It mirrors
// MATLAB's interpreter errors ("Index exceeds matrix dimensions." and
// friends) and is distinguishable from Go-level bugs.
type Error struct{ Msg string }

func (e *Error) Error() string { return e.Msg }

// Errorf builds a runtime *Error.
func Errorf(format string, args ...any) *Error {
	return &Error{Msg: fmt.Sprintf(format, args...)}
}

// --- Constructors ---------------------------------------------------------

// New returns an all-zero real matrix of the given dimensions.
func New(rows, cols int) *Value {
	if rows < 0 || cols < 0 {
		rows, cols = 0, 0
	}
	return &Value{kind: Real, rows: rows, cols: cols, re: make([]float64, rows*cols)}
}

// NewKind returns an all-zero matrix of the given kind and dimensions.
func NewKind(k Kind, rows, cols int) *Value {
	v := New(rows, cols)
	v.kind = k
	if k == Complex {
		v.im = make([]float64, rows*cols)
	}
	return v
}

// Scalar returns a 1x1 real value.
func Scalar(x float64) *Value { return scalarOf(Real, x) }

// scalarOf builds a 1x1 value of a non-complex kind on the inline store.
func scalarOf(k Kind, x float64) *Value {
	v := &Value{kind: k, rows: 1, cols: 1}
	v.one[0] = x
	v.re = v.one[:]
	return v
}

// IntScalar returns a 1x1 value of kind Int. The payload is stored as a
// float64, as MATLAB does for all numeric data; Int records the static
// knowledge that the value is integral.
func IntScalar(x float64) *Value { return scalarOf(Int, x) }

// BoolScalar returns a 1x1 logical value.
func BoolScalar(b bool) *Value {
	x := 0.0
	if b {
		x = 1.0
	}
	return scalarOf(Bool, x)
}

// ComplexScalar returns a 1x1 complex value.
func ComplexScalar(z complex128) *Value {
	return &Value{kind: Complex, rows: 1, cols: 1, re: []float64{real(z)}, im: []float64{imag(z)}}
}

// FromString returns a 1xN char row vector holding s.
func FromString(s string) *Value {
	runes := []rune(s)
	v := &Value{kind: Char, rows: 1, cols: len(runes), re: make([]float64, len(runes))}
	if len(runes) == 0 {
		v.rows = 0
	}
	for i, r := range runes {
		v.re[i] = float64(r)
	}
	return v
}

// FromSlice builds a rows x cols real matrix from row-major data (the
// natural literal order), converting to the internal column-major layout.
func FromSlice(rows, cols int, rowMajor []float64) *Value {
	if len(rowMajor) != rows*cols {
		panic(fmt.Sprintf("mat: FromSlice: %d elements for %dx%d", len(rowMajor), rows, cols))
	}
	v := New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v.re[c*rows+r] = rowMajor[r*cols+c]
		}
	}
	return v
}

// FromColMajor wraps column-major data directly (no copy).
func FromColMajor(kind Kind, rows, cols int, re, im []float64) *Value {
	if len(re) < rows*cols {
		panic("mat: FromColMajor: short data")
	}
	return &Value{kind: kind, rows: rows, cols: cols, re: re, im: im}
}

// Empty returns the 0x0 empty matrix.
func Empty() *Value { return &Value{kind: Real} }

// --- Basic accessors ------------------------------------------------------

// Kind returns the intrinsic kind.
func (v *Value) Kind() Kind { return v.kind }

// SetNumericKind stamps a non-complex kind on a non-complex value. The
// fused elementwise kernel computes its result kind by replaying the
// operator chain's promotion rules after its single loop; this lets it
// apply that kind without another pass over the data.
func (v *Value) SetNumericKind(k Kind) {
	if v.im == nil && k != Complex {
		v.kind = k
	}
}

// Rows returns the exact number of rows (never the oversized capacity).
func (v *Value) Rows() int { return v.rows }

// Cols returns the exact number of columns.
func (v *Value) Cols() int { return v.cols }

// Numel returns rows*cols.
func (v *Value) Numel() int { return v.rows * v.cols }

// IsEmpty reports whether the value has no elements.
func (v *Value) IsEmpty() bool { return v.rows == 0 || v.cols == 0 }

// IsScalar reports whether the value is 1x1.
func (v *Value) IsScalar() bool { return v.rows == 1 && v.cols == 1 }

// IsVector reports whether the value is 1xN or Nx1 with N >= 1.
func (v *Value) IsVector() bool {
	return (v.rows == 1 && v.cols >= 1) || (v.cols == 1 && v.rows >= 1)
}

// Re returns the real payload, exactly rows*cols elements, column-major.
// The returned slice aliases the value. Sparse values have no dense
// payload; reaching here with one means a densify guard is missing.
func (v *Value) Re() []float64 {
	if v.sp != nil {
		panic("mat: Re() on a sparse value (missing densify guard)")
	}
	return v.re[:v.rows*v.cols]
}

// Im returns the imaginary payload (nil for non-complex values).
func (v *Value) Im() []float64 {
	if v.im == nil {
		return nil
	}
	return v.im[:v.rows*v.cols]
}

// Cap returns the allocated capacity in elements; used by tests to verify
// the oversizing policy. Observable semantics never depend on it.
func (v *Value) Cap() int { return len(v.re) }

// Scalar returns the value of a 1x1 numeric matrix as a float64 (real
// part) and reports an error otherwise.
func (v *Value) Scalar() (float64, error) {
	if !v.IsScalar() {
		return 0, Errorf("expected a scalar, got %dx%d", v.rows, v.cols)
	}
	if v.sp != nil {
		return v.sp.linear(0), nil
	}
	return v.re[0], nil
}

// MustScalar is Scalar for contexts where the shape was already checked.
func (v *Value) MustScalar() float64 {
	if v.sp != nil {
		return v.sp.linear(0)
	}
	return v.re[0]
}

// ComplexAt returns element i (0-based linear) as a complex128.
func (v *Value) ComplexAt(i int) complex128 {
	if v.im != nil {
		return complex(v.re[i], v.im[i])
	}
	return complex(v.re[i], 0)
}

// At returns the real part of the 0-based (r,c) element. Sparse values
// answer by binary search in the row.
func (v *Value) At(r, c int) float64 {
	if v.sp != nil {
		return v.sp.at(r, c)
	}
	return v.re[c*v.rows+r]
}

// SetAt stores x at the 0-based (r,c) element (real part).
func (v *Value) SetAt(r, c int, x float64) { v.re[c*v.rows+r] = x }

// ImAt returns the imaginary part of the 0-based (r,c) element.
func (v *Value) ImAt(r, c int) float64 {
	if v.im == nil {
		return 0
	}
	return v.im[c*v.rows+r]
}

// String renders the value for display; char values render as text.
func (v *Value) String() string {
	if v.kind == Char {
		return v.Text()
	}
	if v.sp != nil {
		return v.sparseString()
	}
	if v.IsEmpty() {
		return "[]"
	}
	if v.IsScalar() {
		return formatElem(v.re[0], v.imAtOrZero(0), v.kind)
	}
	var b strings.Builder
	for r := 0; r < v.rows; r++ {
		if r > 0 {
			b.WriteByte('\n')
		}
		for c := 0; c < v.cols; c++ {
			if c > 0 {
				b.WriteString("  ")
			}
			b.WriteString(formatElem(v.At(r, c), v.ImAt(r, c), v.kind))
		}
	}
	return b.String()
}

func (v *Value) imAtOrZero(i int) float64 {
	if v.im == nil {
		return 0
	}
	return v.im[i]
}

func formatElem(re, im float64, k Kind) string {
	if k == Complex {
		if im >= 0 {
			return fmt.Sprintf("%g+%gi", re, im)
		}
		return fmt.Sprintf("%g-%gi", re, -im)
	}
	return fmt.Sprintf("%g", re)
}

// Text returns the character content of a char value.
func (v *Value) Text() string {
	var b strings.Builder
	for r := 0; r < v.rows; r++ {
		if r > 0 {
			b.WriteByte('\n')
		}
		for c := 0; c < v.cols; c++ {
			b.WriteRune(rune(v.At(r, c)))
		}
	}
	return b.String()
}

// Clone returns a deep copy (call-by-value semantics for function calls).
// Sparse payloads are immutable, so a sparse clone shares sp — O(1).
func (v *Value) Clone() *Value {
	if v.sp != nil {
		return &Value{kind: v.kind, rows: v.rows, cols: v.cols, sp: v.sp}
	}
	n := v.rows * v.cols
	if n == 1 && v.im == nil {
		return scalarOf(v.kind, v.re[0])
	}
	out := &Value{kind: v.kind, rows: v.rows, cols: v.cols, re: make([]float64, n)}
	copy(out.re, v.re[:n])
	if v.im != nil {
		out.im = make([]float64, n)
		copy(out.im, v.im[:n])
	}
	return out
}

// IsTrue implements MATLAB truthiness: non-empty and all elements nonzero
// (for complex values, nonzero modulus).
func (v *Value) IsTrue() bool {
	n := v.rows * v.cols
	if n == 0 {
		return false
	}
	if v.sp != nil {
		if len(v.sp.val) < n {
			return false // at least one implicit zero
		}
		for _, x := range v.sp.val {
			if x == 0 {
				return false
			}
		}
		return true
	}
	for i := 0; i < n; i++ {
		if v.re[i] == 0 && (v.im == nil || v.im[i] == 0) {
			return false
		}
	}
	return true
}

// ToComplex returns a value of kind Complex with the same content. If v is
// already complex it is returned unchanged.
func (v *Value) ToComplex() *Value {
	if v.kind == Complex {
		return v
	}
	n := v.rows * v.cols
	out := &Value{kind: Complex, rows: v.rows, cols: v.cols, re: make([]float64, n), im: make([]float64, n)}
	copy(out.re, v.re[:n])
	return out
}

// Demote returns v with the cheapest kind that represents its content: a
// complex value with an all-zero imaginary part demotes to Real, and a
// Real value does not silently demote further (matching MATLAB, which
// keeps doubles as doubles). MATLAB demotes complex results with zero
// imaginary part in most elementwise operations.
func (v *Value) Demote() *Value {
	if v.kind != Complex {
		return v
	}
	for _, x := range v.Im() {
		if x != 0 {
			return v
		}
	}
	out := &Value{kind: Real, rows: v.rows, cols: v.cols, re: v.re}
	return out
}

// SameShape reports whether a and b have identical dimensions.
func SameShape(a, b *Value) bool { return a.rows == b.rows && a.cols == b.cols }

// PromoteKind returns the common arithmetic kind of two operands: char
// promotes to real (MATLAB arithmetic on chars uses their codes), and the
// numeric kinds follow the lattice order.
func PromoteKind(a, b Kind) Kind {
	ak, bk := a, b
	if ak == Char {
		ak = Real
	}
	if bk == Char {
		bk = Real
	}
	if ak < bk {
		return bk
	}
	return ak
}
