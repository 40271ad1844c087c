package mat

import (
	"math"
	"math/cmplx"
	"sync/atomic"

	"repro/internal/blas"
	"repro/internal/parallel"
)

// This file implements the polymorphic generic operators — the analog of
// the mlfPlus/mlfTimes/... functions of the MATLAB C library that the
// paper's unoptimized code falls back to. Every operator dispatches on
// kinds and shapes at runtime and allocates a boxed result.

// BinKind classifies the scalar/matrix combination of a binary op.
func binShape(a, b *Value) (rows, cols int, err error) {
	switch {
	case a.IsScalar():
		return b.rows, b.cols, nil
	case b.IsScalar():
		return a.rows, a.cols, nil
	case SameShape(a, b):
		return a.rows, a.cols, nil
	default:
		return 0, 0, Errorf("matrix dimensions must agree: %dx%d vs %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
}

// elemGrain is the minimum per-chunk element count for parallel
// elementwise loops; results no larger run inline on the caller.
const elemGrain = 1 << 14

// elementwise applies fr (real) or fc (complex) pointwise with scalar
// broadcasting. Each output element depends only on its own index, so
// the loops chunk-parallelize over disjoint ranges with byte-identical
// results for every thread count; the integrality scan AND-merges
// per-chunk flags (order-independent). The real result may be built in
// one of d's donors, an operand included: element i is read before it
// is written and the real loop never gives up half-way.
func elementwise(d Donors, a, b *Value, fr func(x, y float64) float64, fc func(x, y complex128) complex128) (*Value, error) {
	if a.rows*a.cols == 1 && b.rows*b.cols == 1 && a.im == nil && b.im == nil && a.sp == nil && b.sp == nil {
		// Scalar∘scalar: the interpreter's and the boxed tiers' most common
		// operator call. Same arithmetic and kind rule as the loops below,
		// without their dispatch or result buffer.
		z := fr(a.re[0], b.re[0])
		k := PromoteKind(a.kind, b.kind)
		if (k == Int || k == Bool) && z == math.Trunc(z) && !math.IsInf(z, 0) {
			return scalarOf(Int, z), nil
		}
		return scalarOf(Real, z), nil
	}
	if a.sp != nil || b.sp != nil {
		// Defensive: sparse-capable operators dispatch before reaching
		// here; anything else works on densified copies, which are not the
		// operands d.Consumed speaks of.
		var derr error
		if a, b, derr = dense2(a, b); derr != nil {
			return nil, derr
		}
		d.Consumed = 0
	}
	rows, cols, err := binShape(a, b)
	if err != nil {
		return nil, err
	}
	// Shapes and kinds are final here: a donor's own are rewritten below.
	k := PromoteKind(a.kind, b.kind)
	n := rows * cols
	if k == Complex {
		return elementwiseComplex(a, b, rows, cols, fc), nil
	}
	// int-preserving ops stay integral when inputs are; callers that
	// need exactness (e.g. plus on ints) keep Int kind. Integrality is
	// tracked inside the main loop rather than by re-scanning the
	// finished result.
	track := k == Int || k == Bool
	out := d.NewReal(rows, cols, true, a, b)
	var allInt bool
	if n <= elemGrain || parallel.DefaultThreads() == 1 {
		allInt = elementwiseRange(out.re, a, b, fr, 0, n, track)
	} else {
		allInt = elementwiseParallel(out.re, a, b, fr, n, track)
	}
	if track && allInt {
		out.kind = Int
	}
	return out, nil
}

// elementwiseRange computes elements [lo, hi) of a real elementwise
// result into o and, when track is set, reports whether all of them are
// integral.
func elementwiseRange(o []float64, a, b *Value, fr func(x, y float64) float64, lo, hi int, track bool) bool {
	if !track {
		for i := lo; i < hi; i++ {
			o[i] = fr(bcastR(a, i), bcastR(b, i))
		}
		return true
	}
	allInt := true
	for i := lo; i < hi; i++ {
		z := fr(bcastR(a, i), bcastR(b, i))
		o[i] = z
		if z != math.Trunc(z) || math.IsInf(z, 0) {
			allInt = false
		}
	}
	return allInt
}

// elementwiseParallel is the large-result path, apart from elementwise
// so that only calls which do fan out pay for the escaping closure.
func elementwiseParallel(o []float64, a, b *Value, fr func(x, y float64) float64, n int, track bool) bool {
	var notInt atomic.Bool
	parallel.For(0, n, elemGrain, func(lo, hi int) {
		if !elementwiseRange(o, a, b, fr, lo, hi, track) {
			notInt.Store(true)
		}
	})
	return !notInt.Load()
}

func elementwiseComplex(a, b *Value, rows, cols int, fc func(x, y complex128) complex128) *Value {
	out := NewKind(Complex, rows, cols)
	parallel.For(0, rows*cols, elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			z := fc(bcastC(a, i), bcastC(b, i))
			out.re[i] = real(z)
			out.im[i] = imag(z)
		}
	})
	return out.Demote()
}

func bcastR(v *Value, i int) float64 {
	if v.rows*v.cols == 1 {
		return v.re[0]
	}
	return v.re[i]
}

func bcastC(v *Value, i int) complex128 {
	if v.rows*v.cols == 1 {
		return v.ComplexAt(0)
	}
	return v.ComplexAt(i)
}

func addR(x, y float64) float64       { return x + y }
func addC(x, y complex128) complex128 { return x + y }
func subR(x, y float64) float64       { return x - y }
func subC(x, y complex128) complex128 { return x - y }
func mulR(x, y float64) float64       { return x * y }
func mulC(x, y complex128) complex128 { return x * y }
func divR(x, y float64) float64       { return x / y }
func divC(x, y complex128) complex128 { return x / y }

// The arithmetic operators come in two spellings: the package-level
// functions (no donors — the interpreter's and the library's own calls)
// and the methods on Donors that compiled code calls.

// Add implements a+b.
func Add(a, b *Value) (*Value, error) { return Donors{}.Add(a, b) }

// Add implements a+b, building a dense real result in a donor.
func (d Donors) Add(a, b *Value) (*Value, error) {
	if a.sp != nil || b.sp != nil {
		return sparseAddSub(d, a, b, false)
	}
	return elementwise(d, a, b, addR, addC)
}

// Sub implements a-b.
func Sub(a, b *Value) (*Value, error) { return Donors{}.Sub(a, b) }

// Sub implements a-b, building a dense real result in a donor.
func (d Donors) Sub(a, b *Value) (*Value, error) {
	if a.sp != nil || b.sp != nil {
		return sparseAddSub(d, a, b, true)
	}
	return elementwise(d, a, b, subR, subC)
}

// ElemMul implements a.*b.
func ElemMul(a, b *Value) (*Value, error) { return Donors{}.ElemMul(a, b) }

// ElemMul implements a.*b, building a dense real result in a donor.
func (d Donors) ElemMul(a, b *Value) (*Value, error) {
	if a.sp != nil || b.sp != nil {
		return sparseElemMul(a, b)
	}
	return elementwise(d, a, b, mulR, mulC)
}

// ElemDiv implements a./b.
func ElemDiv(a, b *Value) (*Value, error) { return Donors{}.ElemDiv(a, b) }

// ElemDiv implements a./b, building a dense real result in a donor.
func (d Donors) ElemDiv(a, b *Value) (*Value, error) {
	if a.sp != nil || b.sp != nil {
		return sparseElemDiv(a, b)
	}
	return elementwise(d, a, b, divR, divC)
}

// ElemLDiv implements a.\b.
func ElemLDiv(a, b *Value) (*Value, error) { return ElemDiv(b, a) }

// ElemLDiv implements a.\b, building a dense real result in a donor.
func (d Donors) ElemLDiv(a, b *Value) (*Value, error) { return d.swapped().ElemDiv(b, a) }

// Neg implements -a.
func Neg(a *Value) (*Value, error) { return Donors{}.Neg(a) }

// Neg implements -a, building a dense real result in a donor.
func (d Donors) Neg(a *Value) (*Value, error) {
	if a.sp != nil {
		return sparseNeg(a)
	}
	n := a.rows * a.cols
	if a.kind == Complex {
		out := NewKind(Complex, a.rows, a.cols)
		for i := 0; i < n; i++ {
			out.re[i] = -a.re[i]
			out.im[i] = -a.im[i]
		}
		return out, nil
	}
	k := a.numKind() // before a becomes the result
	if n == 1 {
		return scalarOf(k, -a.re[0]), nil
	}
	out := d.NewReal(a.rows, a.cols, true, a)
	for i, x := range a.re[:n] {
		out.re[i] = -x
	}
	out.kind = k
	return out, nil
}

func (v *Value) numKind() Kind {
	if v.kind == Char || v.kind == Bool {
		return Real
	}
	return v.kind
}

// UPlus implements +a (numeric identity; converts char/bool to double).
// The result is a fresh value so callers can mutate it freely.
func UPlus(a *Value) (*Value, error) {
	out := a.Clone()
	if a.kind == Char || a.kind == Bool {
		out.kind = Real
	}
	return out, nil
}

// Mul implements the matrix product a*b, with scalar broadcasting when
// either operand is 1x1. Inner dimensions must agree otherwise.
func Mul(a, b *Value) (*Value, error) { return Donors{}.Mul(a, b) }

// Mul implements a*b, building a dense real result in a donor. A true
// product reads its operands throughout, so it takes d.Dst only.
func (d Donors) Mul(a, b *Value) (*Value, error) {
	if a.sp != nil || b.sp != nil {
		return sparseMul(d, a, b)
	}
	if a.IsScalar() || b.IsScalar() {
		return d.ElemMul(a, b)
	}
	if a.cols != b.rows {
		return nil, Errorf("inner matrix dimensions must agree: %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	if a.kind == Complex || b.kind == Complex {
		ac, bc := a.ToComplex(), b.ToComplex()
		out := NewKind(Complex, a.rows, b.cols)
		// No bkj == 0 quick-skip: 0*NaN and 0*Inf contributions from A
		// must reach the result (IEEE semantics), as in blas.Dgemm.
		for j := 0; j < b.cols; j++ {
			for k := 0; k < a.cols; k++ {
				bkj := complex(bc.re[j*b.rows+k], bc.im[j*b.rows+k])
				for i := 0; i < a.rows; i++ {
					z := complex(ac.re[k*a.rows+i], ac.im[k*a.rows+i]) * bkj
					out.re[j*a.rows+i] += real(z)
					out.im[j*a.rows+i] += imag(z)
				}
			}
		}
		return out.Demote(), nil
	}
	// The real product runs on the blocked, parallel dgemm. beta == 0
	// stores, so the uninitialized (possibly donated) result buffer is
	// never read.
	m, n := a.rows, b.cols
	out := d.NewReal(m, n, false, a, b)
	blas.Dgemm(m, n, a.cols, 1, a.re, m, b.re, b.rows, 0, out.re, m)
	return out, nil
}

// Div implements a/b (mrdivide). Scalar b reduces to elementwise; the
// general case solves x*b = a via transposition: a/b = (b' \ a')'.
func Div(a, b *Value, solve func(A, B *Value) (*Value, error)) (*Value, error) {
	return Donors{}.Div(a, b, solve)
}

// Div implements a/b; the scalar-divisor case may build its result in
// a donor.
func (d Donors) Div(a, b *Value, solve func(A, B *Value) (*Value, error)) (*Value, error) {
	if b.IsScalar() {
		return d.ElemDiv(a, b)
	}
	bt, err := Transpose(b)
	if err != nil {
		return nil, err
	}
	at, err := Transpose(a)
	if err != nil {
		return nil, err
	}
	xt, err := solve(bt, at)
	if err != nil {
		return nil, err
	}
	return Transpose(xt)
}

// Pow implements a^b for the cases MaJIC handles: scalar^scalar (complex
// result when needed), matrix^integer-scalar (repeated squaring), and
// scalar^matrix is rejected.
func Pow(a, b *Value) (*Value, error) {
	if a.sp != nil || b.sp != nil {
		var err error
		if a, b, err = dense2(a, b); err != nil {
			return nil, err
		}
	}
	if a.IsScalar() && b.IsScalar() {
		return scalarPow(a, b)
	}
	if b.IsScalar() {
		if a.rows != a.cols {
			return nil, Errorf("matrix power requires a square matrix")
		}
		p := b.re[0]
		if p != math.Trunc(p) || p < 0 {
			return nil, Errorf("matrix power supports nonnegative integer exponents only")
		}
		result, err := Eye(a.rows)
		if err != nil {
			return nil, err
		}
		base := a
		n := int(p)
		for n > 0 {
			if n&1 == 1 {
				result, err = Mul(result, base)
				if err != nil {
					return nil, err
				}
			}
			base, err = Mul(base, base)
			if err != nil {
				return nil, err
			}
			n >>= 1
		}
		return result, nil
	}
	return nil, Errorf("unsupported operands for ^")
}

func scalarPow(a, b *Value) (*Value, error) {
	if a.kind == Complex || b.kind == Complex {
		z := cmplx.Pow(a.ComplexAt(0), b.ComplexAt(0))
		return ComplexScalar(z).Demote(), nil
	}
	x, y := a.re[0], b.re[0]
	if x < 0 && y != math.Trunc(y) {
		z := cmplx.Pow(complex(x, 0), complex(y, 0))
		return ComplexScalar(z).Demote(), nil
	}
	return Scalar(math.Pow(x, y)), nil
}

// ElemPow implements a.^b.
func ElemPow(a, b *Value) (*Value, error) {
	if a.sp != nil || b.sp != nil {
		var derr error
		if a, b, derr = dense2(a, b); derr != nil {
			return nil, derr
		}
	}
	rows, cols, err := binShape(a, b)
	if err != nil {
		return nil, err
	}
	// A negative base with a fractional exponent produces complex output.
	needComplex := a.kind == Complex || b.kind == Complex
	if !needComplex {
		n := rows * cols
		for i := 0; i < n && !needComplex; i++ {
			x, y := bcastR(a, i), bcastR(b, i)
			if x < 0 && y != math.Trunc(y) {
				needComplex = true
			}
		}
	}
	if needComplex {
		out := NewKind(Complex, rows, cols)
		n := rows * cols
		for i := 0; i < n; i++ {
			z := cmplx.Pow(bcastC(a, i), bcastC(b, i))
			out.re[i] = real(z)
			out.im[i] = imag(z)
		}
		return out.Demote(), nil
	}
	return elementwise(Donors{}, a, b, math.Pow,
		func(x, y complex128) complex128 { return cmplx.Pow(x, y) })
}

// Transpose implements a' for real values and the conjugate transpose for
// complex values (MATLAB's ').
func Transpose(a *Value) (*Value, error) {
	if a.sp != nil {
		return sparseTranspose(a)
	}
	out := NewKind(a.kind, a.cols, a.rows)
	for c := 0; c < a.cols; c++ {
		for r := 0; r < a.rows; r++ {
			out.re[r*a.cols+c] = a.re[c*a.rows+r]
		}
	}
	if a.im != nil {
		for c := 0; c < a.cols; c++ {
			for r := 0; r < a.rows; r++ {
				out.im[r*a.cols+c] = -a.im[c*a.rows+r]
			}
		}
	}
	return out, nil
}

// DotTranspose implements a.' (no conjugation).
func DotTranspose(a *Value) (*Value, error) {
	out, err := Transpose(a)
	if err != nil {
		return nil, err
	}
	if out.im != nil {
		for i := range out.im {
			out.im[i] = -out.im[i]
		}
	}
	return out, nil
}

// CmpOp enumerates relational operators.
type CmpOp uint8

const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// Compare implements the relational operators, which per MATLAB (and the
// paper's speculator hint) disregard imaginary parts for ordering but use
// them for equality.
func Compare(op CmpOp, a, b *Value) (*Value, error) {
	if a.sp != nil || b.sp != nil {
		var derr error
		if a, b, derr = dense2(a, b); derr != nil {
			return nil, derr
		}
	}
	rows, cols, err := binShape(a, b)
	if err != nil {
		return nil, err
	}
	out := NewKind(Bool, rows, cols)
	n := rows * cols
	for i := 0; i < n; i++ {
		var t bool
		switch op {
		case CmpEq, CmpNe:
			eq := bcastR(a, i) == bcastR(b, i) && imOrZero(a, i) == imOrZero(b, i)
			t = eq == (op == CmpEq)
		case CmpLt:
			t = bcastR(a, i) < bcastR(b, i)
		case CmpLe:
			t = bcastR(a, i) <= bcastR(b, i)
		case CmpGt:
			t = bcastR(a, i) > bcastR(b, i)
		case CmpGe:
			t = bcastR(a, i) >= bcastR(b, i)
		}
		if t {
			out.re[i] = 1
		}
	}
	return out, nil
}

func imOrZero(v *Value, i int) float64 {
	if v.im == nil {
		return 0
	}
	if v.rows*v.cols == 1 {
		return v.im[0]
	}
	return v.im[i]
}

// And implements a&b (elementwise logical and).
func And(a, b *Value) (*Value, error) {
	return logical(a, b, func(x, y bool) bool { return x && y })
}

// Or implements a|b.
func Or(a, b *Value) (*Value, error) {
	return logical(a, b, func(x, y bool) bool { return x || y })
}

func logical(a, b *Value, f func(x, y bool) bool) (*Value, error) {
	if a.sp != nil || b.sp != nil {
		var derr error
		if a, b, derr = dense2(a, b); derr != nil {
			return nil, derr
		}
	}
	rows, cols, err := binShape(a, b)
	if err != nil {
		return nil, err
	}
	out := NewKind(Bool, rows, cols)
	n := rows * cols
	for i := 0; i < n; i++ {
		if f(truthy(a, i), truthy(b, i)) {
			out.re[i] = 1
		}
	}
	return out, nil
}

func truthy(v *Value, i int) bool {
	return bcastR(v, i) != 0 || imOrZero(v, i) != 0
}

// Not implements ~a.
func Not(a *Value) (*Value, error) {
	if a.sp != nil {
		var err error
		if a, err = a.Dense(); err != nil {
			return nil, err
		}
	}
	out := NewKind(Bool, a.rows, a.cols)
	n := a.rows * a.cols
	for i := 0; i < n; i++ {
		if !truthy(a, i) {
			out.re[i] = 1
		}
	}
	return out, nil
}

// Colon implements lo:step:hi. Per the paper's speculator discussion,
// MATLAB silently uses only the real part of the first element of each
// operand. A zero step or an empty traversal yields a 1x0 empty row.
func Colon(lo, step, hi *Value) (*Value, error) {
	for _, v := range []**Value{&lo, &step, &hi} {
		if (*v).sp != nil {
			d, err := (*v).Dense()
			if err != nil {
				return nil, err
			}
			*v = d
		}
	}
	if lo.IsEmpty() || step.IsEmpty() || hi.IsEmpty() {
		return &Value{kind: Real, rows: 1, cols: 0, re: nil}, nil
	}
	a, s, b := lo.re[0], step.re[0], hi.re[0]
	if s == 0 || (s > 0 && a > b) || (s < 0 && a < b) {
		return &Value{kind: Real, rows: 1, cols: 0, re: nil}, nil
	}
	n := int(math.Floor((b-a)/s + 1e-10)) // tolerate FP wobble at the endpoint
	if n < 0 {
		n = 0
	}
	out := New(1, n+1)
	allInt := true
	for i := 0; i <= n; i++ {
		x := a + float64(i)*s
		out.re[i] = x
		if x != math.Trunc(x) || math.IsInf(x, 0) {
			allInt = false
		}
	}
	if allInt {
		out.kind = Int
	}
	return out, nil
}

// Eye returns the n x n identity.
func Eye(n int) (*Value, error) {
	if n < 0 {
		return nil, Errorf("eye: negative dimension")
	}
	out := New(n, n)
	for i := 0; i < n; i++ {
		out.re[i*n+i] = 1
	}
	return out, nil
}

// Cat concatenates a bracket expression [rows of row-lists]. parts holds
// one slice of values per literal row. Per MATLAB, elements of a literal
// row must have equal row counts; rows must have equal total column
// counts. Empty parts are dropped.
func Cat(parts [][]*Value) (*Value, error) {
	// Build each bracket row by horizontal concatenation, then stack.
	var rows []*Value
	for _, row := range parts {
		h, err := HorzCat(row)
		if err != nil {
			return nil, err
		}
		if h.IsEmpty() && h.rows == 0 {
			continue
		}
		rows = append(rows, h)
	}
	return VertCat(rows)
}

// HorzCat concatenates values left to right. Sparse elements densify:
// concatenation results are dense (the static sparsity bit agrees).
func HorzCat(vs []*Value) (*Value, error) {
	var nonEmpty []*Value
	for _, v := range vs {
		if v.sp != nil {
			d, err := v.Dense()
			if err != nil {
				return nil, err
			}
			v = d
		}
		if !v.IsEmpty() {
			nonEmpty = append(nonEmpty, v)
		}
	}
	if len(nonEmpty) == 0 {
		return Empty(), nil
	}
	rows := nonEmpty[0].rows
	cols := 0
	kind := nonEmpty[0].kind
	for _, v := range nonEmpty {
		if v.rows != rows {
			return nil, Errorf("horizontal concatenation: row counts differ (%d vs %d)", rows, v.rows)
		}
		cols += v.cols
		kind = catKind(kind, v.kind)
	}
	out := NewKind(kind, rows, cols)
	at := 0
	for _, v := range nonEmpty {
		n := v.rows * v.cols
		copy(out.re[at:at+n], v.re[:n])
		if out.im != nil && v.im != nil {
			copy(out.im[at:at+n], v.im[:n])
		}
		at += n
	}
	return out, nil
}

// VertCat concatenates values top to bottom (sparse elements densify,
// as in HorzCat).
func VertCat(vs []*Value) (*Value, error) {
	var nonEmpty []*Value
	for _, v := range vs {
		if v.sp != nil {
			d, err := v.Dense()
			if err != nil {
				return nil, err
			}
			v = d
		}
		if !v.IsEmpty() {
			nonEmpty = append(nonEmpty, v)
		}
	}
	if len(nonEmpty) == 0 {
		return Empty(), nil
	}
	if len(nonEmpty) == 1 {
		// Copy so [x] never aliases x.
		return nonEmpty[0].Clone(), nil
	}
	cols := nonEmpty[0].cols
	rows := 0
	kind := nonEmpty[0].kind
	for _, v := range nonEmpty {
		if v.cols != cols {
			return nil, Errorf("vertical concatenation: column counts differ (%d vs %d)", cols, v.cols)
		}
		rows += v.rows
		kind = catKind(kind, v.kind)
	}
	out := NewKind(kind, rows, cols)
	rowAt := 0
	for _, v := range nonEmpty {
		for c := 0; c < cols; c++ {
			copy(out.re[c*rows+rowAt:c*rows+rowAt+v.rows], v.re[c*v.rows:(c+1)*v.rows])
			if out.im != nil && v.im != nil {
				copy(out.im[c*rows+rowAt:c*rows+rowAt+v.rows], v.im[c*v.rows:(c+1)*v.rows])
			}
		}
		rowAt += v.rows
	}
	return out, nil
}

// catKind gives concatenation's result kind: any complex → complex; char
// with numeric → char (MATLAB concatenates into char); otherwise promote.
func catKind(a, b Kind) Kind {
	if a == Complex || b == Complex {
		return Complex
	}
	if a == Char || b == Char {
		return Char
	}
	return PromoteKind(a, b)
}
