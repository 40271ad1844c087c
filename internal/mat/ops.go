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

// elementwise applies op (real) or fc (complex) pointwise with scalar
// broadcasting. Each output element depends only on its own index, so
// the loops chunk-parallelize over disjoint ranges with byte-identical
// results for every thread count; the integrality scan AND-merges
// per-chunk flags (order-independent). The real result may be built in
// one of d's donors, an operand included: the kernels read element i
// before they write it and never give up half-way.
func elementwise(d Donors, a, b *Value, op ElemOp, fc func(x, y complex128) complex128) (*Value, error) {
	if a.rows*a.cols == 1 && b.rows*b.cols == 1 && a.im == nil && b.im == nil && a.sp == nil && b.sp == nil {
		// Scalar∘scalar: the interpreter's and the boxed tiers' most common
		// operator call. Same arithmetic and kind rule as the loops below,
		// without their dispatch or result buffer.
		z := op.Apply(a.re[0], b.re[0])
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
	// tracked block by block behind the kernel rather than by re-scanning
	// the finished result.
	track := k == Int || k == Bool
	out := d.NewReal(rows, cols, true, a, b)
	var allInt bool
	if n <= elemGrain || parallel.DefaultThreads() == 1 {
		allInt = elementwiseRange(op, out.re, a, b, 0, n, track)
	} else {
		allInt = elementwiseParallel(op, out.re, a, b, n, track)
	}
	if track && allInt {
		out.kind = Int
	}
	return out, nil
}

// elementwiseRange computes elements [lo, hi) of a real elementwise
// result into o — one kernel dispatch for the whole range — and, when
// track is set, reports whether all of them are integral: each
// KernelBlock is scanned while it is in L1, until one is not.
func elementwiseRange(op ElemOp, o []float64, a, b *Value, lo, hi int, track bool) bool {
	x, xs := a.operand(lo, hi)
	y, ys := b.operand(lo, hi)
	o = o[lo:hi]
	allInt := true
	for track && allInt && len(o) > 0 {
		bs := min(KernelBlock, len(o))
		ElemKernel(op, o[:bs], x, xs, y, ys)
		allInt = ChunkAllInt(o[:bs])
		o = o[bs:]
		if x != nil {
			x = x[bs:]
		}
		if y != nil {
			y = y[bs:]
		}
	}
	ElemKernel(op, o, x, xs, y, ys) // the rest, or all of it, unscanned
	return allInt
}

// elementwiseParallel is the large-result path, apart from elementwise
// so that only calls which do fan out pay for the escaping closure.
func elementwiseParallel(op ElemOp, o []float64, a, b *Value, n int, track bool) bool {
	var notInt atomic.Bool
	parallel.For(0, n, elemGrain, func(lo, hi int) {
		if !elementwiseRange(op, o, a, b, lo, hi, track) {
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

func bcastC(v *Value, i int) complex128 {
	if v.rows*v.cols == 1 {
		return v.ComplexAt(0)
	}
	return v.ComplexAt(i)
}

func addC(x, y complex128) complex128 { return x + y }
func subC(x, y complex128) complex128 { return x - y }
func mulC(x, y complex128) complex128 { return x * y }
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
	return elementwise(d, a, b, KAdd, addC)
}

// Sub implements a-b.
func Sub(a, b *Value) (*Value, error) { return Donors{}.Sub(a, b) }

// Sub implements a-b, building a dense real result in a donor.
func (d Donors) Sub(a, b *Value) (*Value, error) {
	if a.sp != nil || b.sp != nil {
		return sparseAddSub(d, a, b, true)
	}
	return elementwise(d, a, b, KSub, subC)
}

// ElemMul implements a.*b.
func ElemMul(a, b *Value) (*Value, error) { return Donors{}.ElemMul(a, b) }

// ElemMul implements a.*b, building a dense real result in a donor.
func (d Donors) ElemMul(a, b *Value) (*Value, error) {
	if a.sp != nil || b.sp != nil {
		return sparseElemMul(a, b)
	}
	return elementwise(d, a, b, KMul, mulC)
}

// ElemDiv implements a./b.
func ElemDiv(a, b *Value) (*Value, error) { return Donors{}.ElemDiv(a, b) }

// ElemDiv implements a./b, building a dense real result in a donor.
func (d Donors) ElemDiv(a, b *Value) (*Value, error) {
	if a.sp != nil || b.sp != nil {
		return sparseElemDiv(a, b)
	}
	return elementwise(d, a, b, KDiv, divC)
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
	NegKernel(out.re, a.re)
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
	m, n := a.rows, b.cols
	if m == 1 && n == 1 {
		// p'*q is a dot product. Dgemm would route it to Dgemv one column
		// (= one element) at a time; Ddot adds the same products to the
		// same zero in the same ascending order.
		return Scalar(blas.Ddot(a.cols, a.re, 1, b.re, 1)), nil
	}
	// The real product runs on the blocked, parallel dgemm. beta == 0
	// stores, so the uninitialized (possibly donated) result buffer is
	// never read.
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
	return Scalar(FPow(x, y)), nil
}

// RealPow is x^y for two real scalars by scalarPow's rule: complex only
// when a negative base meets a non-integral exponent, real otherwise.
func RealPow(x, y float64) complex128 {
	if x < 0 && y != math.Trunc(y) {
		return cmplx.Pow(complex(x, 0), complex(y, 0))
	}
	return complex(FPow(x, y), 0)
}

// FPow is math.Pow(x, y), bit for bit. For an integral y in [-64, 64]
// and a normal x it runs math.Pow's own repeated squaring on x itself
// rather than on x's mantissa with the exponent kept apart: a product of
// normal numbers rounds the same at any power-of-two scale, so while
// every intermediate is normal the two computations round alike. The
// first intermediate that is not normal hands the pair to math.Pow.
func FPow(x, y float64) float64 {
	if !(y >= -64 && y <= 64) || !normal(x) {
		return math.Pow(x, y)
	}
	n := int64(y)
	if float64(n) != y {
		return math.Pow(x, y)
	}
	k := n
	if k < 0 {
		k = -k
	}
	a, s := 1.0, x
	for {
		if k&1 == 1 {
			if a *= s; !normal(a) {
				return math.Pow(x, y)
			}
		}
		if k >>= 1; k == 0 {
			break
		}
		if s *= s; !normal(s) {
			return math.Pow(x, y)
		}
	}
	if n < 0 {
		if a = 1 / a; !normal(a) {
			return math.Pow(x, y)
		}
	}
	return a
}

// normal reports a finite, nonzero x that is not subnormal: its biased
// exponent is neither 0 nor all ones.
func normal(x float64) bool {
	return math.Float64bits(x)>>52&0x7ff-1 < 0x7fe
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
	n := rows * cols
	needComplex := a.kind == Complex || b.kind == Complex
	if !needComplex && n > 0 {
		x, xs := a.operand(0, n)
		y, ys := b.operand(0, n)
		needComplex = PowPromotes(x, xs, y, ys)
	}
	if needComplex {
		out := NewKind(Complex, rows, cols)
		for i := 0; i < n; i++ {
			z := cmplx.Pow(bcastC(a, i), bcastC(b, i))
			out.re[i] = real(z)
			out.im[i] = imag(z)
		}
		return out.Demote(), nil
	}
	return elementwise(Donors{}, a, b, KPow,
		func(x, y complex128) complex128 { return cmplx.Pow(x, y) })
}

// Transpose implements a' for real values and the conjugate transpose for
// complex values (MATLAB's ').
func Transpose(a *Value) (*Value, error) { return Donors{}.Transpose(a, true) }

// DotTranspose implements a.' (no conjugation).
func DotTranspose(a *Value) (*Value, error) { return Donors{}.Transpose(a, false) }

// transposeTile is the side of the square tiles transposeTiles copies:
// the 32 columns a tile reads and the 32 rows it writes are 8 KiB each,
// so both stay in L1 while the tile is copied, where the element loop
// strides the whole matrix for every element it writes.
const transposeTile = 32

// transposeTiles writes src, rows×cols column-major, into dst transposed
// (cols×rows), one tile at a time. Each element is one copy, so the bits
// are the element loop's.
func transposeTiles(dst, src []float64, rows, cols int) {
	for c0 := 0; c0 < cols; c0 += transposeTile {
		c1 := min(c0+transposeTile, cols)
		for r0 := 0; r0 < rows; r0 += transposeTile {
			r1 := min(r0+transposeTile, rows)
			for c := c0; c < c1; c++ {
				col := src[c*rows+r0 : c*rows+r1]
				for i, x := range col {
					dst[(r0+i)*cols+c] = x
				}
			}
		}
	}
}

// Transpose implements a' (conj) or a.', building a real result in
// d.Dst or, for a vector that is a consumed temporary, in the operand.
func (d Donors) Transpose(a *Value, conj bool) (*Value, error) {
	if a.sp != nil {
		return sparseTranspose(a) // sparse values are real
	}
	n := a.rows * a.cols
	vector := a.rows == 1 || a.cols == 1
	var out *Value
	switch {
	case vector && d.Consumed&1 != 0 && !a.IsShared():
		// The n elements of a vector lie the same way in both
		// orientations: a dead operand only swaps its header.
		out = a
		out.rows, out.cols = a.cols, a.rows
	case a.im == nil:
		out = d.NewReal(a.cols, a.rows, false, a)
		out.kind = a.kind
	default:
		out = NewKind(a.kind, a.cols, a.rows)
	}
	if vector {
		if out != a {
			copy(out.re, a.re[:n])
			copy(out.im, a.im)
		}
	} else if n > 0 { // an empty matrix moves nothing, however long its other side
		transposeTiles(out.re, a.re, a.rows, a.cols)
		if a.im != nil {
			transposeTiles(out.im, a.im, a.rows, a.cols)
		}
	}
	if conj {
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
	// The broadcast test becomes a stride and the operator is chosen
	// once: a > b is b < a (CmpGt, CmpGe sit two past CmpLt, CmpLe), and
	// != is the complement of ==.
	if op == CmpGt || op == CmpGe {
		a, b, op = b, a, op-(CmpGt-CmpLt)
	}
	o, x, y, sx, sy := out.re, a.re, b.re, a.stride(), b.stride()
	switch {
	case op == CmpLt:
		for i := range o {
			if x[i*sx] < y[i*sy] {
				o[i] = 1
			}
		}
	case op == CmpLe:
		for i := range o {
			if x[i*sx] <= y[i*sy] {
				o[i] = 1
			}
		}
	case a.im != nil || b.im != nil:
		for i := range o {
			if (x[i*sx] == y[i*sy] && imOrZero(a, i) == imOrZero(b, i)) == (op == CmpEq) {
				o[i] = 1
			}
		}
	default:
		for i := range o {
			if (x[i*sx] == y[i*sy]) == (op == CmpEq) {
				o[i] = 1
			}
		}
	}
	return out, nil
}

// stride is the step between v's consecutive elements under scalar
// broadcasting: 0 for a 1x1 value, which repeats its one element.
func (v *Value) stride() int {
	if v.rows*v.cols == 1 {
		return 0
	}
	return 1
}

func imOrZero(v *Value, i int) float64 {
	if v.im == nil {
		return 0
	}
	return v.im[i*v.stride()]
}

// And implements a&b (elementwise logical and).
func And(a, b *Value) (*Value, error) { return logical(a, b, false) }

// Or implements a|b.
func Or(a, b *Value) (*Value, error) { return logical(a, b, true) }

func logical(a, b *Value, or bool) (*Value, error) {
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
	o, x, y, sx, sy := out.re, a.re, b.re, a.stride(), b.stride()
	switch {
	case a.im != nil || b.im != nil:
		for i := range o {
			if p, q := truthy(a, i*sx), truthy(b, i*sy); p && q || or && (p || q) {
				o[i] = 1
			}
		}
	case or:
		for i := range o {
			if x[i*sx] != 0 || y[i*sy] != 0 {
				o[i] = 1
			}
		}
	default:
		for i := range o {
			if x[i*sx] != 0 && y[i*sy] != 0 {
				o[i] = 1
			}
		}
	}
	return out, nil
}

// truthy reports whether element i of v is nonzero.
func truthy(v *Value, i int) bool {
	return v.re[i] != 0 || (v.im != nil && v.im[i] != 0)
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
