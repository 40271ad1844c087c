package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// The reference the kernel table replaced, kept here as the oracle: one
// indirect call and two broadcast tests per element, and the Int/Real
// decision from a scan of every result element.
func bcastR(v *Value, i int) float64 {
	if v.rows*v.cols == 1 {
		return v.re[0]
	}
	return v.re[i]
}

func refElementwise(a, b *Value, fr func(x, y float64) float64) ([]float64, Kind) {
	n := max(a.rows*a.cols, b.rows*b.cols)
	if a.rows*a.cols == 0 || b.rows*b.cols == 0 {
		n = 0
	}
	out := make([]float64, n)
	allInt := true
	for i := range out {
		z := fr(bcastR(a, i), bcastR(b, i))
		out[i] = z
		if z != math.Trunc(z) || math.IsInf(z, 0) {
			allInt = false
		}
	}
	if k := PromoteKind(a.kind, b.kind); (k == Int || k == Bool) && allInt {
		return out, Int
	}
	return out, Real
}

var kernelOps = []struct {
	name string
	op   func(d Donors, a, b *Value) (*Value, error)
	fr   func(x, y float64) float64
}{
	{"add", Donors.Add, func(x, y float64) float64 { return x + y }},
	{"sub", Donors.Sub, func(x, y float64) float64 { return x - y }},
	{"mul", Donors.ElemMul, func(x, y float64) float64 { return x * y }},
	{"div", Donors.ElemDiv, func(x, y float64) float64 { return x / y }},
	{"pow", func(_ Donors, a, b *Value) (*Value, error) { return ElemPow(a, b) }, math.Pow},
}

// kernelSpecials are the values where a wrong operand order, a
// reordered operation or a missed integrality test would show.
var kernelSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -2.5e-310, 1 << 53, 1<<53 + 2, -(1 << 53), 1e308, -1e308, 0.5, 3,
}

// kernelOperand fills an n-vector (or a scalar, n == 1) of the given
// kind: random integers for the integral kinds, so that + and .* stay
// Int and ./ leaves it; random reals plus the specials for Real.
func kernelOperand(rng *rand.Rand, kind Kind, n int) *Value {
	v := &Value{kind: kind, rows: n, cols: 1, re: make([]float64, n)}
	for i := range v.re {
		switch kind {
		case Bool:
			v.re[i] = float64(rng.Intn(2))
		case Int, Char:
			v.re[i] = float64(rng.Intn(200) - 60)
			if kind == Int && rng.Intn(40) == 0 {
				v.re[i] = []float64{1 << 53, 1e308, -1e308, 0}[rng.Intn(4)]
			}
		default:
			v.re[i] = (rng.Float64() - 0.3) * 100
			if rng.Intn(8) == 0 {
				v.re[i] = kernelSpecials[rng.Intn(len(kernelSpecials))]
			}
		}
	}
	return v
}

func sameFloats(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i, false
		}
	}
	return 0, true
}

// TestKernelsAreTheGenericOperators: every operator of the kernel table,
// in every operand shape, destination and result kind, computes what the
// per-element reference computes — bit for bit, at every thread count.
func TestKernelsAreTheGenericOperators(t *testing.T) {
	defer parallel.SetDefaultThreads(parallel.DefaultThreads())
	rng := rand.New(rand.NewSource(16))
	lengths := []int{0, 1, 2, KernelBlock - 1, KernelBlock, KernelBlock + 1, elemGrain - 1, elemGrain + 1}
	kinds := []Kind{Real, Int, Bool, Char}
	for _, threads := range []int{1, 4} {
		parallel.SetDefaultThreads(threads)
		for _, k := range kernelOps {
			for _, n := range lengths {
				for _, shape := range []string{"vv", "vs", "sv"} {
					for _, dest := range []string{"fresh", "x", "y", "dst"} {
						ka, kb := kinds[rng.Intn(len(kinds))], kinds[rng.Intn(len(kinds))]
						if k.name == "pow" {
							if dest != "fresh" {
								continue // ElemPow takes no donors
							}
							ka = Int // no negative base meets a fractional power
						}
						na, nb := n, n
						if shape == "sv" {
							na = 1
						} else if shape == "vs" {
							nb = 1
						}
						a, b := kernelOperand(rng, ka, na), kernelOperand(rng, kb, nb)
						name := fmt.Sprintf("%s/%s/n=%d/%v.%v/into-%s/threads=%d", k.name, shape, n, ka, kb, dest, threads)
						if k.name == "pow" {
							for i := range a.re {
								a.re[i] = math.Abs(a.re[i])
							}
						}
						want, wantKind := refElementwise(a, b, k.fr)
						var d Donors
						switch dest {
						case "x":
							d.Consumed = 1
						case "y":
							d.Consumed = 2
						case "dst":
							d.Dst = &Value{kind: Int, rows: 1, cols: n + 3, re: make([]float64, n+3)}
						}
						got, err := k.op(d, a, b)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if i, ok := sameFloats(got.re[:got.rows*got.cols], want); !ok {
							t.Fatalf("%s: element %d differs from the reference", name, i)
						}
						if got.kind != wantKind {
							t.Errorf("%s: kind %v, reference %v", name, got.kind, wantKind)
						}
						if wantRows := max(na, nb); n > 0 && (got.rows != wantRows || got.cols != 1) {
							t.Errorf("%s: result is %dx%d", name, got.rows, got.cols)
						}
						// A donor of the result's shape is taken, and is the result.
						switch {
						case n <= 1:
						case dest == "x" && na == n && got != a, dest == "y" && nb == n && got != b, dest == "dst" && got != d.Dst:
							t.Errorf("%s: the offered buffer was not used", name)
						}
					}
				}
			}
		}
	}
}

// TestKernelNeg: negation runs the table's loop too, in place or not.
func TestKernelNeg(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 2, KernelBlock + 1} {
		for _, consumed := range []uint32{0, 1} {
			a := kernelOperand(rng, Real, n)
			want := make([]float64, n)
			for i, x := range a.re {
				want[i] = -x
			}
			got, err := Donors{Consumed: consumed}.Neg(a)
			if err != nil {
				t.Fatal(err)
			}
			if i, ok := sameFloats(got.re, want); !ok {
				t.Fatalf("n=%d consumed=%d: element %d", n, consumed, i)
			}
			if n > 1 && (got == a) != (consumed == 1) {
				t.Errorf("n=%d consumed=%d: in place = %v", n, consumed, got == a)
			}
		}
	}
}

// TestKernelPowPromotes: the scan that sends .^ to the complex path
// agrees with the per-element test, NaNs included.
func TestKernelPowPromotes(t *testing.T) {
	vals := []float64{-2, -0.5, 0, 0.5, 2, 3, math.NaN(), math.Inf(-1), math.Copysign(0, -1)}
	ref := func(x, y float64) bool { return x < 0 && y != math.Trunc(y) }
	for _, x := range vals {
		for _, y := range vals {
			xv, yv := []float64{1, x, 2}, []float64{2, y, 2}
			want := ref(x, y)
			if got := PowPromotes(nil, x, nil, y); got != want {
				t.Errorf("scalar %g .^ %g: %v", x, y, got)
			}
			if got := PowPromotes(xv, 0, nil, y); got != (want || ref(1, y) || ref(2, y)) {
				t.Errorf("[1 %g 2] .^ %g: %v", x, y, got)
			}
			if got := PowPromotes(nil, x, yv, 0); got != want {
				t.Errorf("%g .^ [2 %g 2]: %v", x, y, got)
			}
			if got := PowPromotes(xv, 0, yv, 0); got != want {
				t.Errorf("[1 %g 2] .^ [2 %g 2]: %v", x, y, got)
			}
		}
	}
}

// TestCompareAndLogicalHoisted: with the operator switch and the
// broadcast test out of their loops, the relational and logical
// operators still answer element by element what the definitions say —
// NaNs, broadcasts and imaginary parts included.
func TestCompareAndLogicalHoisted(t *testing.T) {
	nan := math.NaN()
	vecs := []*Value{
		vec(Real, 1, nan, 0, -2, 3), vec(Real, 1, 2, 0, nan, -3), vec(Int, 0, 0, 4, -2, 3),
		Scalar(0), Scalar(3), Scalar(nan),
		{kind: Complex, rows: 5, cols: 1, re: []float64{1, 0, 0, -2, 3}, im: []float64{0, 1, 0, 0, nan}},
		ComplexScalar(complex(0, 2)),
	}
	at := func(s []float64, v *Value, i int) float64 {
		if s == nil {
			return 0
		}
		if v.rows*v.cols == 1 {
			return s[0]
		}
		return s[i]
	}
	rel := []func(x, y float64) bool{
		CmpLt: func(x, y float64) bool { return x < y }, CmpLe: func(x, y float64) bool { return x <= y },
		CmpGt: func(x, y float64) bool { return x > y }, CmpGe: func(x, y float64) bool { return x >= y },
	}
	for _, a := range vecs {
		for _, b := range vecs {
			n := max(a.rows*a.cols, b.rows*b.cols)
			check := func(what string, got *Value, err error, want func(i int) bool) {
				t.Helper()
				if err != nil || got.kind != Bool || got.rows*got.cols != n {
					t.Fatalf("%s: %v %v", what, got, err)
				}
				for i := 0; i < n; i++ {
					if (got.re[i] == 1) != want(i) || (got.re[i] != 0 && got.re[i] != 1) {
						t.Errorf("%s of %v and %v: element %d is %v", what, a, b, i, got.re[i])
					}
				}
			}
			eq := func(i int) bool {
				return at(a.re, a, i) == at(b.re, b, i) && at(a.im, a, i) == at(b.im, b, i)
			}
			truth := func(v *Value, i int) bool { return at(v.re, v, i) != 0 || at(v.im, v, i) != 0 }
			for op := CmpEq; op <= CmpGe; op++ {
				got, err := Compare(op, a, b)
				switch op {
				case CmpEq:
					check("==", got, err, eq)
				case CmpNe:
					check("~=", got, err, func(i int) bool { return !eq(i) })
				default:
					check(fmt.Sprint("relational ", op), got, err, func(i int) bool { return rel[op](at(a.re, a, i), at(b.re, b, i)) })
				}
			}
			got, err := And(a, b)
			check("&", got, err, func(i int) bool { return truth(a, i) && truth(b, i) })
			got, err = Or(a, b)
			check("|", got, err, func(i int) bool { return truth(a, i) || truth(b, i) })
		}
	}
}

// TestTransposeVector: a vector transposes by copy, a dead one by
// swapping its header; the conjugate flips signs either way.
func TestTransposeVector(t *testing.T) {
	for _, cplx := range []bool{false, true} {
		for _, consumed := range []uint32{0, 1} {
			for _, conj := range []bool{false, true} {
				a := &Value{kind: Int, rows: 1, cols: 5, re: []float64{1, 2, 3, 4, 5}}
				if cplx {
					a.kind, a.im = Complex, []float64{0, -1, 2, math.Copysign(0, -1), 7}
				}
				re, im := append([]float64(nil), a.re...), append([]float64(nil), a.im...)
				got, err := Donors{Consumed: consumed}.Transpose(a, conj)
				if err != nil {
					t.Fatal(err)
				}
				if got.rows != 5 || got.cols != 1 || got.kind != a.kind || (got == a) != (consumed == 1) {
					t.Fatalf("complex=%v consumed=%d: %dx%d %v, in place %v", cplx, consumed, got.rows, got.cols, got.kind, got == a)
				}
				for i := range im {
					if conj {
						im[i] = -im[i]
					}
				}
				if _, ok := sameFloats(got.re, re); !ok {
					t.Errorf("real parts moved")
				}
				if _, ok := sameFloats(got.im, im); !ok {
					t.Errorf("complex=%v conj=%v: imaginary parts %v, want %v", cplx, conj, got.im, im)
				}
			}
		}
	}
	// A shared vector is nobody's temporary, and a displaced destination
	// holds the copy.
	a := New(7, 1)
	a.MarkShared()
	dst := New(1, 9)
	got, _ := Donors{Dst: dst, Consumed: 1}.Transpose(a, true)
	if got != dst || got.rows != 1 || got.cols != 7 {
		t.Errorf("shared operand: result %p (%dx%d), want the destination %p", got, got.rows, got.cols, dst)
	}
}

// TestDotProductIsTheGemmPath: p'*q through Ddot equals the 1 x k by
// k x 1 product the blocked kernels' dispatch computes.
func TestDotProductIsTheGemmPath(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, k := range []int{0, 1, 3, 4, 5, 420, 1027} {
		p, q := kernelOperand(rng, Real, k), kernelOperand(rng, Real, k)
		p.rows, p.cols = 1, k
		got, err := Mul(p, q)
		if err != nil {
			t.Fatal(err)
		}
		// The seed's route: Dgemm(1, 1, k) -> Dgemv over one-element columns.
		want := 0.0
		for j := 0; j < k; j++ {
			want += (1 * q.re[j]) * p.re[j]
		}
		if _, ok := sameFloats(got.re[:1], []float64{want}); !ok || got.rows != 1 || got.cols != 1 || got.kind != Real {
			t.Errorf("k=%d: %v (%dx%d %v), want %v", k, got.re[0], got.rows, got.cols, got.kind, want)
		}
	}
}

// TestIndexScalar: the no-index-list path answers exactly when Index1
// would, with Index1's value; everything else is declined.
func TestIndexScalar(t *testing.T) {
	dense := &Value{kind: Int, rows: 2, cols: 3, re: []float64{1, 2, 3, 4, 5, 6}}
	cplx := &Value{kind: Complex, rows: 1, cols: 2, re: []float64{1, 2}, im: []float64{3, -4}}
	for _, a := range []*Value{dense, cplx, FromString("abc")} {
		n := a.rows * a.cols
		for _, x := range []float64{1, 2, float64(n), 0, -1, 1.5, float64(n + 1), math.NaN(), math.Inf(1)} {
			s := Scalar(x)
			sub, rerr := ResolveSubscript(s)
			var want *Value
			if rerr == nil {
				sub.ShapeRows, sub.ShapeCols = 1, 1
				want, rerr = Index1(a, sub)
			}
			got, ok := IndexScalar(a, s)
			if ok != (rerr == nil) {
				t.Fatalf("%v(%g): fast path answered = %v, Index1 error = %v", a.kind, x, ok, rerr)
			}
			if ok {
				_, sameRe := sameFloats(got.re, want.re)
				_, sameIm := sameFloats(got.im, want.im)
				if !sameRe || !sameIm {
					t.Errorf("%v(%g) = %v, Index1 gives %v", a.kind, x, got, want)
				}
			}
			if ok && (got.kind != want.kind || got.rows != 1 || got.cols != 1) {
				t.Errorf("%v(%g): %v %dx%d", a.kind, x, got.kind, got.rows, got.cols)
			}
		}
	}
	if _, ok := IndexScalar(dense, New(1, 2)); ok {
		t.Error("a vector subscript is not the scalar path's")
	}
	if _, ok := IndexScalar(dense, ComplexScalar(complex(1, 1))); ok {
		t.Error("a complex subscript is not the scalar path's")
	}
}

// BenchmarkElementwise: ns per element of the generic operators, per
// operator, operand shape and size (in cache and out of it).
func BenchmarkElementwise(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range kernelOps[:4] {
		for _, shape := range []string{"vv", "vs", "sv"} {
			for _, n := range []int{1000, 200000} {
				na, nb := n, n
				if shape == "sv" {
					na = 1
				} else if shape == "vs" {
					nb = 1
				}
				x, y := New(na, 1), New(nb, 1) // ordinary values: no denormal or NaN slow paths
				for _, v := range []*Value{x, y} {
					for i := range v.re {
						v.re[i] = rng.Float64() + 0.5
					}
				}
				dst := New(n, 1)
				b.Run(fmt.Sprintf("%s/%s/n=%d", k.name, shape, n), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						out, err := k.op(Donors{Dst: dst}, x, y)
						if err != nil || out != dst {
							b.Fatal(out, err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
				})
			}
		}
	}
}
