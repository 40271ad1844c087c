package builtins

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mat"
)

func callB(t *testing.T, name string, nout int, args ...*mat.Value) []*mat.Value {
	t.Helper()
	b := Lookup(name)
	if b == nil {
		t.Fatalf("builtin %q not registered", name)
	}
	outs, err := Call(NewContext(), b, args, nout)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return outs
}

func call1(t *testing.T, name string, args ...*mat.Value) *mat.Value {
	t.Helper()
	return callB(t, name, 1, args...)[0]
}

func wantNum(t *testing.T, v *mat.Value, want float64) {
	t.Helper()
	got, err := v.Scalar()
	if err != nil {
		t.Fatalf("not scalar: %v", err)
	}
	if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
		t.Fatalf("got %g, want %g", got, want)
	}
}

func vec(xs ...float64) *mat.Value { return mat.FromSlice(1, len(xs), xs) }

func TestConstructors(t *testing.T) {
	z := call1(t, "zeros", mat.Scalar(2), mat.Scalar(3))
	if z.Rows() != 2 || z.Cols() != 3 {
		t.Fatal("zeros(2,3)")
	}
	o := call1(t, "ones", mat.Scalar(2))
	if o.Rows() != 2 || o.Cols() != 2 || o.At(1, 1) != 1 {
		t.Fatal("ones(2)")
	}
	e := call1(t, "eye", mat.Scalar(3))
	if e.At(0, 0) != 1 || e.At(0, 1) != 0 {
		t.Fatal("eye(3)")
	}
	// size vector argument
	z2 := call1(t, "zeros", vec(4, 5))
	if z2.Rows() != 4 || z2.Cols() != 5 {
		t.Fatal("zeros([4 5])")
	}
	// rand within [0,1) and deterministic per context seed
	r1 := call1(t, "rand", mat.Scalar(3))
	for _, x := range r1.Re() {
		if x < 0 || x >= 1 {
			t.Fatal("rand out of range")
		}
	}
}

func TestQueries(t *testing.T) {
	a := mat.New(3, 7)
	wantNum(t, call1(t, "numel", a), 21)
	wantNum(t, call1(t, "length", a), 7)
	wantNum(t, call1(t, "size", a, mat.Scalar(1)), 3)
	wantNum(t, call1(t, "size", a, mat.Scalar(2)), 7)
	sz := call1(t, "size", a)
	if sz.Cols() != 2 || sz.Re()[0] != 3 || sz.Re()[1] != 7 {
		t.Fatal("size vector")
	}
	outs := callB(t, "size", 2, a)
	wantNum(t, outs[0], 3)
	wantNum(t, outs[1], 7)
	wantNum(t, call1(t, "isempty", mat.Empty()), 1)
	wantNum(t, call1(t, "isempty", a), 0)
	wantNum(t, call1(t, "isreal", mat.Scalar(1)), 1)
	wantNum(t, call1(t, "isreal", mat.ComplexScalar(1i)), 0)
	wantNum(t, call1(t, "length", mat.Empty()), 0)
}

func TestReductions(t *testing.T) {
	v := vec(1, 2, 3, 4)
	wantNum(t, call1(t, "sum", v), 10)
	wantNum(t, call1(t, "prod", v), 24)
	wantNum(t, call1(t, "mean", v), 2.5)
	wantNum(t, call1(t, "max", v), 4)
	wantNum(t, call1(t, "min", v), 1)
	// columnwise on matrices
	m := mat.FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	s := call1(t, "sum", m)
	if s.Rows() != 1 || s.Cols() != 3 || s.Re()[0] != 5 {
		t.Fatalf("column sums: %v", s)
	}
	// [m, i] = max(v)
	outs := callB(t, "max", 2, vec(3, 9, 2))
	wantNum(t, outs[0], 9)
	wantNum(t, outs[1], 2)
	// elementwise two-arg forms
	wantNum(t, call1(t, "max", mat.Scalar(3), mat.Scalar(5)), 5)
	mm := call1(t, "min", vec(1, 5), vec(4, 2))
	if mm.Re()[0] != 1 || mm.Re()[1] != 2 {
		t.Fatal("elementwise min")
	}
	// NaN skipped like MATLAB
	wantNum(t, call1(t, "max", vec(1, math.NaN(), 3)), 3)
	wantNum(t, call1(t, "any", vec(0, 0, 2)), 1)
	wantNum(t, call1(t, "all", vec(1, 0)), 0)
	// complex sum
	z := mat.NewKind(mat.Complex, 1, 2)
	z.Re()[0], z.Im()[0] = 1, 2
	z.Re()[1], z.Im()[1] = 3, -1
	zs := call1(t, "sum", z)
	if zs.ComplexAt(0) != 4+1i {
		t.Fatalf("complex sum: %v", zs)
	}
}

func TestMathFunctions(t *testing.T) {
	wantNum(t, call1(t, "abs", mat.Scalar(-3)), 3)
	wantNum(t, call1(t, "abs", mat.ComplexScalar(3+4i)), 5)
	wantNum(t, call1(t, "sqrt", mat.Scalar(16)), 4)
	z := call1(t, "sqrt", mat.Scalar(-9))
	if z.Kind() != mat.Complex || math.Abs(z.Im()[0]-3) > 1e-12 {
		t.Fatalf("sqrt(-9) = %v", z)
	}
	wantNum(t, call1(t, "floor", mat.Scalar(2.9)), 2)
	wantNum(t, call1(t, "ceil", mat.Scalar(2.1)), 3)
	wantNum(t, call1(t, "round", mat.Scalar(2.5)), 3)
	wantNum(t, call1(t, "round", mat.Scalar(-2.5)), -2) // floor(x+0.5)
	wantNum(t, call1(t, "fix", mat.Scalar(-2.7)), -2)
	wantNum(t, call1(t, "sign", mat.Scalar(-7)), -1)
	wantNum(t, call1(t, "mod", mat.Scalar(-1), mat.Scalar(3)), 2)
	wantNum(t, call1(t, "rem", mat.Scalar(-1), mat.Scalar(3)), -1)
	wantNum(t, call1(t, "atan2", mat.Scalar(1), mat.Scalar(1)), math.Pi/4)
	wantNum(t, call1(t, "exp", mat.Scalar(0)), 1)
	wantNum(t, call1(t, "log", mat.Scalar(math.E)), 1)
	// elementwise over vectors
	sq := call1(t, "sqrt", vec(1, 4, 9))
	if sq.Re()[2] != 3 {
		t.Fatal("vector sqrt")
	}
	// complex math
	ez := call1(t, "exp", mat.ComplexScalar(complex(0, math.Pi)))
	if math.Abs(real(ez.ComplexAt(0))+1) > 1e-12 {
		t.Fatalf("exp(i*pi) = %v", ez)
	}
}

func TestComplexParts(t *testing.T) {
	z := mat.ComplexScalar(3 + 4i)
	wantNum(t, call1(t, "real", z), 3)
	wantNum(t, call1(t, "imag", z), 4)
	c := call1(t, "conj", z)
	if c.ComplexAt(0) != 3-4i {
		t.Fatal("conj")
	}
	wantNum(t, call1(t, "angle", mat.ComplexScalar(1i)), math.Pi/2)
	wantNum(t, call1(t, "imag", mat.Scalar(5)), 0)
}

func TestVectorBuiltins(t *testing.T) {
	wantNum(t, call1(t, "dot", vec(1, 2, 3), vec(4, 5, 6)), 32)
	wantNum(t, call1(t, "norm", vec(3, 4)), 5)
	wantNum(t, call1(t, "norm", vec(1, -2, 2), mat.Scalar(1)), 5)
	wantNum(t, call1(t, "norm", vec(1, -7, 2), mat.Scalar(math.Inf(1))), 7)
	f := call1(t, "find", vec(0, 3, 0, 7))
	if f.Numel() != 2 || f.Re()[1] != 4 {
		t.Fatalf("find: %v", f)
	}
	ls := call1(t, "linspace", mat.Scalar(0), mat.Scalar(1), mat.Scalar(5))
	if ls.Cols() != 5 || ls.Re()[1] != 0.25 {
		t.Fatalf("linspace: %v", ls)
	}
	srt := callB(t, "sort", 2, vec(3, 1, 2))
	if srt[0].Re()[0] != 1 || srt[1].Re()[0] != 2 {
		t.Fatalf("sort: %v %v", srt[0], srt[1])
	}
}

func TestMatrixBuiltins(t *testing.T) {
	m := mat.FromSlice(2, 2, []float64{4, 2, 1, 3})
	wantNum(t, call1(t, "det", m), 10)
	d := call1(t, "diag", m)
	if d.Rows() != 2 || d.Re()[0] != 4 || d.Re()[1] != 3 {
		t.Fatalf("diag: %v", d)
	}
	dm := call1(t, "diag", vec(5, 6))
	if dm.Rows() != 2 || dm.At(0, 0) != 5 || dm.At(0, 1) != 0 {
		t.Fatal("diag of vector")
	}
	lo := call1(t, "tril", m, mat.Scalar(-1))
	if lo.At(0, 0) != 0 || lo.At(1, 0) != 1 {
		t.Fatalf("tril: %v", lo)
	}
	hi := call1(t, "triu", m, mat.Scalar(1))
	if hi.At(0, 1) != 2 || hi.At(0, 0) != 0 {
		t.Fatalf("triu: %v", hi)
	}
	rs := call1(t, "reshape", mat.FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6}), mat.Scalar(3), mat.Scalar(2))
	if rs.Rows() != 3 || rs.Cols() != 2 {
		t.Fatal("reshape")
	}
	rp := call1(t, "repmat", vec(1, 2), mat.Scalar(2), mat.Scalar(2))
	if rp.Rows() != 2 || rp.Cols() != 4 || rp.At(1, 3) != 2 {
		t.Fatalf("repmat: %v", rp)
	}
	ev := call1(t, "eig", mat.FromSlice(2, 2, []float64{2, 1, 1, 2}))
	if ev.Rows() != 2 || math.Abs(ev.Re()[0]-1) > 1e-9 {
		t.Fatalf("eig: %v", ev)
	}
	iv := call1(t, "inv", m)
	if math.Abs(iv.At(0, 0)-0.3) > 1e-12 {
		t.Fatalf("inv: %v", iv)
	}
	lu := callB(t, "lu", 3, m)
	if lu[0].At(0, 0) != 1 {
		t.Fatal("lu: L not unit")
	}
}

func TestMLDivide(t *testing.T) {
	a := mat.FromSlice(2, 2, []float64{4, 1, 1, 3})
	b := mat.FromSlice(2, 1, []float64{6, 4})
	x, err := MLDivide(mat.Donors{}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// verify A*x = b
	ax, _ := mat.Mul(a, x)
	for i := range ax.Re() {
		if math.Abs(ax.Re()[i]-b.Re()[i]) > 1e-10 {
			t.Fatalf("A*x != b: %v", ax)
		}
	}
	// scalar division
	wantNum(t, must(MLDivide(mat.Donors{}, mat.Scalar(2), mat.Scalar(10))), 5)
	// shape errors
	if _, err := MLDivide(mat.Donors{}, a, mat.New(3, 1)); err == nil {
		t.Fatal("dimension mismatch must error")
	}
}

// TestMLDivideIntoDestination: a banded A\b builds its result in the
// displaced destination, allocating only the band factor and the pivots;
// a singular system leaves the destination as it was; and a destination
// that is also an operand is never overwritten.
func TestMLDivideIntoDestination(t *testing.T) {
	const n = 40
	k := mat.New(n, n)
	for i := 0; i < n; i++ {
		k.SetAt(i, i, 2)
		if i > 0 {
			k.SetAt(i, i-1, -1)
			k.SetAt(i-1, i, -1)
		}
	}
	f := mat.New(n, 1)
	for i := range f.Re() {
		f.Re()[i] = float64(i%7) + 1
	}
	want := must(MLDivide(mat.Donors{}, k, f))
	u := mat.New(n, 1)
	solve := func() {
		x, err := MLDivide(mat.Donors{Dst: u}, k, f)
		if err != nil {
			t.Fatal(err)
		}
		if x != u {
			t.Fatal("the result was not built in the displaced destination")
		}
	}
	solve()
	for i, v := range want.Re() {
		if math.Float64bits(u.Re()[i]) != math.Float64bits(v) {
			t.Fatalf("u[%d] = %v in the destination, %v fresh", i, u.Re()[i], v)
		}
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, solve)
	runtime.ReadMemStats(&after)
	if bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1); allocs > 2 || bytes >= 2048 {
		t.Errorf("a tridiagonal 40x40 \\ allocates %.0f objects and %.0f bytes, want <= 2 (band factor, pivots) and < 2 KiB", allocs, bytes)
	}

	singular := mat.New(n, n)
	dst := mat.FromSlice(2, 1, []float64{7, 8})
	if _, err := MLDivide(mat.Donors{Dst: dst}, singular, f); err == nil {
		t.Fatal("a singular system must error")
	}
	if dst.Rows() != 2 || dst.Cols() != 1 || dst.Re()[0] != 7 || dst.Re()[1] != 8 {
		t.Fatalf("a singular system changed the destination to %dx%d %v", dst.Rows(), dst.Cols(), dst.Re())
	}

	x := f.Clone()
	got, err := MLDivide(mat.Donors{Dst: x}, k, x) // x = K \ x
	if err != nil {
		t.Fatal(err)
	}
	if got == x {
		t.Fatal("x = K \\ x overwrote its operand")
	}
	for i, v := range want.Re() {
		if math.Float64bits(got.Re()[i]) != math.Float64bits(v) || x.Re()[i] != f.Re()[i] {
			t.Fatalf("x = K \\ x: x[%d] = %v (want %v), operand %v (was %v)", i, got.Re()[i], v, x.Re()[i], f.Re()[i])
		}
	}
}

func must(v *mat.Value, err error) *mat.Value {
	if err != nil {
		panic(err)
	}
	return v
}

func TestStringsAndIO(t *testing.T) {
	ctx := NewContext()
	var sb strings.Builder
	ctx.Out = &sb
	b := Lookup("fprintf")
	if _, err := Call(ctx, b, []*mat.Value{mat.FromString("v=%d w=%5.2f s=%s\\n"), mat.Scalar(42), mat.Scalar(3.14159), mat.FromString("hi")}, 1); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != "v=42 w= 3.14 s=hi\n" {
		t.Fatalf("fprintf: %q", got)
	}
	// format recycling over matrix arguments
	sb.Reset()
	if _, err := Call(ctx, b, []*mat.Value{mat.FromString("%d,"), vec(1, 2, 3)}, 1); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != "1,2,3," {
		t.Fatalf("recycled fprintf: %q", got)
	}
	sp := call1(t, "sprintf", mat.FromString("x=%g"), mat.Scalar(2.5))
	if sp.Text() != "x=2.5" {
		t.Fatalf("sprintf: %q", sp.Text())
	}
	// error builtin raises
	eb := Lookup("error")
	if _, err := Call(NewContext(), eb, []*mat.Value{mat.FromString("boom %d"), mat.Scalar(3)}, 1); err == nil || !strings.Contains(err.Error(), "boom 3") {
		t.Fatalf("error builtin: %v", err)
	}
}

func TestConstants(t *testing.T) {
	wantNum(t, call1(t, "pi"), math.Pi)
	wantNum(t, call1(t, "eps"), 2.220446049250313e-16)
	if !math.IsInf(call1(t, "Inf").MustScalar(), 1) {
		t.Fatal("Inf")
	}
	if !math.IsNaN(call1(t, "NaN").MustScalar()) {
		t.Fatal("NaN")
	}
	i := call1(t, "i")
	if i.ComplexAt(0) != 1i {
		t.Fatal("i")
	}
	wantNum(t, call1(t, "true"), 1)
	wantNum(t, call1(t, "false"), 0)
}

func TestArgValidation(t *testing.T) {
	if _, err := Call(NewContext(), Lookup("sqrt"), nil, 1); err == nil {
		t.Fatal("sqrt() must require an argument")
	}
	if _, err := Call(NewContext(), Lookup("sqrt"), []*mat.Value{mat.Scalar(1), mat.Scalar(2)}, 1); err == nil {
		t.Fatal("sqrt(a,b) must reject extra arguments")
	}
	if _, err := Call(NewContext(), Lookup("sqrt"), []*mat.Value{mat.Scalar(1)}, 3); err == nil {
		t.Fatal("too many outputs must error")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give same stream")
		}
	}
	// normal deviates have roughly zero mean and unit variance
	r := NewRNG(7)
	var sum, sumSq float64
	n := 20000
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sumSq += x * x
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 || math.Abs(variance-1) > 0.1 {
		t.Fatalf("normal stats: mean=%g var=%g", mean, variance)
	}
}

// TestRNGFillsAreThePerElementDraws: an array drawn under one lock is
// the sequence of single draws, bit for bit — odd lengths included,
// so a normal pair's cached second deviate carries from one fill into
// the next call and from a single call into a fill.
func TestRNGFillsAreThePerElementDraws(t *testing.T) {
	filled, single := NewRNG(99), NewRNG(99)
	for _, n := range []int{0, 1, 2, 3, 7, 434} {
		got, want := make([]float64, n), make([]float64, n)
		filled.Fill(got)
		for i := range want {
			want[i] = single.Float64()
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("Fill of %d: element %d = %v, Float64 gave %v", n, i, got[i], want[i])
			}
		}
		filled.FillNormal(got)
		for i := range want {
			want[i] = single.Normal()
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("FillNormal of %d: element %d = %v, Normal gave %v", n, i, got[i], want[i])
			}
		}
		if a, b := filled.Normal(), single.Normal(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("after filling %d: Normal = %v, per-element stream %v", n, a, b)
		}
	}
}

func TestEvalBinOpDispatch(t *testing.T) {
	// spot-check the shared dispatcher used by interpreter and VM
	out, err := EvalBinOp(0 /* OpAdd */, mat.Scalar(2), mat.Scalar(3))
	if err != nil {
		t.Fatal(err)
	}
	wantNum(t, out, 5)
}

// TestElemFnAtMatchesBuiltin: the C-register form of an elementary
// function that can promote, applied to a real argument, gives the
// builtin's bits on that scalar: real where the argument is in the real
// domain (−0 and NaN included), the promoted complex value outside it.
func TestElemFnAtMatchesBuiltin(t *testing.T) {
	args := []float64{0.5, 1, 2, 0, math.Copysign(0, -1), math.NaN(), -0.5, -1, -2, math.Inf(-1), math.Inf(1)}
	for name, f := range elementary {
		if f.Promotes == nil {
			continue
		}
		for _, x := range args {
			outs, err := Call(NewContext(), Lookup(name), []*mat.Value{mat.Scalar(x)}, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, got := outs[0].ComplexAt(0), f.At(complex(x, 0))
			if !sameFloat(real(got), real(want)) || !sameFloat(imag(got), imag(want)) {
				t.Errorf("%s(%v): At %v, builtin %v", name, x, got, want)
			}
		}
	}
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestRealDomainPromotion: log, log2 and log10 of a negative real, and
// asin and acos of a real outside [-1, 1], are complex, with MATLAB's
// values (log(-2) + asin(-6) is -0.8777+5.6195i there, asin(2) is
// 1.5708-1.3170i); −0 and NaN stay real.
func TestRealDomainPromotion(t *testing.T) {
	for _, c := range []struct {
		expr string
		got  complex128
		want complex128
	}{
		{"log(-2) + asin(-6)", callB(t, "log", 1, mat.Scalar(-2))[0].ComplexAt(0) + callB(t, "asin", 1, mat.Scalar(-6))[0].ComplexAt(0), complex(-0.8776, 5.6195)},
		{"asin(2)", callB(t, "asin", 1, mat.Scalar(2))[0].ComplexAt(0), complex(1.5708, -1.3170)},
		{"acos(2)", callB(t, "acos", 1, mat.Scalar(2))[0].ComplexAt(0), complex(0, 1.3170)},
		{"acos(-2)", callB(t, "acos", 1, mat.Scalar(-2))[0].ComplexAt(0), complex(3.1416, -1.3170)},
		{"log10(-100)", callB(t, "log10", 1, mat.Scalar(-100))[0].ComplexAt(0), complex(2, 1.3644)},
	} {
		if math.Abs(real(c.got)-real(c.want)) > 1e-4 || math.Abs(imag(c.got)-imag(c.want)) > 1e-4 {
			t.Errorf("%s = %v, want %v", c.expr, c.got, c.want)
		}
	}
	for _, c := range []struct {
		name string
		x    float64
		cplx bool
	}{
		{"log", -1, true}, {"log2", -1, true}, {"log10", -1e-300, true}, {"asin", 1.5, true}, {"acos", -1.5, true},
		{"log", math.Copysign(0, -1), false}, {"log", math.NaN(), false}, {"asin", 1, false}, {"acos", -1, false},
		{"asin", math.NaN(), false}, {"atan", -5, false},
	} {
		if got := callB(t, c.name, 1, mat.Scalar(c.x))[0].Kind() == mat.Complex; got != c.cplx {
			t.Errorf("%s(%v) complex = %t, want %t", c.name, c.x, got, c.cplx)
		}
	}
}
