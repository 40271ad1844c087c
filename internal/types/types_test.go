package types

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// genType produces a random lattice element for property tests.
func genType(r *rand.Rand) Type {
	intrinsics := []Intrinsic{IBottom, IBool, IInt, IReal, ICplx, IStrg, ITop}
	i := intrinsics[r.Intn(len(intrinsics))]
	if i == IBottom {
		return Bottom
	}
	ext := func() Extent {
		switch r.Intn(4) {
		case 0:
			return InfExt
		default:
			return Fin(r.Intn(5))
		}
	}
	minS := Shape{ext(), ext()}
	maxS := JoinS(minS, Shape{ext(), ext()}) // keep min ⊑ max
	var rng Range
	switch r.Intn(4) {
	case 0:
		rng = RangeBot
	case 1:
		rng = RangeTop
	case 2:
		v := float64(r.Intn(21) - 10)
		rng = Const(v)
	default:
		lo := float64(r.Intn(21) - 10)
		hi := lo + float64(r.Intn(10))
		rng = MkRange(lo, hi)
	}
	return Type{I: i, MinShape: minS, MaxShape: maxS, R: rng}
}

func quickCfg() *quick.Config {
	r := rand.New(rand.NewSource(7))
	return &quick.Config{
		MaxCount: 2000,
		Values: func(vals []reflect.Value, _ *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(genType(r))
			}
		},
	}
}

// typeEq compares lattice elements by mutual ⊑ (plain == mis-compares
// the NaN endpoints of ⊥ ranges).
func typeEq(a, b Type) bool { return Leq(a, b) && Leq(b, a) }

func TestJoinCommutative(t *testing.T) {
	f := func(a, b interface{}) bool {
		x, y := a.(Type), b.(Type)
		return typeEq(Join(x, y), Join(y, x))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestJoinIdempotent(t *testing.T) {
	f := func(a interface{}) bool {
		x := a.(Type)
		j := Join(x, x)
		return Leq(x, j) && Leq(j, x)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestJoinUpperBound(t *testing.T) {
	f := func(a, b interface{}) bool {
		x, y := a.(Type), b.(Type)
		j := Join(x, y)
		return Leq(x, j) && Leq(y, j)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestJoinAssociativeOrder(t *testing.T) {
	f := func(a, b, c interface{}) bool {
		x, y, z := a.(Type), b.(Type), c.(Type)
		l := Join(Join(x, y), z)
		r := Join(x, Join(y, z))
		return Leq(l, r) && Leq(r, l)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestLeqPartialOrder(t *testing.T) {
	// reflexive
	f := func(a interface{}) bool { x := a.(Type); return Leq(x, x) }
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error("reflexivity:", err)
	}
	// transitive: a ⊑ a⊔b ⊑ (a⊔b)⊔c
	g := func(a, b, c interface{}) bool {
		x, y, z := a.(Type), b.(Type), c.(Type)
		j1 := Join(x, y)
		j2 := Join(j1, z)
		return Leq(x, j1) && Leq(j1, j2) && Leq(x, j2)
	}
	if err := quick.Check(g, quickCfg()); err != nil {
		t.Error("transitivity:", err)
	}
}

func TestBottomTopLaws(t *testing.T) {
	f := func(a interface{}) bool {
		x := a.(Type)
		if !Leq(Bottom, x) || !Leq(x, Top) {
			return false
		}
		jb := Join(x, Bottom)
		jt := Join(x, Top)
		return Leq(jb, x) && Leq(x, jb) && Leq(jt, Top) && Leq(Top, jt)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestWidenDominates(t *testing.T) {
	// Widen(prev, next) must be ⊒ next (safe acceleration).
	f := func(a, b interface{}) bool {
		prev, next := a.(Type), b.(Type)
		w := Widen(prev, next)
		return Leq(next, w)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestIntrinsicLattice(t *testing.T) {
	// chain: ⊥ ⊑ bool ⊑ int ⊑ real ⊑ cplx ⊑ ⊤ and ⊥ ⊑ strg ⊑ ⊤
	chain := []Intrinsic{IBottom, IBool, IInt, IReal, ICplx, ITop}
	for i := 0; i < len(chain); i++ {
		for j := i; j < len(chain); j++ {
			if !LeqI(chain[i], chain[j]) {
				t.Errorf("LeqI(%v, %v) = false", chain[i], chain[j])
			}
			if i < j && LeqI(chain[j], chain[i]) {
				t.Errorf("LeqI(%v, %v) = true", chain[j], chain[i])
			}
		}
	}
	if !LeqI(IBottom, IStrg) || !LeqI(IStrg, ITop) {
		t.Error("strg arm broken")
	}
	for _, n := range []Intrinsic{IBool, IInt, IReal, ICplx} {
		if LeqI(n, IStrg) || LeqI(IStrg, n) {
			t.Errorf("strg must be incomparable with %v", n)
		}
		if JoinI(n, IStrg) != ITop {
			t.Errorf("join(%v, strg) should be ⊤", n)
		}
	}
}

func TestRangeLattice(t *testing.T) {
	if !LeqR(RangeBot, Const(5)) {
		t.Error("⊥ ⊑ [5,5]")
	}
	if !LeqR(Const(5), MkRange(0, 10)) {
		t.Error("[5,5] ⊑ [0,10]")
	}
	if LeqR(MkRange(0, 10), Const(5)) {
		t.Error("[0,10] ⊄ [5,5]")
	}
	if !LeqR(MkRange(0, 10), RangeTop) {
		t.Error("anything ⊑ ⊤")
	}
	j := JoinR(MkRange(0, 2), MkRange(5, 9))
	if j.Lo != 0 || j.Hi != 9 {
		t.Errorf("hull join got %v", j)
	}
	if v, ok := Const(3.5).IsConst(); !ok || v != 3.5 {
		t.Error("IsConst on degenerate range")
	}
	if _, ok := MkRange(1, 2).IsConst(); ok {
		t.Error("IsConst on non-degenerate range")
	}
}

func TestShapeLattice(t *testing.T) {
	if !LeqS(ShapeBot, ScalarShape) || !LeqS(ScalarShape, ShapeTop) {
		t.Error("shape chain broken")
	}
	a := Shape{Fin(2), Fin(5)}
	b := Shape{Fin(4), Fin(3)}
	if j := JoinS(a, b); j != (Shape{Fin(4), Fin(5)}) {
		t.Errorf("JoinS = %v", j)
	}
	if m := MeetS(a, b); m != (Shape{Fin(2), Fin(3)}) {
		t.Errorf("MeetS = %v", m)
	}
	if LeqS(a, b) || LeqS(b, a) {
		t.Error("incomparable shapes compared")
	}
	if n, ok := a.Numel(); !ok || n != 10 {
		t.Error("Numel")
	}
	if _, ok := ShapeTop.Numel(); ok {
		t.Error("Numel of ⊤ must not be exact")
	}
}

func TestOfValue(t *testing.T) {
	cases := []struct {
		v    *mat.Value
		i    Intrinsic
		r, c int
	}{
		{mat.Scalar(2.5), IReal, 1, 1},
		{mat.Scalar(3), IInt, 1, 1}, // integral real scalar refines to int
		{mat.IntScalar(7), IInt, 1, 1},
		{mat.BoolScalar(true), IBool, 1, 1},
		{mat.ComplexScalar(1 + 2i), ICplx, 1, 1},
		{mat.FromString("hi"), IStrg, 1, 2},
		{mat.New(3, 4), IInt, 3, 4}, // all zeros is integral
	}
	for _, c := range cases {
		ty := OfValue(c.v)
		if ty.I != c.i {
			t.Errorf("OfValue(%v).I = %v, want %v", c.v, ty.I, c.i)
		}
		r, cc, ok := ty.ExactShape()
		if !ok || r != c.r || cc != c.c {
			t.Errorf("OfValue shape = %v", ty)
		}
	}
	// scalar range is the constant
	ty := OfValue(mat.Scalar(4.25))
	if v, ok := ty.R.IsConst(); !ok || v != 4.25 {
		t.Errorf("scalar range = %v", ty.R)
	}
	// huge arrays skip the range scan
	big := mat.New(1000, 1000)
	if !OfValue(big).R.IsTop() {
		t.Error("large array range should be ⊤")
	}
}

func TestSignatureSafety(t *testing.T) {
	intScalar := ScalarOf(IInt, Const(20))
	widened := ScalarOf(IInt, RangeTop)
	realMat := MatrixOf(IReal)
	cplxMat := MatrixOf(ICplx)

	// Q ⊑ T safety (paper §2.2.1): actual subtypes of assumed types.
	if !(Signature{widened}).Safe(Signature{intScalar}) {
		t.Error("const int scalar must be safe for widened int scalar code")
	}
	if (Signature{intScalar}).Safe(Signature{widened}) {
		t.Error("widened invocation unsafe for constant-specialized code")
	}
	if !(Signature{cplxMat}).Safe(Signature{OfValue(mat.Scalar(1.5))}) {
		t.Error("real scalar must be safe for complex-matrix code")
	}
	if (Signature{realMat}).Safe(Signature{OfValue(mat.ComplexScalar(1i))}) {
		t.Error("complex actual unsafe for real-matrix code")
	}
	if (Signature{intScalar}).Safe(Signature{intScalar, intScalar}) {
		t.Error("arity mismatch must be unsafe")
	}
}

func TestSignatureDistance(t *testing.T) {
	q := Signature{OfValue(mat.Scalar(20))}
	exact := Signature{OfValue(mat.Scalar(20))}
	widened := Signature{ScalarOf(IInt, RangeTop)}
	generic := Signature{Top}

	dExact := exact.Distance(q)
	dWide := widened.Distance(q)
	dTop := generic.Distance(q)
	if !(dExact < dWide && dWide < dTop) {
		t.Errorf("distance ordering broken: exact=%d wide=%d top=%d", dExact, dWide, dTop)
	}
	if dExact != 0 {
		t.Errorf("identical signatures should have distance 0, got %d", dExact)
	}
	if dWide < 0 || dTop < 0 {
		t.Error("distances must be nonnegative")
	}
}

func TestSignatureKeyStable(t *testing.T) {
	s := Signature{ScalarOf(IInt, Const(3)), MatrixOf(IReal)}
	if s.Key() != s.Key() {
		t.Error("Key must be deterministic")
	}
	other := Signature{ScalarOf(IInt, Const(4)), MatrixOf(IReal)}
	if s.Key() == other.Key() {
		t.Error("different signatures must have different keys")
	}
}

func TestWidenStabilizes(t *testing.T) {
	// Repeated widening along a growing chain must reach a fixpoint.
	cur := ScalarOf(IInt, Const(0))
	for i := 1; i < 100; i++ {
		next := ScalarOf(IInt, MkRange(0, float64(i)))
		w := Widen(cur, Join(cur, next))
		if i > 2 && !math.IsInf(w.R.Hi, 1) {
			t.Fatalf("widening did not accelerate at step %d: %v", i, w.R)
		}
		if w == cur && i > 3 {
			return // stabilized
		}
		cur = w
	}
	// must have stabilized to an Inf-bounded range
	if !math.IsInf(cur.R.Hi, 1) {
		t.Errorf("final range %v", cur.R)
	}
}

// TestTypesOfScalarEqualsOfValue: the function locator types a scalar
// that arrives in a register with OfScalar and one that arrives boxed
// with OfValue, and the two must select the same repository entry —
// so they must agree on every kind and every value, the ones no range
// orders included. OfValue hands dense scalars to OfScalar; the oracle
// here is therefore its array path, applied to a two-element value of the
// same kind holding the scalar twice (same intrinsic refinement, same
// range scan, only the shape differs).
func TestTypesOfScalarEqualsOfValue(t *testing.T) {
	same := func(a, b Type) bool {
		return a.I == b.I && a.MinShape == b.MinShape && a.MaxShape == b.MaxShape && a.Sp == b.Sp &&
			math.Float64bits(a.R.Lo) == math.Float64bits(b.R.Lo) && math.Float64bits(a.R.Hi) == math.Float64bits(b.R.Hi)
	}
	values := []float64{
		0, math.Copysign(0, -1), 1, -1, 2, 0.5, -0.5, 1e-300, math.SmallestNonzeroFloat64,
		1 << 53, -(1 << 53), 1<<53 + 2, 1<<53 - 1, 1e300, -1e300, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, k := range []mat.Kind{mat.Bool, mat.Int, mat.Real, mat.Char} {
		for _, x := range values {
			scalar := mat.NewKind(k, 1, 1)
			scalar.Re()[0] = x
			pair := mat.NewKind(k, 1, 2)
			pair.Re()[0], pair.Re()[1] = x, x
			want := OfValue(pair)
			want.MinShape, want.MaxShape = ScalarShape, ScalarShape
			if got := OfScalar(k, x); !same(got, want) {
				t.Errorf("OfScalar(%v, %v) = %v, the array path says %v", k, x, got, want)
			}
			if got := OfValue(scalar); !same(got, want) {
				t.Errorf("OfValue of a 1x1 %v %v = %v, the array path says %v", k, x, got, want)
			}
		}
	}
	// The constructors compiled code boxes with, and the two complex cases
	// (a complex scalar carries no range, zero imaginary part or not).
	for _, x := range values {
		if got, want := OfScalar(mat.Int, x), OfValue(mat.IntScalar(x)); !same(got, want) {
			t.Errorf("a staged I %v is typed %v, its box %v", x, got, want)
		}
		if got, want := OfScalar(mat.Real, x), OfValue(mat.Scalar(x)); !same(got, want) {
			t.Errorf("a staged F %v is typed %v, its box %v", x, got, want)
		}
		for _, im := range []float64{0, 1} {
			pair := mat.NewKind(mat.Complex, 1, 2)
			want := OfValue(pair)
			want.MinShape, want.MaxShape = ScalarShape, ScalarShape
			if got := OfValue(mat.ComplexScalar(complex(x, im))); !same(got, want) || !same(OfScalar(mat.Complex, x), want) {
				t.Errorf("complex scalar (%v, %v): OfValue %v, OfScalar %v, the array path %v", x, im, got, OfScalar(mat.Complex, x), want)
			}
		}
	}
	if got := OfScalar(mat.Int, 3); !same(got, ScalarOf(IInt, Const(3))) {
		t.Errorf("a staged I 3 is %v, want int <1,1> [3,3]", got)
	}
	// What is not a dense scalar still goes the long way round.
	if got := OfValue(mat.SparseZeros(1, 1)); !got.Sp || !got.R.IsTop() {
		t.Errorf("a sparse 1x1 value is typed %v", got)
	}
	if got := OfValue(mat.Empty()); !got.R.IsBot() || got.IsScalar() {
		t.Errorf("the empty value is typed %v", got)
	}
}
