package mat

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func wantScalar(t *testing.T, v *Value, want float64) {
	t.Helper()
	got, err := v.Scalar()
	if err != nil {
		t.Fatalf("not a scalar: %v", err)
	}
	if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
		t.Fatalf("got %g, want %g", got, want)
	}
}

func TestConstructors(t *testing.T) {
	v := New(2, 3)
	if v.Rows() != 2 || v.Cols() != 3 || v.Numel() != 6 || v.Kind() != Real {
		t.Fatalf("New: %v", v)
	}
	s := Scalar(3.5)
	if !s.IsScalar() || s.MustScalar() != 3.5 {
		t.Fatal("Scalar")
	}
	b := BoolScalar(true)
	if b.Kind() != Bool || !b.IsTrue() {
		t.Fatal("BoolScalar")
	}
	z := ComplexScalar(2 + 3i)
	if z.Kind() != Complex || z.ComplexAt(0) != 2+3i {
		t.Fatal("ComplexScalar")
	}
	str := FromString("abc")
	if str.Kind() != Char || str.Text() != "abc" || str.Cols() != 3 {
		t.Fatal("FromString")
	}
	if !Empty().IsEmpty() {
		t.Fatal("Empty")
	}
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatal("FromSlice is row-major input")
	}
	// column-major storage
	if m.Re()[1] != 3 {
		t.Fatal("storage must be column-major")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{10, 20, 30, 40})
	sum, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sum.At(1, 1) != 44 {
		t.Fatalf("Add: %v", sum)
	}
	d, _ := Sub(b, a)
	if d.At(0, 0) != 9 {
		t.Fatal("Sub")
	}
	p, _ := ElemMul(a, b)
	if p.At(1, 0) != 90 {
		t.Fatal("ElemMul")
	}
	q, _ := ElemDiv(b, a)
	if q.At(1, 1) != 10 {
		t.Fatal("ElemDiv")
	}
	// scalar broadcasting
	s, _ := Add(a, Scalar(100))
	if s.At(0, 1) != 102 {
		t.Fatal("broadcast add")
	}
	// shape mismatch errors
	if _, err := Add(a, New(3, 3)); err == nil {
		t.Fatal("shape mismatch must error")
	}
}

func TestMatMul(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	for i := 0; i < 4; i++ {
		if c.Re()[i] != want.Re()[i] {
			t.Fatalf("Mul: got %v want %v", c, want)
		}
	}
	if _, err := Mul(a, a); err == nil {
		t.Fatal("inner dimension mismatch must error")
	}
	// scalar falls back to elementwise
	s, _ := Mul(Scalar(2), b)
	if s.At(2, 1) != 24 {
		t.Fatal("scalar*matrix")
	}
	// complex product
	z1 := ComplexScalar(1 + 1i)
	z2 := ComplexScalar(1 - 1i)
	zp, _ := Mul(z1, z2)
	wantScalar(t, zp, 2)
}

func TestPow(t *testing.T) {
	wantScalar(t, must(Pow(Scalar(2), Scalar(10))), 1024)
	wantScalar(t, must(Pow(Scalar(-2), Scalar(3))), -8)
	// negative base with fractional exponent promotes to complex
	z := must(Pow(Scalar(-4), Scalar(0.5)))
	if z.Kind() != Complex || math.Abs(z.Im()[0]-2) > 1e-12 {
		t.Fatalf("(-4)^0.5 = %v", z)
	}
	// matrix power by squaring
	a := FromSlice(2, 2, []float64{1, 1, 1, 0}) // Fibonacci matrix
	p := must(Pow(a, Scalar(10)))
	if p.At(0, 0) != 89 { // F(11)
		t.Fatalf("A^10: %v", p)
	}
	// A^0 = I
	p0 := must(Pow(a, Scalar(0)))
	if p0.At(0, 0) != 1 || p0.At(0, 1) != 0 {
		t.Fatal("A^0 must be identity")
	}
}

func must(v *Value, err error) *Value {
	if err != nil {
		panic(err)
	}
	return v
}

func TestTranspose(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	at := must(Transpose(a))
	if at.Rows() != 3 || at.Cols() != 2 || at.At(2, 1) != 6 {
		t.Fatalf("transpose: %v", at)
	}
	z := ComplexScalar(1 + 2i)
	if must(Transpose(z)).ComplexAt(0) != 1-2i {
		t.Fatal("' must conjugate")
	}
	if must(DotTranspose(z)).ComplexAt(0) != 1+2i {
		t.Fatal(".' must not conjugate")
	}
}

func TestCompare(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{2, 2, 2})
	lt := must(Compare(CmpLt, a, b))
	if lt.Kind() != Bool || lt.Re()[0] != 1 || lt.Re()[1] != 0 || lt.Re()[2] != 0 {
		t.Fatalf("lt: %v", lt)
	}
	// NaN compares false with everything except ~=
	n := Scalar(math.NaN())
	if must(Compare(CmpEq, n, n)).IsTrue() {
		t.Fatal("NaN == NaN must be false")
	}
	if !must(Compare(CmpNe, n, n)).IsTrue() {
		t.Fatal("NaN ~= NaN must be true")
	}
	if must(Compare(CmpLt, n, Scalar(1))).IsTrue() {
		t.Fatal("NaN < 1 must be false")
	}
	// complex equality uses both parts
	if must(Compare(CmpEq, ComplexScalar(1+2i), ComplexScalar(1+2i))).Re()[0] != 1 {
		t.Fatal("complex eq")
	}
	if must(Compare(CmpEq, ComplexScalar(1+2i), ComplexScalar(1-2i))).Re()[0] != 0 {
		t.Fatal("complex ne")
	}
	// ordering disregards imaginary parts (paper's observation)
	if must(Compare(CmpLt, ComplexScalar(1+5i), ComplexScalar(2))).Re()[0] != 1 {
		t.Fatal("complex ordering uses real parts")
	}
}

func TestColon(t *testing.T) {
	v := must(Colon(Scalar(1), Scalar(1), Scalar(5)))
	if v.Rows() != 1 || v.Cols() != 5 || v.Re()[4] != 5 {
		t.Fatalf("1:5 = %v", v)
	}
	v = must(Colon(Scalar(5), Scalar(-2), Scalar(0)))
	if v.Cols() != 3 || v.Re()[2] != 1 {
		t.Fatalf("5:-2:0 = %v", v)
	}
	v = must(Colon(Scalar(1), Scalar(1), Scalar(0)))
	if !v.IsEmpty() || v.Rows() != 1 {
		t.Fatalf("1:0 must be 1x0, got %dx%d", v.Rows(), v.Cols())
	}
	v = must(Colon(Scalar(0), Scalar(0.1), Scalar(1)))
	if v.Cols() != 11 {
		t.Fatalf("0:0.1:1 has %d elements, want 11", v.Cols())
	}
	// zero step → empty
	v = must(Colon(Scalar(1), Scalar(0), Scalar(5)))
	if !v.IsEmpty() {
		t.Fatal("zero step must be empty")
	}
}

func TestCat(t *testing.T) {
	a := Scalar(1)
	b := Scalar(2)
	row := must(HorzCat([]*Value{a, b}))
	if row.Rows() != 1 || row.Cols() != 2 {
		t.Fatal("horzcat scalars")
	}
	col := must(VertCat([]*Value{row.Clone(), row.Clone()}))
	if col.Rows() != 2 || col.Cols() != 2 {
		t.Fatal("vertcat rows")
	}
	// [A; 2A] stacking respects columns
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	m2, _ := ElemMul(m, Scalar(2))
	st := must(VertCat([]*Value{m, m2}))
	if st.Rows() != 4 || st.At(3, 1) != 8 {
		t.Fatalf("stack: %v", st)
	}
	// empties drop out
	e := must(HorzCat([]*Value{Empty(), Scalar(7)}))
	wantScalar(t, e, 7)
	// mismatched rows error
	if _, err := HorzCat([]*Value{New(2, 1), New(3, 1)}); err == nil {
		t.Fatal("row mismatch must error")
	}
	// single-element bracket must not alias its operand
	orig := FromSlice(1, 2, []float64{1, 2})
	wrapped := must(VertCat([]*Value{orig}))
	wrapped.Re()[0] = 99
	if orig.Re()[0] == 99 {
		t.Fatal("[x] aliases x")
	}
}

func TestIndexRead(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	// linear indexing is column-major
	v, err := a.CheckedGet1(3)
	if err != nil || v != 2 {
		t.Fatalf("A(3) = %g (%v)", v, err)
	}
	if _, err := a.CheckedGet1(7); err == nil {
		t.Fatal("out of bounds must error")
	}
	if _, err := a.CheckedGet1(0); err == nil {
		t.Fatal("zero subscript must error")
	}
	if _, err := a.CheckedGet1(1.5); err == nil {
		t.Fatal("fractional subscript must error")
	}
	x, err := a.CheckedGet2(2, 3)
	if err != nil || x != 6 {
		t.Fatalf("A(2,3) = %g (%v)", x, err)
	}
	// subscript vectors
	sub, _ := ResolveSubscript(FromSlice(1, 2, []float64{1, 3}))
	sub.ShapeRows, sub.ShapeCols = 1, 2
	got, err := Index1(a, sub)
	if err != nil || got.Re()[0] != 1 || got.Re()[1] != 2 {
		t.Fatalf("A([1 3]) = %v (%v)", got, err)
	}
	// colon subscript flattens
	all, _ := Index1(a, Subscript{Colon: true})
	if all.Rows() != 6 || all.Cols() != 1 {
		t.Fatal("A(:) must be a column")
	}
	// 2-D with colon
	colSub, _ := ResolveSubscript(Scalar(2))
	colSub.ShapeRows, colSub.ShapeCols = 1, 1
	col, err := Index2(a, Subscript{Colon: true}, colSub)
	if err != nil || col.Rows() != 2 || col.Re()[0] != 2 || col.Re()[1] != 5 {
		t.Fatalf("A(:,2) = %v (%v)", col, err)
	}
}

func TestStoreGrowth(t *testing.T) {
	// linear growth of a row vector
	v := FromSlice(1, 2, []float64{1, 2})
	if err := v.CheckedSet1(5, 9); err != nil {
		t.Fatal(err)
	}
	if v.Rows() != 1 || v.Cols() != 5 || v.Re()[4] != 9 || v.Re()[2] != 0 {
		t.Fatalf("grown: %v", v)
	}
	// 2-D growth preserves content
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if err := a.CheckedSet2(3, 4, 7); err != nil {
		t.Fatal(err)
	}
	if a.Rows() != 3 || a.Cols() != 4 || a.At(0, 1) != 2 || a.At(2, 3) != 7 || a.At(2, 0) != 0 {
		t.Fatalf("2-D grown: %v", a)
	}
	// linear index overflow on a true matrix is an error
	m := New(2, 2)
	if err := m.CheckedSet1(5, 1); err == nil {
		t.Fatal("linear growth of a matrix must error")
	}
	// growing an empty creates a row vector
	e := Empty()
	if err := e.CheckedSet1(3, 5); err != nil {
		t.Fatal(err)
	}
	if e.Rows() != 1 || e.Cols() != 3 {
		t.Fatalf("empty growth: %dx%d", e.Rows(), e.Cols())
	}
}

func TestOversizing(t *testing.T) {
	// repeated append-style growth must not reallocate every time
	v := New(1, 1)
	reallocs := 0
	lastCap := v.Cap()
	for i := 2; i <= 1000; i++ {
		if err := v.CheckedSet1(float64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
		if v.Cap() != lastCap {
			reallocs++
			lastCap = v.Cap()
		}
	}
	if reallocs >= 900 {
		t.Fatalf("oversizing ineffective: %d reallocations for 999 appends", reallocs)
	}
	// the oversized array reports exact dimensions (paper: "The
	// oversized array, when queried, returns accurate size information")
	if v.Cols() != 1000 || v.Numel() != 1000 {
		t.Fatalf("size must be exact: %dx%d", v.Rows(), v.Cols())
	}
	if v.Cap() < v.Numel() {
		t.Fatal("capacity below size")
	}
	// huge arrays are never oversized
	big := New(1, oversizeLimit)
	if big.Cap() != oversizeLimit {
		t.Fatalf("large array was oversized: cap %d", big.Cap())
	}
}

func TestAssignSemantics(t *testing.T) {
	// A(:) = scalar fills in place
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if err := Assign1(a, Subscript{Colon: true}, Scalar(9)); err != nil {
		t.Fatal(err)
	}
	for _, x := range a.Re() {
		if x != 9 {
			t.Fatal("fill failed")
		}
	}
	// vector rhs must match subscript count
	b := New(1, 4)
	sub, _ := ResolveSubscript(FromSlice(1, 2, []float64{1, 3}))
	if err := Assign1(b, sub, FromSlice(1, 2, []float64{5, 6})); err != nil {
		t.Fatal(err)
	}
	if b.Re()[0] != 5 || b.Re()[2] != 6 {
		t.Fatalf("vector assign: %v", b)
	}
	if err := Assign1(b, sub, FromSlice(1, 3, []float64{1, 2, 3})); err == nil {
		t.Fatal("count mismatch must error")
	}
	// complex rhs promotes the array
	c := New(1, 2)
	s1, _ := ResolveSubscript(Scalar(1))
	if err := Assign1(c, s1, ComplexScalar(2i)); err != nil {
		t.Fatal(err)
	}
	if c.Kind() != Complex || c.Im()[0] != 2 {
		t.Fatalf("promotion: %v", c)
	}
}

func TestCopyOnWriteFlag(t *testing.T) {
	v := Scalar(1)
	if v.IsShared() {
		t.Fatal("fresh values are unshared")
	}
	v.MarkShared()
	if !v.IsShared() {
		t.Fatal("MarkShared")
	}
	c := v.Clone()
	if c.IsShared() {
		t.Fatal("clones are unshared")
	}
}

func TestTruthiness(t *testing.T) {
	if Empty().IsTrue() {
		t.Fatal("[] is false")
	}
	if !Scalar(5).IsTrue() || Scalar(0).IsTrue() {
		t.Fatal("scalar truth")
	}
	if FromSlice(1, 3, []float64{1, 0, 1}).IsTrue() {
		t.Fatal("all() semantics: any zero → false")
	}
	if !FromSlice(1, 3, []float64{1, 2, 3}).IsTrue() {
		t.Fatal("all nonzero → true")
	}
	if !ComplexScalar(1i).IsTrue() {
		t.Fatal("nonzero imaginary counts")
	}
}

func TestLogicalOps(t *testing.T) {
	a := FromSlice(1, 4, []float64{0, 0, 1, 1})
	b := FromSlice(1, 4, []float64{0, 1, 0, 1})
	and := must(And(a, b))
	or := must(Or(a, b))
	not := must(Not(a))
	wantRow := func(v *Value, want []float64) {
		t.Helper()
		for i, w := range want {
			if v.Re()[i] != w {
				t.Fatalf("%v, want %v", v.Re(), want)
			}
		}
	}
	wantRow(and, []float64{0, 0, 0, 1})
	wantRow(or, []float64{0, 1, 1, 1})
	wantRow(not, []float64{1, 1, 0, 0})
}

func TestDemote(t *testing.T) {
	z := NewKind(Complex, 1, 2)
	z.Re()[0] = 1
	z.Re()[1] = 2
	d := z.Demote()
	if d.Kind() != Real {
		t.Fatal("zero-imag complex must demote")
	}
	z.Im()[1] = 3
	if z.Demote().Kind() != Complex {
		t.Fatal("nonzero-imag complex must not demote")
	}
}

// --- property-based tests ------------------------------------------------------

func randValue(r *rand.Rand, maxDim int) *Value {
	rows := 1 + r.Intn(maxDim)
	cols := 1 + r.Intn(maxDim)
	v := New(rows, cols)
	for i := range v.Re() {
		v.Re()[i] = math.Round(100*(r.Float64()*2-1)) / 10
	}
	return v
}

func propCfg(seed int64, maxDim int) *quick.Config {
	r := rand.New(rand.NewSource(seed))
	return &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, _ *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(randValue(r, maxDim))
			}
		},
	}
}

// Add is commutative.
func TestPropAddCommutative(t *testing.T) {
	f := func(ai, bi interface{}) bool {
		a := ai.(*Value)
		b := bi.(*Value)
		if !SameShape(a, b) {
			return true
		}
		x, err1 := Add(a, b)
		y, err2 := Add(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range x.Re() {
			if x.Re()[i] != y.Re()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, propCfg(1, 4)); err != nil {
		t.Error(err)
	}
}

// (A')' == A.
func TestPropDoubleTranspose(t *testing.T) {
	f := func(ai interface{}) bool {
		a := ai.(*Value)
		tt := must(Transpose(must(Transpose(a))))
		if !SameShape(a, tt) {
			return false
		}
		for i := range a.Re() {
			if a.Re()[i] != tt.Re()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, propCfg(2, 5)); err != nil {
		t.Error(err)
	}
}

// (A*B)' == B'*A'.
func TestPropTransposeProduct(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		m, k, n := 1+r.Intn(4), 1+r.Intn(4), 1+r.Intn(4)
		a := New(m, k)
		b := New(k, n)
		for i := range a.Re() {
			a.Re()[i] = float64(r.Intn(11) - 5)
		}
		for i := range b.Re() {
			b.Re()[i] = float64(r.Intn(11) - 5)
		}
		lhs := must(Transpose(must(Mul(a, b))))
		rhs := must(Mul(must(Transpose(b)), must(Transpose(a))))
		for i := range lhs.Re() {
			if lhs.Re()[i] != rhs.Re()[i] {
				t.Fatalf("(AB)' != B'A' at case %d", i)
			}
		}
	}
}

// Clone is deep: mutating the clone never touches the original.
func TestPropCloneIndependence(t *testing.T) {
	f := func(ai interface{}) bool {
		a := ai.(*Value)
		c := a.Clone()
		before := append([]float64(nil), a.Re()...)
		for i := range c.Re() {
			c.Re()[i] = -999
		}
		for i := range a.Re() {
			if a.Re()[i] != before[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, propCfg(4, 5)); err != nil {
		t.Error(err)
	}
}

// Growth preserves all previously stored elements and zero-fills.
func TestPropGrowthPreserves(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+r.Intn(5), 1+r.Intn(5)
		a := New(rows, cols)
		for i := range a.Re() {
			a.Re()[i] = r.Float64()
		}
		orig := a.Clone()
		nr, nc := rows+r.Intn(5), cols+r.Intn(5)
		a.Grow(nr, nc)
		if a.Rows() != nr || a.Cols() != nc {
			t.Fatalf("grow to %dx%d gave %dx%d", nr, nc, a.Rows(), a.Cols())
		}
		for c := 0; c < nc; c++ {
			for rr := 0; rr < nr; rr++ {
				want := 0.0
				if rr < rows && c < cols {
					want = orig.At(rr, c)
				}
				if a.At(rr, c) != want {
					t.Fatalf("grow corrupted (%d,%d): got %g want %g", rr, c, a.At(rr, c), want)
				}
			}
		}
	}
}

// Index1 then Assign1 round-trips.
func TestPropIndexAssignRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(8)
		v := New(1, n)
		for i := range v.Re() {
			v.Re()[i] = r.Float64()
		}
		idx := 1 + r.Intn(n)
		x := r.Float64()
		if err := v.CheckedSet1(float64(idx), x); err != nil {
			t.Fatal(err)
		}
		got, err := v.CheckedGet1(float64(idx))
		if err != nil || got != x {
			t.Fatalf("round trip failed: %g != %g (%v)", got, x, err)
		}
	}
}

// TestScalarBoxIsOneAllocation: the scalar constructors keep their one
// element inside the Value (96-byte size class), so boxing a scalar is
// one allocation, and so are cloning one and adding two.
func TestScalarBoxIsOneAllocation(t *testing.T) {
	var sink *Value
	for name, mk := range map[string]func(){
		"Scalar":     func() { sink = Scalar(1.5) },
		"IntScalar":  func() { sink = IntScalar(2) },
		"BoolScalar": func() { sink = BoolScalar(true) },
		"Clone":      func() { sink = sink.Clone() },
		"Add":        func() { sink, _ = Add(sink, sink) },
	} {
		sink = Scalar(1)
		if n := testing.AllocsPerRun(100, mk); n != 1 {
			t.Errorf("%s: %.0f allocations, want 1", name, n)
		}
	}
	if sz := unsafe.Sizeof(Value{}); sz > 96 {
		t.Errorf("Value is %d bytes: it left the 96-byte size class", sz)
	}
}

// TestScalarFastPathMatchesElementwiseLoop: scalar∘scalar takes a
// shortcut at the top of elementwise. It must agree bit for bit, kind
// included, with the general loop — reached here by computing the same
// operation on 2-element vectors and reading element 0.
func TestScalarFastPathMatchesElementwiseLoop(t *testing.T) {
	xs := []float64{0, 1, -1, 2, 3, 0.5, -2.5, 1e308, -1e308, 5e-324, math.Inf(1), math.Inf(-1), math.NaN(), 1 << 53, math.Copysign(0, -1)}
	kinds := []Kind{Bool, Int, Real, Char}
	ops := map[string]func(a, b *Value) (*Value, error){"add": Add, "sub": Sub, "mul": ElemMul, "div": ElemDiv}
	mk := func(k Kind, x float64, n int) *Value {
		re := make([]float64, n)
		for i := range re {
			re[i] = x
		}
		return FromColMajor(k, 1, n, re, nil)
	}
	for name, op := range ops {
		for _, ka := range kinds {
			for _, kb := range kinds {
				for _, x := range xs {
					for _, y := range xs {
						if (ka == Bool && x != 0 && x != 1) || (kb == Bool && y != 0 && y != 1) {
							continue
						}
						fast, err1 := op(mk(ka, x, 1), mk(kb, y, 1))
						slow, err2 := op(mk(ka, x, 2), mk(kb, y, 2))
						if err1 != nil || err2 != nil {
							t.Fatalf("%s: %v %v", name, err1, err2)
						}
						// The loop decides Int-ness over all elements; both
						// are equal here, so the kinds must agree.
						if fast.Kind() != slow.Kind() || math.Float64bits(fast.Re()[0]) != math.Float64bits(slow.Re()[0]) {
							t.Fatalf("%s(%v %g, %v %g): scalar path %v %g, loop %v %g",
								name, ka, x, kb, y, fast.Kind(), fast.Re()[0], slow.Kind(), slow.Re()[0])
						}
					}
				}
			}
		}
	}
	// Complex operands bypass the shortcut.
	z, err := Add(ComplexScalar(complex(1, 2)), Scalar(1))
	if err != nil || z.Kind() != Complex || z.ComplexAt(0) != complex(2, 2) {
		t.Fatalf("complex scalar add: %v %v", z, err)
	}
}
