package mat

import (
	"math"
	"strings"
	"testing"
)

func denseFrom(rows, cols int, colMajor []float64) *Value {
	v := New(rows, cols)
	copy(v.re, colMajor)
	return v
}

func bitsEqual(t *testing.T, what string, got, want *Value) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	g, err := got.Dense()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	w, err := want.Dense()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for i := range w.re {
		if math.Float64bits(g.re[i]) != math.Float64bits(w.re[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)",
				what, i, g.re[i], math.Float64bits(g.re[i]), w.re[i], math.Float64bits(w.re[i]))
		}
	}
}

func TestSparseDenseRoundTrip(t *testing.T) {
	d := denseFrom(2, 3, []float64{1, 0, 0, 2, 3, 0})
	s, err := d.Sparse()
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsSparse() || s.Kind() != Real {
		t.Fatalf("Sparse() not a sparse Real value")
	}
	if s.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3 (exact zeros dropped)", s.NNZ())
	}
	if got := s.Density(); got != 0.5 {
		t.Fatalf("Density = %v, want 0.5", got)
	}
	bitsEqual(t, "round trip", s, d)
	// Already-sparse returns the same value; dense on dense likewise.
	if s2, _ := s.Sparse(); s2 != s {
		t.Fatal("Sparse() on sparse must return the receiver")
	}
	if d2, _ := d.Dense(); d2 != d {
		t.Fatal("Dense() on dense must return the receiver")
	}
}

func TestSparseCloneSharesPayload(t *testing.T) {
	s, _ := denseFrom(2, 2, []float64{1, 0, 0, 2}).Sparse()
	c := s.Clone()
	if !c.IsSparse() || c.sp != s.sp {
		t.Fatal("Clone must share the immutable CSR payload")
	}
}

func TestSparseAt(t *testing.T) {
	s, _ := denseFrom(3, 3, []float64{1, 0, 0, 0, 5, 0, 2, 0, 9}).Sparse()
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			want := []float64{1, 0, 0, 0, 5, 0, 2, 0, 9}[c*3+r]
			if got := s.At(r, c); got != want {
				t.Fatalf("At(%d,%d) = %v, want %v", r, c, got, want)
			}
		}
	}
}

func TestSparseFromTripletsSumsDuplicates(t *testing.T) {
	// (0,0) appears twice and sums; (1,1) sums to exact zero and is
	// dropped (MATLAB sparse(i,j,s) semantics).
	s, err := SparseFromTriplets(2, 2, []int{0, 1, 0, 1}, []int{0, 1, 0, 1}, []float64{1, 2, 3, -2})
	if err != nil {
		t.Fatal(err)
	}
	if s.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1", s.NNZ())
	}
	if got := s.At(0, 0); got != 4 {
		t.Fatalf("summed entry = %v, want 4", got)
	}
	if _, err := SparseFromTriplets(2, 2, []int{2}, []int{0}, []float64{1}); err == nil {
		t.Fatal("out-of-bounds triplet must error")
	}
}

func TestSparseFromDiagsKeepsStoredZeros(t *testing.T) {
	// A band value of zero stays stored (unlike sparse(), which drops
	// exact zeros) so 0*NaN reaches results exactly as in dense code.
	d, err := SparseFromDiags(3, 3, [][]float64{{0, 0, 0}, {5, 5, 5}}, []int{-1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if d.NNZ() != 5 { // 3 diagonal + 2 subdiagonal entries, zeros stored
		t.Fatalf("NNZ = %d, want 5", d.NNZ())
	}
	if _, err := SparseFromDiags(3, 3, [][]float64{{1, 1, 1}, {2, 2, 2}}, []int{0, 0}); err == nil {
		t.Fatal("duplicate offsets must error")
	}
}

func TestSparseAddSubBitwiseVsDense(t *testing.T) {
	// Includes a negative-zero producer: 0 + (-0) and 0 - 0 differ in
	// sign bit, and the merge applies the operator against explicit 0.0
	// for unmatched entries, so sparse must match dense bit-for-bit.
	ad := denseFrom(2, 2, []float64{1, 0, -2, 0.5})
	bd := denseFrom(2, 2, []float64{-1, 3, 2, 0.25})
	as, _ := ad.Sparse()
	bs, _ := bd.Sparse()
	for _, sub := range []bool{false, true} {
		op, name := Add, "sparse+sparse"
		if sub {
			op, name = Sub, "sparse-sparse"
		}
		want, err := op(ad, bd)
		if err != nil {
			t.Fatal(err)
		}
		got, err := op(as, bs)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, name, got, want)
	}
	// Matching entries that sum to zero stay stored: 1 + (-1) = 0 must
	// remain in the pattern (the pattern is wide enough that the result
	// density stays under the cutoff).
	x, _ := denseFrom(1, 10, []float64{1, 0, 0, 0, 0, 0, 0, 0, 0, 0}).Sparse()
	y, _ := denseFrom(1, 10, []float64{-1, 2, 0, 0, 0, 0, 0, 0, 0, 0}).Sparse()
	sum, err := Add(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.IsSparse() || sum.NNZ() != 2 {
		t.Fatalf("computed zero must stay stored: sparse=%v nnz=%d", sum.IsSparse(), sum.NNZ())
	}
}

func TestSparseElemMulAndNeg(t *testing.T) {
	// b is fully nonzero: the pattern intersection is exactly a's
	// pattern, so every dense element is reproduced (a negative stored
	// value against a *dropped* zero would give +0 sparse vs -0 dense —
	// the documented implicit-zero divergence — so none appears here).
	ad := denseFrom(2, 2, []float64{1, 0, -2, 4})
	bd := denseFrom(2, 2, []float64{3, 5, 7, 0.5})
	as, _ := ad.Sparse()
	bs, _ := bd.Sparse()
	want, _ := ElemMul(ad, bd)
	got, err := ElemMul(as, bs)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "sparse .* sparse", got, want)

	// Scalar scale keeps the representation sparse below the threshold.
	sc, err := ElemMul(Scalar(2), as)
	if err != nil {
		t.Fatal(err)
	}
	wantSc, _ := ElemMul(Scalar(2), ad)
	bitsEqual(t, "scalar .* sparse", sc, wantSc)

	// Unary minus on a low-density operand (1/4 < cutoff) stays sparse.
	lo, _ := denseFrom(2, 2, []float64{1, 0, 0, 0}).Sparse()
	ng, err := Neg(lo)
	if err != nil {
		t.Fatal(err)
	}
	if !ng.IsSparse() {
		t.Fatal("unary minus must stay sparse")
	}
	if got := ng.At(0, 0); got != -1 {
		t.Fatalf("-a stored entry = %v, want -1", got)
	}
	// Implicit zeros stay +0 (the documented MATLAB-faithful divergence
	// from dense negation's -0).
	if bits := math.Float64bits(ng.At(1, 0)); bits != 0 {
		t.Fatalf("-a implicit zero = %#x, want +0", bits)
	}
}

func TestSparseMulMatchesDenseBitwise(t *testing.T) {
	// Fully stored CSR (no dropped zeros) against the dense product:
	// SpMV mirrors Dgemv's accumulation order, so the result is
	// bit-identical, including the matrix RHS through SpMM.
	ad := denseFrom(3, 3, []float64{2, -1, 0.5, 1, 3, -2, 4, 0.25, 7})
	as, _ := ad.Sparse()
	xd := denseFrom(3, 1, []float64{0.3, -1.7, 2.9})
	want, _ := Mul(ad, xd)
	got, err := Mul(as, xd)
	if err != nil {
		t.Fatal(err)
	}
	if got.IsSparse() {
		t.Fatal("sparse * dense vector must produce a dense result")
	}
	bitsEqual(t, "SpMV", got, want)

	bd := denseFrom(3, 2, []float64{1, 2, 3, 4, 5, 6})
	wantM, _ := Mul(ad, bd)
	gotM, err := Mul(as, bd)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "SpMM", gotM, wantM)

	// dense * sparse routes through the transpose identity.
	rd := denseFrom(1, 3, []float64{1, -2, 3})
	wantR, _ := Mul(rd, ad)
	gotR, err := Mul(rd, as)
	if err != nil {
		t.Fatal(err)
	}
	if gotR.Rows() != 1 || gotR.Cols() != 3 {
		t.Fatalf("dense * sparse shape %dx%d", gotR.Rows(), gotR.Cols())
	}
	for i := range wantR.re {
		if math.Abs(gotR.re[i]-wantR.re[i]) > 1e-12 {
			t.Fatalf("dense*sparse[%d] = %v, want %v", i, gotR.re[i], wantR.re[i])
		}
	}
}

func TestSparseTransposeCached(t *testing.T) {
	s, _ := denseFrom(2, 3, []float64{1, 0, 2, 3, 0, 4}).Sparse()
	st, err := Transpose(s)
	if err != nil {
		t.Fatal(err)
	}
	if !st.IsSparse() || st.Rows() != 3 || st.Cols() != 2 {
		t.Fatalf("transpose shape/representation wrong")
	}
	d, _ := s.Dense()
	wd, _ := Transpose(d)
	bitsEqual(t, "sparse transpose", st, wd)
	// A'' returns the original payload via the cache back-pointer.
	stt, err := Transpose(st)
	if err != nil {
		t.Fatal(err)
	}
	if stt.sp != s.sp {
		t.Fatal("double transpose must return the cached original payload")
	}
}

func TestSparseThresholdDensifiesResults(t *testing.T) {
	// Operator result at density 0.75 > SparseThreshold: densifies.
	a, _ := denseFrom(2, 2, []float64{1, 0, 2, 3}).Sparse()
	sum, err := Add(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if sum.IsSparse() {
		t.Fatal("result above the density cutoff must densify")
	}
	// At the cutoff itself (density 0.5) the result stays sparse.
	b, _ := denseFrom(2, 2, []float64{1, 0, 2, 0}).Sparse()
	if sum, err = Add(b, b); err != nil || !sum.IsSparse() {
		t.Fatalf("result at the density cutoff must stay sparse (err %v)", err)
	}
	// Constructors are exempt: a 3x3 matrix with 7 stored entries stays
	// sparse.
	c, err := SparseFromTriplets(3, 3, []int{0, 0, 0, 1, 1, 2, 2}, []int{0, 1, 2, 0, 1, 0, 2}, []float64{1, 1, 1, 1, 1, 1, 1})
	if err != nil || !c.IsSparse() {
		t.Fatalf("constructors must not densify (err %v)", err)
	}
	// Threshold 1 keeps everything sparse.
	if !densifyAbove(a, 1).IsSparse() {
		t.Fatal("threshold 1 must keep results sparse")
	}
}

func TestSparseDenseGuard(t *testing.T) {
	// 2^14 x 2^14 = 2^28 elements exceeds the guard: Dense() must refuse
	// rather than allocate 2 GB, and finishSparse must fall back to the
	// sparse representation.
	big := SparseEye(1<<14, 1<<14)
	if _, err := big.Dense(); err == nil || !strings.Contains(err.Error(), "refusing to densify") {
		t.Fatalf("dense guard: err = %v", err)
	}
	if !densifyAbove(big, 0).IsSparse() {
		t.Fatal("guard-refused densification must keep the sparse form")
	}
}

func TestSparseDiagMatchesDense(t *testing.T) {
	ad := denseFrom(3, 3, []float64{1, 0, 0, 0, 0, 5, 2, 0, 9})
	as, _ := ad.Sparse()
	d := SparseDiag(as)
	if d.IsSparse() || d.Rows() != 3 || d.Cols() != 1 {
		t.Fatalf("SparseDiag shape/representation wrong")
	}
	for i, want := range []float64{1, 0, 9} {
		if d.re[i] != want {
			t.Fatalf("diag[%d] = %v, want %v", i, d.re[i], want)
		}
	}
}

func TestSparseTriSolveDispatch(t *testing.T) {
	// Lower bidiagonal system: solve and multiply back.
	l, err := SparseFromDiags(4, 4, [][]float64{{-1, -1, -1, -1}, {2, 2, 2, 2}}, []int{-1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if SparseTriangularity(l) != 1 { // sparse.Lower
		t.Fatalf("triangularity = %v, want Lower", SparseTriangularity(l))
	}
	b := denseFrom(4, 1, []float64{2, 1, 1, 1})
	x, err := SparseTriSolve(l, b)
	if err != nil {
		t.Fatal(err)
	}
	back, _ := Mul(l, x)
	for i := range b.re {
		if math.Abs(back.re[i]-b.re[i]) > 1e-12 {
			t.Fatalf("L*x[%d] = %v, want %v", i, back.re[i], b.re[i])
		}
	}
	// Singular diagonal surfaces as a runtime error.
	sing, _ := SparseFromDiags(2, 2, [][]float64{{0, 1}}, []int{0})
	if _, err := SparseTriSolve(sing, denseFrom(2, 1, []float64{1, 1})); err == nil {
		t.Fatal("singular triangular solve must error")
	}
}

func TestSparseStringFormat(t *testing.T) {
	s, _ := denseFrom(2, 2, []float64{1, 0, 0, 3}).Sparse()
	out := s.String()
	if !strings.Contains(out, "(1,1)") || !strings.Contains(out, "(2,2)") {
		t.Fatalf("sparse display missing entries: %q", out)
	}
	if z := SparseZeros(2, 2).String(); !strings.Contains(z, "All zero sparse") {
		t.Fatalf("all-zero display: %q", z)
	}
}

func TestSparseIndexedAssignDensifies(t *testing.T) {
	// Indexed assignment has no sparse fast path: the value densifies in
	// place (after copy-on-write), keeping the result correct.
	s, _ := denseFrom(2, 2, []float64{1, 0, 0, 4}).Sparse()
	if err := s.densifyInPlace(); err != nil {
		t.Fatal(err)
	}
	if s.IsSparse() || s.At(1, 1) != 4 {
		t.Fatal("densifyInPlace must swap representation and keep values")
	}
}
