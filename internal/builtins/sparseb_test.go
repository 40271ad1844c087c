package builtins

import (
	"math"
	"testing"

	"repro/internal/mat"
)

func colv(xs ...float64) *mat.Value { return mat.FromSlice(len(xs), 1, xs) }

func TestSparseBuiltinConversions(t *testing.T) {
	d := mat.FromSlice(2, 2, []float64{1, 0, 0, 4})
	s := call1(t, "sparse", d)
	if !s.IsSparse() {
		t.Fatal("sparse(A) must be sparse")
	}
	wantNum(t, call1(t, "nnz", s), 2)
	wantNum(t, call1(t, "issparse", s), 1)
	wantNum(t, call1(t, "issparse", d), 0)
	f := call1(t, "full", s)
	if f.IsSparse() || f.At(1, 1) != 4 {
		t.Fatal("full(sparse(A)) must round-trip dense")
	}
	// sparse on a sparse value is the identity.
	if s2 := call1(t, "sparse", s); !s2.IsSparse() {
		t.Fatal("sparse(sparse(A)) must stay sparse")
	}
	// sparse(m, n): all-zero operator.
	z := call1(t, "sparse", mat.Scalar(2), mat.Scalar(3))
	if !z.IsSparse() || z.Rows() != 2 || z.Cols() != 3 || z.NNZ() != 0 {
		t.Fatal("sparse(2,3) must be an all-zero 2x3 sparse")
	}
}

func TestSparseBuiltinTriplets(t *testing.T) {
	// sparse(i, j, s, m, n) with 1-based indices, duplicate summing.
	s := call1(t, "sparse", colv(1, 2, 1), colv(1, 2, 1), colv(5, 7, 3), mat.Scalar(3), mat.Scalar(3))
	if !s.IsSparse() || s.Rows() != 3 || s.Cols() != 3 {
		t.Fatal("sparse(i,j,s,m,n) shape")
	}
	if got := s.At(0, 0); got != 8 { // 5 + 3 summed
		t.Fatalf("duplicate triplets: A(1,1) = %v, want 8", got)
	}
	if got := s.At(1, 1); got != 7 {
		t.Fatalf("A(2,2) = %v, want 7", got)
	}
	// Scalar value broadcasts across index vectors.
	b := call1(t, "sparse", colv(1, 2), colv(2, 1), mat.Scalar(9), mat.Scalar(2), mat.Scalar(2))
	if b.At(0, 1) != 9 || b.At(1, 0) != 9 {
		t.Fatal("scalar triplet value must broadcast")
	}
	// Int-kind scalars — what integer literals from the language carry —
	// are valid subscripts and values.
	ik := call1(t, "sparse", mat.IntScalar(1), mat.IntScalar(2), mat.IntScalar(5), mat.IntScalar(3), mat.IntScalar(3))
	if !ik.IsSparse() || ik.At(0, 1) != 5 || ik.Rows() != 3 {
		t.Fatal("sparse with Int-kind triplet args")
	}
	// Out-of-range index errors.
	bi := Lookup("sparse")
	if _, err := Call(NewContext(), bi, []*mat.Value{colv(4), colv(1), colv(1), mat.Scalar(3), mat.Scalar(3)}, 1); err == nil {
		t.Fatal("out-of-range triplet index must error")
	}
}

func TestSpeyeAndSpdiagsBuiltins(t *testing.T) {
	e := call1(t, "speye", mat.Scalar(3))
	if !e.IsSparse() || e.NNZ() != 3 || e.At(2, 2) != 1 || e.At(0, 1) != 0 {
		t.Fatal("speye(3)")
	}
	r := call1(t, "speye", mat.Scalar(2), mat.Scalar(4))
	if r.Rows() != 2 || r.Cols() != 4 || r.NNZ() != 2 {
		t.Fatal("speye(2,4)")
	}
	// spdiags(B, d, m, n): tridiagonal 4/-1 operator.
	n := 4
	b := mat.New(n, 3)
	for i := 0; i < n; i++ {
		b.SetAt(i, 0, -1)
		b.SetAt(i, 1, 4)
		b.SetAt(i, 2, -1)
	}
	a := call1(t, "spdiags", b, vec(-1, 0, 1), mat.Scalar(float64(n)), mat.Scalar(float64(n)))
	if !a.IsSparse() || a.NNZ() != 3*n-2 {
		t.Fatalf("spdiags nnz = %d, want %d", a.NNZ(), 3*n-2)
	}
	if a.At(0, 0) != 4 || a.At(1, 0) != -1 || a.At(0, 1) != -1 || a.At(0, 2) != 0 {
		t.Fatal("spdiags band values wrong")
	}
}

func TestNnzCountsNonzeroNotStored(t *testing.T) {
	// spdiags keeps band zeros stored; nnz counts nonzero VALUES, so the
	// two diverge on purpose.
	b := mat.New(3, 2)
	for i := 0; i < 3; i++ {
		b.SetAt(i, 0, 0) // stored zeros on the subdiagonal
		b.SetAt(i, 1, 2)
	}
	a := call1(t, "spdiags", b, vec(-1, 0), mat.Scalar(3), mat.Scalar(3))
	if a.NNZ() != 5 { // 3 diagonal + 2 stored subdiagonal zeros
		t.Fatalf("stored entries = %d, want 5", a.NNZ())
	}
	wantNum(t, call1(t, "nnz", a), 3)
	// Dense operands count nonzeros directly.
	wantNum(t, call1(t, "nnz", mat.FromSlice(1, 4, []float64{0, 1, 0, 2})), 2)
}

func TestSparseDiagAndSize(t *testing.T) {
	// size/length/numel/isempty are sparse-aware — no densification.
	s := call1(t, "speye", mat.Scalar(5))
	wantNum(t, call1(t, "length", s), 5)
	wantNum(t, call1(t, "numel", s), 25)
	wantNum(t, call1(t, "isempty", s), 0)
	d := call1(t, "diag", s)
	if d.IsSparse() || d.Rows() != 5 || d.Cols() != 1 {
		t.Fatal("diag(sparse) must be a dense column")
	}
	for i := 0; i < 5; i++ {
		if d.At(i, 0) != 1 {
			t.Fatal("diag(speye) values")
		}
	}
}

func TestNonAwareBuiltinDensifiesArgs(t *testing.T) {
	// sum is not sparse-aware: the Call choke point densifies the
	// argument, and the caller's boxed value must stay sparse (VM
	// registers are never mutated in place).
	s := call1(t, "sparse", mat.FromSlice(1, 4, []float64{1, 0, 2, 0}))
	wantNum(t, call1(t, "sum", s), 3)
	if !s.IsSparse() {
		t.Fatal("densification must not mutate the caller's value")
	}
}

func TestSparseMldivideTriangular(t *testing.T) {
	// Lower-triangular sparse \ dense dispatches to the sparse
	// triangular kernel; verify by multiplying back.
	n := 5
	b := mat.New(n, 2)
	for i := 0; i < n; i++ {
		b.SetAt(i, 0, -1)
		b.SetAt(i, 1, 2)
	}
	l := call1(t, "spdiags", b, vec(-1, 0), mat.Scalar(float64(n)), mat.Scalar(float64(n)))
	rhs := colv(1, 2, 3, 4, 5)
	x, err := MLDivide(mat.Donors{}, l, rhs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := mat.Mul(l, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Abs(back.At(i, 0)-rhs.At(i, 0)) > 1e-12 {
			t.Fatalf("L*(L\\b) row %d = %v, want %v", i, back.At(i, 0), rhs.At(i, 0))
		}
	}
	// General sparse systems densify and solve via LU: same answer as
	// the dense path.
	g := call1(t, "sparse", mat.FromSlice(2, 2, []float64{4, 1, 1, 3}))
	gd := call1(t, "full", g)
	xs, err := MLDivide(mat.Donors{}, g, colv(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	xd, err := MLDivide(mat.Donors{}, gd, colv(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if xs.At(i, 0) != xd.At(i, 0) {
			t.Fatalf("sparse general mldivide diverged at %d: %v vs %v", i, xs.At(i, 0), xd.At(i, 0))
		}
	}
}
