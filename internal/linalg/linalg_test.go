package linalg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func randSys(r *rand.Rand, n int) []float64 {
	a := make([]float64, n*n)
	for i := range a {
		a[i] = r.Float64()*2 - 1
	}
	// diagonal dominance keeps it comfortably nonsingular
	for i := 0; i < n; i++ {
		a[i*n+i] += float64(n)
	}
	return a
}

func matVec(a []float64, n int, x []float64) []float64 {
	y := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			y[i] += a[j*n+i] * x[j]
		}
	}
	return y
}

func TestSolveRandomSystems(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(12)
		a := randSys(r, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = r.Float64()*4 - 2
		}
		b := matVec(a, n, want)
		got := make([]float64, n)
		if err := Solve(a, n, b, 1, got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestSolveMultipleRHS(t *testing.T) {
	a := []float64{4, 1, 1, 3} // column-major [[4,1],[1,3]]
	b := []float64{1, 0, 0, 1} // identity → X = inv(A)
	x := make([]float64, 4)
	if err := Solve(a, 2, b, 2, x); err != nil {
		t.Fatal(err)
	}
	det := 4*3 - 1*1
	want := []float64{3 / float64(det), -1 / float64(det), -1 / float64(det), 4 / float64(det)}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("inv: %v, want %v", x, want)
		}
	}
}

func TestSingular(t *testing.T) {
	a := []float64{1, 2, 2, 4} // rank 1
	if err := Solve(a, 2, []float64{1, 1}, 1, make([]float64, 2)); err == nil {
		t.Fatal("singular system must error")
	}
	if d := Det(a, 2); d != 0 {
		t.Fatalf("det of singular = %g", d)
	}
}

func TestDet(t *testing.T) {
	a := []float64{4, 1, 2, 3} // [[4,2],[1,3]] det = 10
	if d := Det(a, 2); math.Abs(d-10) > 1e-12 {
		t.Fatalf("det = %g", d)
	}
	// det of a permutation-ish matrix picks up signs
	p := []float64{0, 1, 1, 0}
	if d := Det(p, 2); math.Abs(d+1) > 1e-12 {
		t.Fatalf("det(swap) = %g, want -1", d)
	}
}

// TestDetBandIsDense: Det of a banded matrix is the dense LU's
// determinant bit for bit, the band factor answering most of them; and a
// band factor that overflows hands the matrix to the dense LU, whose NaN
// comes back rather than the band's Inf.
func TestDetBandIsDense(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	banded := 0
	for trial := 0; trial < 200; trial++ {
		n := 4 + r.Intn(20)
		a := bandSys(n, 1, 1+r.Intn(2), func() float64 { return float64(r.Intn(7) - 3) }, func() float64 { return 0 })
		if d, want := Det(a, n), denseDet(a, n); math.Float64bits(d) != math.Float64bits(want) {
			t.Fatalf("n=%d a=%v: det %v, dense LU %v", n, a, d, want)
		}
		if f, err := Factor(a, n); err == nil && f.band {
			banded++
		}
	}
	if banded < 100 {
		t.Fatalf("the band factor answered %d of 200 determinants", banded)
	}
	over := bandSys(9, 1, 3, func() float64 { return 1e300 }, func() float64 { return 0 })
	over[0], over[27], over[28] = -1e300, 1.5e308, 1.5e308 // A(0,0), A(0,3), A(1,3)
	if d := Det(over, 9); !math.IsNaN(d) {
		t.Fatalf("det of the overflowing band = %v, want the dense LU's NaN", d)
	}
}

func TestInv(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 6
	a := randSys(r, n)
	inv := make([]float64, n*n)
	for i := range inv {
		inv[i] = math.NaN() // Inv must not read what the buffer held
	}
	if err := Inv(a, n, inv); err != nil {
		t.Fatal(err)
	}
	// A * inv(A) ≈ I
	for col := 0; col < n; col++ {
		prod := matVec(a, n, inv[col*n:(col+1)*n])
		for i := 0; i < n; i++ {
			want := 0.0
			if i == col {
				want = 1
			}
			if math.Abs(prod[i]-want) > 1e-8 {
				t.Fatalf("A*inv(A)[%d,%d] = %g", i, col, prod[i])
			}
		}
	}
}

func TestChol(t *testing.T) {
	// A = R'R for SPD A
	a := []float64{4, 2, 2, 5} // [[4,2],[2,5]]
	r, err := Chol(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	// R stored column-major upper-triangular: verify R'R = A
	n := 2
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k <= i && k <= j; k++ {
				s += r[i*n+k] * r[j*n+k]
			}
			if math.Abs(s-a[j*n+i]) > 1e-12 {
				t.Fatalf("R'R[%d,%d] = %g, want %g", i, j, s, a[j*n+i])
			}
		}
	}
	// not positive definite
	bad := []float64{1, 2, 2, 1}
	if _, err := Chol(bad, 2); err == nil {
		t.Fatal("indefinite matrix must fail")
	}
}

func TestEigSymmetric(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3
	a := []float64{2, 1, 1, 2}
	re, im := Eig(a, 2)
	sort.Float64s(re)
	if math.Abs(re[0]-1) > 1e-9 || math.Abs(re[1]-3) > 1e-9 {
		t.Fatalf("eig = %v", re)
	}
	for _, x := range im {
		if x != 0 {
			t.Fatal("symmetric eigenvalues must be real")
		}
	}
}

func TestEigDiagonal(t *testing.T) {
	n := 5
	a := make([]float64, n*n)
	want := []float64{-3, -1, 0, 2, 7}
	for i, v := range want {
		a[i*n+i] = v
	}
	re, _ := Eig(a, n)
	sort.Float64s(re)
	for i := range want {
		if math.Abs(re[i]-want[i]) > 1e-9 {
			t.Fatalf("diag eig: %v", re)
		}
	}
}

func TestEigRotationComplexPair(t *testing.T) {
	// a rotation by 90° has eigenvalues ±i
	a := []float64{0, 1, -1, 0}
	re, im := Eig(a, 2)
	if math.Abs(re[0]) > 1e-9 || math.Abs(re[1]) > 1e-9 {
		t.Fatalf("re = %v", re)
	}
	mags := []float64{math.Abs(im[0]), math.Abs(im[1])}
	if math.Abs(mags[0]-1) > 1e-9 || math.Abs(mags[1]-1) > 1e-9 {
		t.Fatalf("im = %v", im)
	}
	if im[0]*im[1] >= 0 {
		t.Fatal("complex eigenvalues must come in conjugate pairs")
	}
}

func TestEigGeneralTrace(t *testing.T) {
	// Eigenvalues must sum to the trace and multiply to the determinant.
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(6)
		a := make([]float64, n*n)
		for i := range a {
			a[i] = r.Float64()*2 - 1
		}
		var trace float64
		for i := 0; i < n; i++ {
			trace += a[i*n+i]
		}
		re, im := Eig(a, n)
		var sumRe, sumIm float64
		for i := 0; i < n; i++ {
			sumRe += re[i]
			sumIm += im[i]
		}
		if math.Abs(sumRe-trace) > 1e-6*(1+math.Abs(trace)) {
			t.Fatalf("trial %d: sum(eig) = %g, trace = %g", trial, sumRe, trace)
		}
		if math.Abs(sumIm) > 1e-6 {
			t.Fatalf("trial %d: eigenvalue imag parts don't cancel: %g", trial, sumIm)
		}
	}
}

func TestLUPivoting(t *testing.T) {
	// requires pivoting: zero in the leading position
	a := []float64{0, 1, 1, 0} // [[0,1],[1,0]]
	x := make([]float64, 2)
	if err := Solve(a, 2, []float64{2, 3}, 1, x); err != nil {
		t.Fatal(err)
	}
	// [[0,1],[1,0]] x = [2,3] → x = [3,2]
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

// TestSolveIntoCallerBuffer: Solve allocates only its factorisation (the
// LU copy and the pivots), never X, and solving in place over B gives the
// same bits as solving into a separate buffer.
func TestSolveIntoCallerBuffer(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n, m = 9, 3
	a := randSys(r, n)
	b := make([]float64, n*m)
	for i := range b {
		b[i] = r.Float64()*4 - 2
	}
	x := make([]float64, n*m)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := Solve(a, n, b, m, x); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("Solve allocates %.0f objects, want 2 (LU copy, pivots)", allocs)
	}
	inPlace := append([]float64(nil), b...)
	if err := Solve(a, n, inPlace, m, inPlace); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Float64bits(inPlace[i]) != math.Float64bits(x[i]) {
			t.Fatalf("x[%d]: in place %v, into a buffer %v", i, inPlace[i], x[i])
		}
	}
}
