package sparse

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/blas"
	"repro/internal/parallel"
)

// lcg is a tiny deterministic generator so the fixtures are stable
// across runs and platforms.
type lcg uint64

func (r *lcg) next() float64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return float64(uint64(*r)>>11) / float64(1<<53)
}

// randomCSR builds an m x n CSR matrix with roughly density*m*n stored
// entries (colIdx strictly ascending per row), values in [-1, 1).
func randomCSR(m, n int, density float64, r *lcg) (rowPtr, colIdx []int, val []float64) {
	rowPtr = make([]int, m+1)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if r.next() < density {
				colIdx = append(colIdx, j)
				val = append(val, 2*r.next()-1)
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	return
}

// denseToCSR stores EVERY element of a column-major dense matrix,
// zeros included, so SpMV must reproduce Dgemv bit-for-bit.
func denseToCSR(m, n int, a []float64) (rowPtr, colIdx []int, val []float64) {
	rowPtr = make([]int, m+1)
	colIdx = make([]int, 0, m*n)
	val = make([]float64, 0, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			colIdx = append(colIdx, j)
			val = append(val, a[j*m+i])
		}
		rowPtr[i+1] = len(colIdx)
	}
	return
}

func withThreads(t *testing.T, n int, f func()) {
	t.Helper()
	old := parallel.DefaultThreads()
	parallel.SetDefaultThreads(n)
	defer parallel.SetDefaultThreads(old)
	f()
}

func TestSpMVMatchesDenseGemvBitwise(t *testing.T) {
	r := lcg(7)
	const m, n = 57, 43
	a := make([]float64, m*n)
	for i := range a {
		a[i] = 2*r.next() - 1
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = 2*r.next() - 1
	}
	y0 := make([]float64, m)
	for i := range y0 {
		y0[i] = 2*r.next() - 1
	}
	rowPtr, colIdx, val := denseToCSR(m, n, a)

	for _, alpha := range []float64{0, 1, -2.5} {
		for _, beta := range []float64{0, 1, 0.5} {
			want := append([]float64(nil), y0...)
			blas.Dgemv(false, m, n, alpha, a, m, x, beta, want)
			got := append([]float64(nil), y0...)
			SpMV(m, rowPtr, colIdx, val, alpha, x, beta, got)
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("alpha=%v beta=%v: y[%d] = %v, Dgemv %v", alpha, beta, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSpMVBitIdenticalAcrossThreads(t *testing.T) {
	r := lcg(11)
	const m, n = 3000, 3000
	rowPtr, colIdx, val := randomCSR(m, n, 0.01, &r)
	x := make([]float64, n)
	for i := range x {
		x[i] = 2*r.next() - 1
	}
	var ref []float64
	for _, th := range []int{1, 2, 4, 7} {
		withThreads(t, th, func() {
			y := make([]float64, m)
			SpMV(m, rowPtr, colIdx, val, 1.5, x, 0, y)
			if ref == nil {
				ref = y
				return
			}
			for i := range y {
				if math.Float64bits(y[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("threads=%d: y[%d] = %v, want %v", th, i, y[i], ref[i])
				}
			}
		})
	}
}

func TestSpMVStoredZeroPropagatesNaNInf(t *testing.T) {
	// Row 0 stores an explicit zero at column 0; row 1 does not store
	// column 0 at all. x[0] = NaN must poison row 0 (0*NaN = NaN) and
	// leave row 1 untouched — MATLAB's stored-vs-implicit zero rule.
	rowPtr := []int{0, 2, 3}
	colIdx := []int{0, 1, 1}
	val := []float64{0, 2, 2}
	x := []float64{math.NaN(), 3}
	y := make([]float64, 2)
	SpMV(2, rowPtr, colIdx, val, 1, x, 0, y)
	if !math.IsNaN(y[0]) {
		t.Fatalf("stored zero * NaN: y[0] = %v, want NaN", y[0])
	}
	if y[1] != 6 {
		t.Fatalf("implicit zero must not see NaN: y[1] = %v, want 6", y[1])
	}

	x[0] = math.Inf(1)
	SpMV(2, rowPtr, colIdx, val, 1, x, 0, y)
	if !math.IsNaN(y[0]) { // 0*Inf = NaN
		t.Fatalf("stored zero * Inf: y[0] = %v, want NaN", y[0])
	}
	if y[1] != 6 {
		t.Fatalf("implicit zero must not see Inf: y[1] = %v, want 6", y[1])
	}
}

func TestSpMMMatchesColumnwiseSpMV(t *testing.T) {
	r := lcg(23)
	const m, n, p = 64, 48, 5
	rowPtr, colIdx, val := randomCSR(m, n, 0.1, &r)
	b := make([]float64, n*p)
	for i := range b {
		b[i] = 2*r.next() - 1
	}
	c := make([]float64, m*p)
	SpMM(m, rowPtr, colIdx, val, b, n, p, c, m)
	for j := 0; j < p; j++ {
		y := make([]float64, m)
		SpMV(m, rowPtr, colIdx, val, 1, b[j*n:(j+1)*n], 0, y)
		for i := range y {
			if math.Float64bits(c[j*m+i]) != math.Float64bits(y[i]) {
				t.Fatalf("C[%d,%d] = %v, columnwise SpMV %v", i, j, c[j*m+i], y[i])
			}
		}
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	r := lcg(31)
	const m, n = 37, 53
	rowPtr, colIdx, val := randomCSR(m, n, 0.15, &r)
	tp, tc, tv := Transpose(m, n, rowPtr, colIdx, val)
	// Canonical form: strictly ascending colIdx per transposed row.
	for i := 0; i < n; i++ {
		for k := tp[i] + 1; k < tp[i+1]; k++ {
			if tc[k] <= tc[k-1] {
				t.Fatalf("transpose row %d: colIdx not strictly ascending", i)
			}
		}
	}
	bp, bc, bv := Transpose(n, m, tp, tc, tv)
	if len(bc) != len(colIdx) {
		t.Fatalf("double transpose nnz = %d, want %d", len(bc), len(colIdx))
	}
	for i := range rowPtr {
		if bp[i] != rowPtr[i] {
			t.Fatalf("double transpose rowPtr[%d] = %d, want %d", i, bp[i], rowPtr[i])
		}
	}
	for k := range colIdx {
		if bc[k] != colIdx[k] || bv[k] != val[k] {
			t.Fatalf("double transpose entry %d = (%d,%v), want (%d,%v)", k, bc[k], bv[k], colIdx[k], val[k])
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name   string
		rowPtr []int
		colIdx []int
		want   Triangularity
	}{
		{"diagonal", []int{0, 1, 2}, []int{0, 1}, Diagonal},
		{"lower", []int{0, 1, 3}, []int{0, 0, 1}, Lower},
		{"upper", []int{0, 2, 3}, []int{0, 1, 1}, Upper},
		{"general", []int{0, 2, 4}, []int{0, 1, 0, 1}, General},
		// A stored zero below the diagonal still counts as structure.
		{"empty rows", []int{0, 0, 0}, nil, Diagonal},
	}
	for _, c := range cases {
		if got := Classify(len(c.rowPtr)-1, c.rowPtr, c.colIdx); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
}

// bandedLower builds a unit-ish lower banded system (diag 4, subdiags
// -1) in CSR.
func bandedLower(n, band int) (rowPtr, colIdx []int, val []float64) {
	rowPtr = make([]int, n+1)
	for i := 0; i < n; i++ {
		for j := i - band; j <= i; j++ {
			if j < 0 {
				continue
			}
			colIdx = append(colIdx, j)
			if j == i {
				val = append(val, 4)
			} else {
				val = append(val, -1)
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	return
}

// blockDiagLower builds a block-diagonal lower system (nb blocks of
// size bs) — each block is independent, so the level schedule is wide
// and the parallel path actually engages.
func blockDiagLower(nb, bs int) (rowPtr, colIdx []int, val []float64) {
	n := nb * bs
	rowPtr = make([]int, n+1)
	for i := 0; i < n; i++ {
		base := (i / bs) * bs
		for j := base; j <= i; j++ {
			colIdx = append(colIdx, j)
			if j == i {
				val = append(val, 3)
			} else {
				val = append(val, -0.5)
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	return
}

func refSolveLower(n int, rowPtr, colIdx []int, val []float64, b []float64) []float64 {
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		var diag float64
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			if colIdx[k] == i {
				diag = val[k]
				continue
			}
			sum -= val[k] * x[colIdx[k]]
		}
		x[i] = sum / diag
	}
	return x
}

func TestTriSolveLowerMatchesReference(t *testing.T) {
	r := lcg(41)
	const n = 500
	rowPtr, colIdx, val := bandedLower(n, 3)
	b := make([]float64, n)
	for i := range b {
		b[i] = 2*r.next() - 1
	}
	want := refSolveLower(n, rowPtr, colIdx, val, b)
	got, err := TriSolve(n, rowPtr, colIdx, val, true, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("x[%d] = %v, reference %v", i, got[i], want[i])
		}
	}
}

func TestTriSolveUpper(t *testing.T) {
	// Transpose of a lower banded system: solve A' x = b backward and
	// verify by multiplying back.
	const n = 200
	lp, lc, lv := bandedLower(n, 2)
	rowPtr, colIdx, val := Transpose(n, n, lp, lc, lv)
	r := lcg(43)
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = 2*r.next() - 1
	}
	b := make([]float64, n)
	SpMV(n, rowPtr, colIdx, val, 1, xTrue, 0, b)
	x, err := TriSolve(n, rowPtr, colIdx, val, false, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-10 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
}

func TestTriSolveBitIdenticalAcrossThreads(t *testing.T) {
	// Block-diagonal: the level schedule is n/bs levels of width bs, so
	// threads > 1 takes the parallel sweep; the result must still match
	// the serial substitution bit-for-bit.
	rowPtr, colIdx, val := blockDiagLower(400, 4)
	n := 400 * 4
	r := lcg(47)
	b := make([]float64, n)
	for i := range b {
		b[i] = 2*r.next() - 1
	}
	var ref []float64
	for _, th := range []int{1, 2, 5} {
		withThreads(t, th, func() {
			x, err := TriSolve(n, rowPtr, colIdx, val, true, b)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = x
				return
			}
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("threads=%d: x[%d] = %v, want %v", th, i, x[i], ref[i])
				}
			}
		})
	}
}

func TestTriSolveSingular(t *testing.T) {
	// Zero stored diagonal.
	if _, err := TriSolve(2, []int{0, 1, 2}, []int{0, 1}, []float64{1, 0}, true, []float64{1, 1}); err != ErrSingular {
		t.Errorf("zero diagonal: err = %v, want ErrSingular", err)
	}
	// Missing diagonal.
	if _, err := TriSolve(2, []int{0, 1, 2}, []int{0, 0}, []float64{1, 1}, true, []float64{1, 1}); err != ErrSingular {
		t.Errorf("missing diagonal: err = %v, want ErrSingular", err)
	}
	// Entry on the wrong side of a "lower" solve.
	if _, err := TriSolve(2, []int{0, 2, 3}, []int{0, 1, 1}, []float64{1, 5, 1}, true, []float64{1, 1}); err != ErrSingular {
		t.Errorf("wrong-side entry: err = %v, want ErrSingular", err)
	}
}

// pentaCSR is the m-row pentadiagonal operator the spcg program uses:
// 4 on the diagonal, -1 at distances 1 and 2 on either side.
func pentaCSR(m int) (rowPtr, colIdx []int, val []float64) {
	rowPtr = make([]int, m+1)
	for i := 0; i < m; i++ {
		for j := i - 2; j <= i+2; j++ {
			if j < 0 || j >= m {
				continue
			}
			colIdx = append(colIdx, j)
			if j == i {
				val = append(val, 4)
			} else {
				val = append(val, -1)
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	return rowPtr, colIdx, val
}

// BenchmarkSpMVFanOut times the pentadiagonal product over a size sweep
// on one thread and split in as many chunks as threads: the measurement
// spmvGrainFlops is set from (EXPERIMENTS.md). At two threads each
// chunk does about 5*m flops, the whole product 10*m.
func BenchmarkSpMVFanOut(b *testing.B) {
	for _, m := range []int{2500, 5000, 7500, 10000, 15000, 30000, 100000} {
		rowPtr, colIdx, val := pentaCSR(m)
		x, y := make([]float64, m), make([]float64, m)
		for i := range x {
			x[i] = float64(i%5) - 2
		}
		for _, threads := range []int{1, 2} {
			b.Run(fmt.Sprintf("m=%d/threads=%d", m, threads), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					parallel.For(threads, m, (m+threads-1)/threads, func(lo, hi int) { spmvRows(lo, hi, rowPtr, colIdx, val, 1, x, 0, y) })
				}
			})
		}
	}
}
