package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// naiveDgemm is an independent oracle with the fixed semantics: beta==0
// stores, and zero alpha*b terms are never skipped (0*NaN propagates).
func naiveDgemm(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			s := c[j*ldc+i] * beta
			if beta == 0 {
				s = 0
			}
			if alpha != 0 { // alpha == 0: A and B are not referenced (BLAS)
				for l := 0; l < k; l++ {
					s += (alpha * b[j*ldb+l]) * a[l*lda+i]
				}
			}
			c[j*ldc+i] = s
		}
	}
}

// naiveDgemv is the matching oracle for Dgemv.
func naiveDgemv(trans bool, m, n int, alpha float64, a []float64, lda int, x []float64, beta float64, y []float64) {
	yn := m
	if trans {
		yn = n
	}
	if alpha == 0 { // A and x are not referenced (BLAS)
		for i := 0; i < yn; i++ {
			if beta == 0 {
				y[i] = 0
			} else {
				y[i] *= beta
			}
		}
		return
	}
	if trans {
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < m; i++ {
				s += a[j*lda+i] * x[i]
			}
			if beta == 0 {
				y[j] = alpha * s
			} else {
				y[j] = alpha*s + beta*y[j]
			}
		}
		return
	}
	for i := 0; i < m; i++ {
		v := y[i] * beta
		if beta == 0 {
			v = 0
		}
		for j := 0; j < n; j++ {
			v += (alpha * x[j]) * a[j*lda+i]
		}
		y[i] = v
	}
}

// eqFloat compares float64s bitwise except that all NaN payloads are
// equal (the oracle accumulates in a different order, so only NaN-ness
// — not the payload — is defined) and values are compared with a small
// relative tolerance where the summation orders differ.
func closeOrBothNaN(x, y float64) bool {
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.IsNaN(x) && math.IsNaN(y)
	}
	if math.IsInf(x, 0) || math.IsInf(y, 0) {
		return x == y
	}
	d := math.Abs(x - y)
	return d <= 1e-9*(1+math.Abs(x)+math.Abs(y))
}

// fillSpecials seeds a random matrix and sprinkles NaN/Inf/zero entries.
func fillSpecials(r *rand.Rand, v []float64) {
	for i := range v {
		switch r.Intn(12) {
		case 0:
			v[i] = math.NaN()
		case 1:
			v[i] = math.Inf(1)
		case 2:
			v[i] = math.Inf(-1)
		case 3:
			v[i] = 0
		default:
			v[i] = r.Float64()*4 - 2
		}
	}
}

// TestDgemmDifferentialNaNInf drives the blocked kernel across odd
// shapes, NaN/Inf-bearing operands, all alpha/beta special cases, and
// several thread counts, against the naive oracle.
func TestDgemmDifferentialNaNInf(t *testing.T) {
	defer parallel.SetDefaultThreads(0)
	r := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{1, 1, 1}, {1, 7, 3}, {5, 1, 9}, {3, 3, 1}, {4, 4, 4},
		{17, 13, 9}, {31, 33, 35}, {64, 64, 64}, {65, 63, 130},
		{129, 5, 257}, {2, 300, 2}, {150, 150, 3},
	}
	alphas := []float64{0, 1, -1, 0.5}
	betas := []float64{0, 1, -1, 2.5}
	for _, threads := range []int{1, 2, 8} {
		parallel.SetDefaultThreads(threads)
		for _, sh := range shapes {
			m, n, k := sh[0], sh[1], sh[2]
			a := make([]float64, m*k)
			b := make([]float64, k*n)
			c0 := make([]float64, m*n)
			fillSpecials(r, a)
			fillSpecials(r, b)
			fillSpecials(r, c0)
			for _, alpha := range alphas {
				for _, beta := range betas {
					want := append([]float64(nil), c0...)
					naiveDgemm(m, n, k, alpha, a, m, b, k, beta, want, m)
					got := append([]float64(nil), c0...)
					Dgemm(m, n, k, alpha, a, m, b, k, beta, got, m)
					for i := range want {
						if !closeOrBothNaN(got[i], want[i]) {
							t.Fatalf("threads=%d m,n,k=%d,%d,%d alpha=%g beta=%g: C[%d]=%g want %g",
								threads, m, n, k, alpha, beta, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestDgemmBitIdenticalAcrossThreads: the parallel partitioning must
// not change a single bit of the result, for any shape, including the
// packed-vs-reference path switch at gemmSmall.
func TestDgemmBitIdenticalAcrossThreads(t *testing.T) {
	defer parallel.SetDefaultThreads(0)
	r := rand.New(rand.NewSource(11))
	shapes := [][3]int{
		{8, 8, 8}, {33, 65, 17}, {64, 64, 64}, {100, 100, 100},
		{129, 127, 128}, {256, 31, 77},
		// A packed once and shared, over several (kc, mc) blocks; and
		// an A too large to share, packed in every worker.
		{200, 48, 520}, {300, 40, 600},
	}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		a := make([]float64, m*k)
		b := make([]float64, k*n)
		c0 := make([]float64, m*n)
		fillSpecials(r, a)
		fillSpecials(r, b)
		fillSpecials(r, c0)

		parallel.SetDefaultThreads(1)
		serial := append([]float64(nil), c0...)
		Dgemm(m, n, k, 1.5, a, m, b, k, -0.5, serial, m)
		for _, threads := range []int{2, 8} {
			parallel.SetDefaultThreads(threads)
			got := append([]float64(nil), c0...)
			Dgemm(m, n, k, 1.5, a, m, b, k, -0.5, got, m)
			for i := range serial {
				if math.Float64bits(got[i]) != math.Float64bits(serial[i]) {
					t.Fatalf("m,n,k=%d,%d,%d threads=%d: C[%d]=%x serial %x",
						m, n, k, threads, i, math.Float64bits(got[i]), math.Float64bits(serial[i]))
				}
			}
		}
	}
}

// TestPortableGemmMicroKernel runs Dgemm on the pure-Go 4x4
// micro-kernel, the only one on arm64 and on amd64 without AVX2+FMA: an
// amd64 test run with those selects the assembly kernel at init and
// never reaches kernel4x4 otherwise. The portable kernel must match
// gemmRef to 1e-12 relative error, and give the same bits at 1, 2 and
// 8 threads.
func TestPortableGemmMicroKernel(t *testing.T) {
	defer func(k func(int, []float64, []float64, []float64, int), mr int) {
		microKernel, gemmMR = k, mr
	}(microKernel, gemmMR)
	microKernel, gemmMR = portableKernel, 4
	defer parallel.SetDefaultThreads(0)

	r := rand.New(rand.NewSource(17))
	for _, sh := range [][3]int{{33, 65, 17}, {64, 64, 64}, {129, 127, 128}, {200, 48, 520}, {300, 40, 600}} {
		m, n, k := sh[0], sh[1], sh[2]
		a := make([]float64, m*k)
		b := make([]float64, k*n)
		c0 := make([]float64, m*n)
		for _, v := range [][]float64{a, b, c0} {
			for i := range v {
				v[i] = r.Float64()*4 - 2
			}
		}
		ref := append([]float64(nil), c0...)
		gemmRef(m, n, k, 1.5, a, m, b, k, -0.5, ref, m)
		var scale float64
		for _, v := range ref {
			scale = max(scale, math.Abs(v))
		}

		var serial []float64
		for _, threads := range []int{1, 2, 8} {
			parallel.SetDefaultThreads(threads)
			got := append([]float64(nil), c0...)
			Dgemm(m, n, k, 1.5, a, m, b, k, -0.5, got, m)
			if serial == nil {
				serial = got
				for i := range got {
					if d := math.Abs(got[i] - ref[i]); d > 1e-12*scale {
						t.Fatalf("m,n,k=%d,%d,%d: C[%d]=%v, gemmRef %v (error %.2g of max |C| %.3g)", m, n, k, i, got[i], ref[i], d, scale)
					}
				}
				continue
			}
			for i := range serial {
				if math.Float64bits(got[i]) != math.Float64bits(serial[i]) {
					t.Fatalf("m,n,k=%d,%d,%d threads=%d: C[%d]=%x, 1 thread %x",
						m, n, k, threads, i, math.Float64bits(got[i]), math.Float64bits(serial[i]))
				}
			}
		}
	}
}

// TestDgemvDifferential mirrors the Dgemm differential for both
// orientations of Dgemv.
func TestDgemvDifferential(t *testing.T) {
	defer parallel.SetDefaultThreads(0)
	r := rand.New(rand.NewSource(13))
	shapes := [][2]int{{1, 1}, {3, 9}, {17, 5}, {64, 64}, {257, 129}, {1000, 3}, {2, 1000}}
	for _, threads := range []int{1, 2, 8} {
		parallel.SetDefaultThreads(threads)
		for _, sh := range shapes {
			m, n := sh[0], sh[1]
			a := make([]float64, m*n)
			fillSpecials(r, a)
			for _, trans := range []bool{false, true} {
				xn, yn := n, m
				if trans {
					xn, yn = m, n
				}
				x := make([]float64, xn)
				y0 := make([]float64, yn)
				fillSpecials(r, x)
				fillSpecials(r, y0)
				for _, alpha := range []float64{0, 1, -2} {
					for _, beta := range []float64{0, 1, 0.5} {
						want := append([]float64(nil), y0...)
						naiveDgemv(trans, m, n, alpha, a, m, x, beta, want)
						got := append([]float64(nil), y0...)
						Dgemv(trans, m, n, alpha, a, m, x, beta, got)
						for i := range want {
							if !closeOrBothNaN(got[i], want[i]) {
								t.Fatalf("threads=%d trans=%v m,n=%d,%d alpha=%g beta=%g: y[%d]=%g want %g",
									threads, trans, m, n, alpha, beta, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestBetaZeroStoresOverNaN is the recycled-pool-buffer scenario: the
// destination arrives poisoned with NaNs and beta == 0 must fully
// overwrite it.
func TestBetaZeroStoresOverNaN(t *testing.T) {
	m, n, k := 65, 33, 17
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	r := rand.New(rand.NewSource(17))
	for i := range a {
		a[i] = r.Float64()
	}
	for i := range b {
		b[i] = r.Float64()
	}
	c := make([]float64, m*n)
	for i := range c {
		c[i] = math.NaN()
	}
	Dgemm(m, n, k, 1, a, m, b, k, 0, c, m)
	for i, v := range c {
		if math.IsNaN(v) {
			t.Fatalf("beta=0 Dgemm leaked NaN from the destination at %d", i)
		}
	}

	av := make([]float64, m*n)
	for i := range av {
		av[i] = r.Float64()
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Float64()
	}
	y := make([]float64, m)
	for i := range y {
		y[i] = math.NaN()
	}
	Dgemv(false, m, n, 1, av, m, x, 0, y)
	for i, v := range y {
		if math.IsNaN(v) {
			t.Fatalf("beta=0 Dgemv leaked NaN from the destination at %d", i)
		}
	}
	yt := make([]float64, n)
	for i := range yt {
		yt[i] = math.NaN()
	}
	Dgemv(true, m, n, 1, av, m, y, 0, yt)
	for i, v := range yt {
		if math.IsNaN(v) {
			t.Fatalf("beta=0 trans Dgemv leaked NaN from the destination at %d", i)
		}
	}
}

// TestZeroTimesNaNPropagates pins the satellite fix: a zero in x (or
// alpha*b) multiplying a NaN/Inf column of A must produce NaN, not be
// skipped.
func TestZeroTimesNaNPropagates(t *testing.T) {
	// y = A*x with x = [0], A = [[NaN], [Inf]]: 0*NaN and 0*Inf are NaN.
	a := []float64{math.NaN(), math.Inf(1)}
	x := []float64{0}
	y := []float64{0, 0}
	Dgemv(false, 2, 1, 1, a, 2, x, 1, y)
	if !math.IsNaN(y[0]) || !math.IsNaN(y[1]) {
		t.Fatalf("Dgemv dropped 0*NaN / 0*Inf: y = %v", y)
	}

	// C = A*B with B = [[0]]: same property through Dgemm.
	c := []float64{0, 0}
	Dgemm(2, 1, 1, 1, a, 2, []float64{0}, 1, 1, c, 2)
	if !math.IsNaN(c[0]) || !math.IsNaN(c[1]) {
		t.Fatalf("Dgemm dropped 0*NaN / 0*Inf: C = %v", c)
	}
}

// TestDgemmStrided exercises lda/ldb/ldc larger than the active rows
// (submatrix views), which the packed kernel must respect.
func TestDgemmStrided(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	m, n, k := 37, 29, 41
	lda, ldb, ldc := m+3, k+5, m+7
	a := make([]float64, lda*k)
	b := make([]float64, ldb*n)
	c0 := make([]float64, ldc*n)
	for i := range a {
		a[i] = r.Float64()
	}
	for i := range b {
		b[i] = r.Float64()
	}
	for i := range c0 {
		c0[i] = r.Float64()
	}
	want := append([]float64(nil), c0...)
	naiveDgemm(m, n, k, 1.25, a, lda, b, ldb, 0.75, want, ldc)
	got := append([]float64(nil), c0...)
	Dgemm(m, n, k, 1.25, a, lda, b, ldb, 0.75, got, ldc)
	for j := 0; j < n; j++ {
		for i := 0; i < ldc; i++ {
			at := j*ldc + i
			if i < m {
				if !closeOrBothNaN(got[at], want[at]) {
					t.Fatalf("C[%d,%d] = %g, want %g", i, j, got[at], want[at])
				}
			} else if got[at] != c0[at] {
				t.Fatalf("Dgemm wrote outside the m x n view at (%d,%d)", i, j)
			}
		}
	}
}

func TestDgemmDegenerate(t *testing.T) {
	// k == 0: pure beta pass; m or n == 0: no-op, no panics.
	c := []float64{math.NaN(), 2}
	Dgemm(2, 1, 0, 1, nil, 1, nil, 1, 0, c, 2)
	if c[0] != 0 || c[1] != 0 {
		t.Fatalf("k=0 beta=0 must zero C: %v", c)
	}
	Dgemm(0, 0, 5, 1, nil, 1, nil, 1, 0, nil, 1)
	Dgemv(false, 0, 3, 1, nil, 1, []float64{1, 2, 3}, 0, nil)
}

// seedDgemm is the kernel this PR replaced (triple loop over column
// axpys with a zero quick-skip and scaling beta), kept verbatim as the
// benchmark baseline so the blocked kernel's speedup stays measured
// against the true seed.
func seedDgemm(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	for j := 0; j < n; j++ {
		ccol := c[j*ldc : j*ldc+m]
		if beta != 1 {
			for i := range ccol {
				ccol[i] *= beta
			}
		}
		for l := 0; l < k; l++ {
			t := alpha * b[j*ldb+l]
			if t == 0 {
				continue
			}
			acol := a[l*lda : l*lda+m]
			for i := 0; i < m; i++ {
				ccol[i] += t * acol[i]
			}
		}
	}
}

func benchMats(n int) (a, b, c []float64) {
	r := rand.New(rand.NewSource(23))
	a = make([]float64, n*n)
	b = make([]float64, n*n)
	c = make([]float64, n*n)
	for i := range a {
		a[i] = r.Float64()
		b[i] = r.Float64()
	}
	return
}

// BenchmarkDgemmBlocked measures the new kernel; the /seed variants
// measure the replaced triple-loop kernel on the same operands.
func BenchmarkDgemmBlocked(bm *testing.B) {
	for _, n := range []int{64, 128, 256, 512} {
		a, b, c := benchMats(n)
		bm.Run(fmt.Sprintf("n=%d", n), func(bm *testing.B) {
			bm.SetBytes(int64(8 * n * n))
			for i := 0; i < bm.N; i++ {
				Dgemm(n, n, n, 1, a, n, b, n, 0, c, n)
			}
		})
		bm.Run(fmt.Sprintf("n=%d/seed", n), func(bm *testing.B) {
			bm.SetBytes(int64(8 * n * n))
			for i := 0; i < bm.N; i++ {
				seedDgemm(n, n, n, 1, a, n, b, n, 0, c, n)
			}
		})
	}
}

func BenchmarkDgemv(bm *testing.B) {
	for _, n := range []int{256, 1024} {
		a, _, _ := benchMats(n)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i)
		}
		bm.Run(fmt.Sprintf("n=%d", n), func(bm *testing.B) {
			for i := 0; i < bm.N; i++ {
				Dgemv(false, n, n, 1, a, n, x, 0, y)
			}
		})
	}
}
