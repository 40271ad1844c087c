package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

func TestDdot(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := Ddot(3, x, 1, y, 1); got != 32 {
		t.Fatalf("ddot = %g", got)
	}
	// strided
	xs := []float64{1, 0, 2, 0, 3}
	if got := Ddot(3, xs, 2, y, 1); got != 32 {
		t.Fatalf("strided ddot = %g", got)
	}
}

func TestDaxpy(t *testing.T) {
	y := []float64{1, 1, 1}
	Daxpy(3, 2, []float64{1, 2, 3}, 1, y, 1)
	want := []float64{3, 5, 7}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("daxpy: %v", y)
		}
	}
	// a = 0 is a no-op
	Daxpy(3, 0, []float64{9, 9, 9}, 1, y, 1)
	for i := range want {
		if y[i] != want[i] {
			t.Fatal("daxpy with zero alpha must not change y")
		}
	}
}

func TestDnrm2(t *testing.T) {
	if got := Dnrm2(2, []float64{3, 4}, 1); math.Abs(got-5) > 1e-12 {
		t.Fatalf("nrm2 = %g", got)
	}
	// overflow-safe scaling
	big := []float64{1e308, 1e308}
	got := Dnrm2(2, big, 1)
	if math.IsInf(got, 1) {
		t.Fatal("nrm2 overflowed")
	}
	if math.Abs(got-1e308*math.Sqrt2) > 1e295 {
		t.Fatalf("nrm2 big = %g", got)
	}
	if Dnrm2(0, nil, 1) != 0 {
		t.Fatal("empty norm")
	}
}

// Dgemv against a straightforward reference implementation.
func TestDgemvAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		m, n := 1+r.Intn(8), 1+r.Intn(8)
		a := make([]float64, m*n)
		for i := range a {
			a[i] = r.Float64()*2 - 1
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Float64()*2 - 1
		}
		y0 := make([]float64, m)
		for i := range y0 {
			y0[i] = r.Float64()*2 - 1
		}
		alpha := float64(r.Intn(5) - 2)
		beta := float64(r.Intn(3) - 1)

		want := make([]float64, m)
		for i := 0; i < m; i++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += a[j*m+i] * x[j]
			}
			want[i] = alpha*s + beta*y0[i]
		}
		got := append([]float64(nil), y0...)
		Dgemv(false, m, n, alpha, a, m, x, beta, got)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-10 {
				t.Fatalf("trial %d: y[%d] = %g, want %g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestDgemvTransposed(t *testing.T) {
	// 2x3 A, Aᵀx with x of length 2
	a := []float64{1, 2, 3, 4, 5, 6} // columns: [1,2], [3,4], [5,6]
	x := []float64{1, 1}
	y := make([]float64, 3)
	Dgemv(true, 2, 3, 1, a, 2, x, 0, y)
	want := []float64{3, 7, 11}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("trans gemv: %v", y)
		}
	}
}

func TestDgemmAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := make([]float64, m*k)
		b := make([]float64, k*n)
		c := make([]float64, m*n)
		for i := range a {
			a[i] = r.Float64()
		}
		for i := range b {
			b[i] = r.Float64()
		}
		for i := range c {
			c[i] = r.Float64()
		}
		want := make([]float64, m*n)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				s := 0.0
				for l := 0; l < k; l++ {
					s += a[l*m+i] * b[j*k+l]
				}
				want[j*m+i] = 2*s + 0.5*c[j*m+i]
			}
		}
		got := append([]float64(nil), c...)
		Dgemm(m, n, k, 2, a, m, b, k, 0.5, got, m)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-10 {
				t.Fatalf("trial %d: C[%d] = %g, want %g", trial, i, got[i], want[i])
			}
		}
	}
}

// seedDgemvN is the non-transposed Dgemv as it stood before the
// four-column pass: one column per pass over y.
func seedDgemvN(m, n int, alpha float64, a []float64, lda int, x []float64, beta float64, y []float64) {
	switch beta {
	case 0:
		for i := range y[:m] {
			y[i] = 0
		}
	case 1:
	default:
		for i := range y[:m] {
			y[i] *= beta
		}
	}
	for j := 0; j < n; j++ {
		t := alpha * x[j]
		for i, v := range a[j*lda : j*lda+m] {
			y[i] += t * v
		}
	}
}

// TestDgemvUnrolledIsTheSeedLoop: four columns per pass, and the
// vector pass over four rows at a time, change how often y is loaded
// and stored, not one rounding — every element equals the one-column
// loop's bit for bit, whatever m mod 4 and n mod 4, the row range's
// offset, the coefficients, the thread count, or the NaNs and Infs in
// A. The rows m mod 4 leaves over run on the Go loop, the rest on the
// vector pass where the CPU has one.
func TestDgemvUnrolledIsTheSeedLoop(t *testing.T) {
	defer parallel.SetDefaultThreads(0)
	r := rand.New(rand.NewSource(16))
	for _, threads := range []int{1, 4} {
		parallel.SetDefaultThreads(threads)
		for _, m := range []int{1, 3, 4, 5, 7, 8, 9, 420} {
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 420, 421, 422, 423} {
				for _, beta := range []float64{0, 1, -1, 0.5} {
					for _, alpha := range []float64{1, -1, 0.3} {
						for _, specials := range []bool{false, true} {
							lda := m + r.Intn(3)
							a, x := make([]float64, lda*n+1), make([]float64, n)
							for i := range a {
								a[i] = r.Float64()*4 - 2
							}
							for i := range x {
								x[i] = r.Float64()*4 - 2
							}
							if specials {
								fillSpecials(r, a)
								clear(x) // 0*NaN and 0*Inf must still reach y
							}
							y0 := make([]float64, m)
							for i := range y0 {
								y0[i] = r.Float64()*4 - 2
							}
							got, want := append([]float64(nil), y0...), append([]float64(nil), y0...)
							Dgemv(false, m, n, alpha, a, lda, x, beta, got)
							seedDgemvN(m, n, alpha, a, lda, x, beta, want)
							if i, ok := sameBits(got, want); !ok {
								t.Fatalf("m=%d n=%d alpha=%g beta=%g specials=%v threads=%d: y[%d] = %v, seed loop %v",
									m, n, alpha, beta, specials, threads, i, got[i], want[i])
							}
							// A row range that starts off a multiple of
							// four: a worker's chunk, or a panel's rows.
							for _, lo := range []int{1, 2, 3, 5} {
								if lo >= m || n == 0 {
									break
								}
								got, want := append([]float64(nil), y0...), append([]float64(nil), y0...)
								gemvRows(lo, m, n, alpha, a, lda, x, beta, got)
								seedDgemvN(m-lo, n, alpha, a[lo:], lda, x, beta, want[lo:])
								if i, ok := sameBits(got, want); !ok {
									t.Fatalf("rows [%d, %d) n=%d alpha=%g beta=%g specials=%v: y[%d] = %v, seed loop %v",
										lo, m, n, alpha, beta, specials, i, got[i], want[i])
								}
							}
						}
					}
				}
			}
		}
	}
	// Large enough to fan out: each worker's rows start wherever the
	// partition puts them.
	const big = 1100
	a, x := make([]float64, big*big), make([]float64, big)
	for i := range a {
		a[i] = r.Float64()*4 - 2
	}
	fillSpecials(r, a[:big])
	for i := range x {
		x[i] = r.Float64()*4 - 2
	}
	want := make([]float64, big)
	seedDgemvN(big, big, -1, a, big, x, 0, want)
	for _, threads := range []int{2, 3, 4} {
		parallel.SetDefaultThreads(threads)
		got := make([]float64, big)
		Dgemv(false, big, big, -1, a, big, x, 0, got)
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("%dx%d, %d threads: y[%d] = %v, seed loop %v", big, big, threads, i, got[i], want[i])
		}
	}
}

// TestDgemvUnrolledGoLoopIsTheSeedLoop: where there is no vector pass
// (other architectures, a CPU without AVX2) the Go loop takes every row.
// It is checked here on its own, whatever this CPU has, over the shapes
// the vector pass would otherwise take.
func TestDgemvUnrolledGoLoopIsTheSeedLoop(t *testing.T) {
	defer func(k func(int, int, float64, []float64, int, []float64, []float64)) { quadsKernel = k }(quadsKernel)
	quadsKernel = nil
	r := rand.New(rand.NewSource(8))
	for _, m := range []int{4, 5, 8, 9, 61, 420} {
		for _, n := range []int{3, 4, 5, 8, 61} {
			for _, beta := range []float64{0, 1, -1} {
				for _, alpha := range []float64{1, -1, 0.3} {
					lda := m + 1
					a, x, y0 := make([]float64, lda*n), make([]float64, n), make([]float64, m)
					for i := range a {
						a[i] = r.Float64()*4 - 2
					}
					fillSpecials(r, a[:lda])
					for i := range x {
						x[i] = r.Float64()*4 - 2
					}
					for i := range y0 {
						y0[i] = r.Float64()*4 - 2
					}
					got, want := append([]float64(nil), y0...), append([]float64(nil), y0...)
					Dgemv(false, m, n, alpha, a, lda, x, beta, got)
					seedDgemvN(m, n, alpha, a, lda, x, beta, want)
					if i, ok := sameBits(got, want); !ok {
						t.Fatalf("m=%d n=%d alpha=%g beta=%g: y[%d] = %v, seed loop %v", m, n, alpha, beta, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// sameBits reports the first element where got and want differ in bits
// (two NaNs agree whatever their payloads).
func sameBits(got, want []float64) (int, bool) {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return i, false
		}
	}
	return 0, true
}

// TestDgemvTransposedIsTheCopyProduct: Aᵀx from A itself (the dot
// products) equals, bit for bit, the non-transposed product over a
// copy of Aᵀ from a zero start — both add A(k,i)*x(k) in ascending k —
// so compiled A'*x needs no transposed copy to give the interpreter's
// result. Signed zeros, NaNs and Infs included.
func TestDgemvTransposedIsTheCopyProduct(t *testing.T) {
	defer parallel.SetDefaultThreads(0)
	r := rand.New(rand.NewSource(44))
	for _, threads := range []int{1, 4} {
		parallel.SetDefaultThreads(threads)
		for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 60, 61, 420} {
			for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 60, 61, 420} {
				for _, specials := range []bool{false, true} {
					lda := m + 1 + r.Intn(3)
					a, x := make([]float64, lda*n), make([]float64, m)
					for i := range a {
						a[i] = r.Float64()*4 - 2
					}
					for i := range x {
						x[i] = r.Float64()*4 - 2
					}
					if specials {
						fillSpecials(r, a)
						for i := range x {
							x[i] = []float64{0, math.Copysign(0, -1), x[i]}[r.Intn(3)]
						}
					}
					at := make([]float64, n*m)
					for j := 0; j < n; j++ {
						for k := 0; k < m; k++ {
							at[k*n+j] = a[j*lda+k]
						}
					}
					got, want := make([]float64, n), make([]float64, n)
					for i := range got {
						got[i], want[i] = math.NaN(), math.NaN() // beta == 0 never reads y
					}
					Dgemv(true, m, n, 1, a, lda, x, 0, got)
					Dgemv(false, n, m, 1, at, n, x, 0, want)
					if i, ok := sameBits(got, want); !ok {
						t.Fatalf("m=%d n=%d specials=%v threads=%d: (Aᵀx)[%d] = %v, product over the copy %v",
							m, n, specials, threads, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestDgemvAllocatesNothingWhenSerial: a product that does not fan out —
// one thread, or a row range inside one grain — runs its range body
// directly, so the closure parallel.For would need is never built. The
// 2x2 product is fractal's (2 000 per op), 420x420 cgopt's.
func TestDgemvAllocatesNothingWhenSerial(t *testing.T) {
	defer parallel.SetDefaultThreads(0)
	parallel.SetDefaultThreads(1)
	for _, n := range []int{2, 420} {
		a, x, y := make([]float64, n*n), make([]float64, n), make([]float64, n)
		for i := range a {
			a[i] = float64(i%7) - 3
		}
		for i := range x {
			x[i] = float64(i%5) - 2
		}
		for _, trans := range []bool{false, true} {
			if got := testing.AllocsPerRun(50, func() { Dgemv(trans, n, n, 1, a, n, x, 0, y) }); got != 0 {
				t.Errorf("Dgemv(trans=%v) at %dx%d, one thread: %.0f allocations per call, want 0", trans, n, n, got)
			}
		}
	}
	// More threads: the 2x2 product still fits one grain, and so does
	// 420x420, which two threads would only slow down.
	for _, threads := range []int{2, 4} {
		parallel.SetDefaultThreads(threads)
		for _, n := range []int{2, 420} {
			a, x, y := make([]float64, n*n), make([]float64, n), make([]float64, n)
			for _, trans := range []bool{false, true} {
				if got := testing.AllocsPerRun(50, func() { Dgemv(trans, n, n, 1, a, n, x, 0, y) }); got != 0 {
					t.Errorf("Dgemv(trans=%v) at %dx%d, %d threads: %.0f allocations per call, want 0", trans, n, n, threads, got)
				}
			}
		}
	}
}

// BenchmarkGemvFanOut times the non-transposed product over a size
// sweep on one thread and split in as many chunks as threads: the
// measurement gemvGrainFlops is set from (EXPERIMENTS.md). At two
// threads each chunk does n*n flops, the whole product 2*n*n.
func BenchmarkGemvFanOut(b *testing.B) {
	for _, n := range []int{128, 256, 420, 512, 600, 724, 840, 1024, 1448} {
		a, x, y := make([]float64, n*n), make([]float64, n), make([]float64, n)
		for i := range a {
			a[i] = float64(i%7) - 3
		}
		for i := range x {
			x[i] = float64(i%5) - 2
		}
		for _, threads := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/threads=%d", n, threads), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					parallel.For(threads, n, (n+threads-1)/threads, func(lo, hi int) { gemvRows(lo, hi, n, 1, a, n, x, 0, y) })
				}
			})
		}
	}
}
