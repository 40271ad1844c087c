package blas

import (
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

func TestDscal(t *testing.T) {
	x := []float64{1, 2, 3}
	Dscal(3, 10, x, 1)
	if x[2] != 30 {
		t.Fatalf("dscal: %v", x)
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

// TestDgemvUnrolledIsTheSeedLoop: four columns per pass changes how
// often y is loaded and stored, not one rounding — every element equals
// the one-column loop's bit for bit, whatever n mod 4, the
// coefficients, the thread count, or the NaNs and Infs in A.
func TestDgemvUnrolledIsTheSeedLoop(t *testing.T) {
	defer parallel.SetDefaultThreads(0)
	r := rand.New(rand.NewSource(16))
	for _, threads := range []int{1, 4} {
		parallel.SetDefaultThreads(threads)
		for _, m := range []int{1, 7, 420} {
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
							for i := range want {
								if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
									t.Fatalf("m=%d n=%d alpha=%g beta=%g specials=%v threads=%d: y[%d] = %v, seed loop %v",
										m, n, alpha, beta, specials, threads, i, got[i], want[i])
								}
							}
						}
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
	// Four threads: the 2x2 product still fits one grain.
	parallel.SetDefaultThreads(4)
	a, x, y := []float64{1, 2, 3, 4}, []float64{5, 6}, make([]float64, 2)
	for _, trans := range []bool{false, true} {
		if got := testing.AllocsPerRun(50, func() { Dgemv(trans, 2, 2, 1, a, 2, x, 0, y) }); got != 0 {
			t.Errorf("Dgemv(trans=%v) at 2x2, four threads: %.0f allocations per call, want 0", trans, got)
		}
	}
}
