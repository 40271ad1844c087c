// Package blas provides the small dense-kernel substrate the paper's
// generated code links against (reference BLAS): level-1 vector kernels
// and the dgemv/dgemm routines that MaJIC's code selection fuses
// expression trees into. All matrices are column-major with explicit
// leading dimension, matching the runtime layout of internal/mat.
package blas

import (
	"math"

	"repro/internal/parallel"
)

// Ddot returns x·y over n elements with strides incx, incy.
func Ddot(n int, x []float64, incx int, y []float64, incy int) float64 {
	var s float64
	if incx == 1 && incy == 1 {
		for i := 0; i < n; i++ {
			s += x[i] * y[i]
		}
		return s
	}
	ix, iy := 0, 0
	for i := 0; i < n; i++ {
		s += x[ix] * y[iy]
		ix += incx
		iy += incy
	}
	return s
}

// Daxpy computes y = a*x + y over n elements.
func Daxpy(n int, a float64, x []float64, incx int, y []float64, incy int) {
	if a == 0 {
		return
	}
	if incx == 1 && incy == 1 {
		for i := 0; i < n; i++ {
			y[i] += a * x[i]
		}
		return
	}
	ix, iy := 0, 0
	for i := 0; i < n; i++ {
		y[iy] += a * x[ix]
		ix += incx
		iy += incy
	}
}

// Dnrm2 returns the Euclidean norm of x with scaling for overflow safety.
func Dnrm2(n int, x []float64, incx int) float64 {
	var scale, ssq float64
	ssq = 1
	ix := 0
	for i := 0; i < n; i++ {
		v := x[ix]
		ix += incx
		if v == 0 {
			continue
		}
		a := v
		if a < 0 {
			a = -a
		}
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// gemvGrainFlops is the least work per chunk of a split Dgemv, so a
// product of no more work runs on the caller's thread. Below it the
// join costs more than the second thread saves: on the reference 2-vCPU
// box a 420 x 420 product takes 34 us on one thread and 60 us split in
// two, and a split first wins at 840 x 840, 1.4e6 flops, when the box is
// quiet (later when it is busy). The grain is the largest power of two
// below that (EXPERIMENTS.md, "Fan-out break-even"; BenchmarkGemvFanOut).
const gemvGrainFlops = 1 << 20

// Dgemv computes y = alpha*A*x + beta*y (trans=false) or
// y = alpha*Aᵀ*x + beta*y (trans=true). A is m x n, column-major with
// leading dimension lda.
//
// beta == 0 stores (never reads y), so y may hold garbage — including
// NaNs from a recycled pool buffer — on entry. There is no quick-skip
// on zero alpha*x[j] terms: 0*NaN and 0*Inf contributions from A reach
// y, matching IEEE arithmetic (and the blocked Dgemm).
//
// Both partitionings leave every y element's accumulation order
// unchanged — non-trans splits the rows of y (each row still sums its
// columns j = 0..n-1 in order, four to a pass: DESIGN.md §11), trans
// splits the independent dot products — so results are byte-for-byte
// identical for every thread count.
func Dgemv(trans bool, m, n int, alpha float64, a []float64, lda int, x []float64, beta float64, y []float64) {
	if alpha == 0 {
		// A and x are not referenced (BLAS convention, matching Dgemm's
		// alpha == 0 path); only the beta prologue applies.
		yn := m
		if trans {
			yn = n
		}
		for i := 0; i < yn; i++ {
			if beta == 0 {
				y[i] = 0
			} else {
				y[i] *= beta
			}
		}
		return
	}
	// A range that fits one grain, or a single thread, runs its body right
	// here: a func literal handed to parallel.For is a heap object whether
	// or not For ends up scheduling anything, and a 2x2 product in a loop
	// should cost no object at all.
	if !trans {
		if grain := 1 + gemvGrainFlops/(2*n+1); m <= grain || parallel.DefaultThreads() == 1 {
			gemvRows(0, m, n, alpha, a, lda, x, beta, y)
		} else {
			parallel.For(0, m, grain, func(lo, hi int) { gemvRows(lo, hi, n, alpha, a, lda, x, beta, y) })
		}
		return
	}
	if grain := 1 + gemvGrainFlops/(2*m+1); n <= grain || parallel.DefaultThreads() == 1 {
		gemvDots(0, n, m, alpha, a, lda, x, beta, y)
	} else {
		parallel.For(0, n, grain, func(lo, hi int) { gemvDots(lo, hi, m, alpha, a, lda, x, beta, y) })
	}
}

// gemvRows is the non-transposed product over rows [lo, hi) of y.
func gemvRows(lo, hi, n int, alpha float64, a []float64, lda int, x []float64, beta float64, y []float64) {
	if hi <= lo {
		return // no rows: nothing to compute, and no column of a to slice
	}
	yw := y[lo:hi]
	switch beta {
	case 0:
		for i := range yw {
			yw[i] = 0
		}
	case 1:
	default:
		for i := range yw {
			yw[i] *= beta
		}
	}
	// Four columns per pass over yw: each y element is loaded and
	// stored once per four terms instead of once per term, and its
	// terms are still added one by one in ascending j (one rounded
	// s += t*c statement per column, as in the tail loop). The vector
	// pass, where the CPU has one, takes the rows in groups of four;
	// the Go loop takes the rest.
	quads, i0 := n/4, 0
	if quadsKernel != nil && quads > 0 && len(yw) >= 4 {
		i0 = len(yw) &^ 3
		_ = a[(4*quads-1)*lda+lo+i0-1] // the kernel reads what the Go loop would
		quadsKernel(i0, quads, alpha, a[lo:], lda, x[:4*quads], yw[:i0])
	}
	if yt := yw[i0:]; len(yt) > 0 {
		for j := 0; j < 4*quads; j += 4 {
			t0, t1, t2, t3 := alpha*x[j], alpha*x[j+1], alpha*x[j+2], alpha*x[j+3]
			c0 := a[j*lda+lo+i0 : j*lda+hi][:len(yt)]
			c1 := a[(j+1)*lda+lo+i0 : (j+1)*lda+hi][:len(yt)]
			c2 := a[(j+2)*lda+lo+i0 : (j+2)*lda+hi][:len(yt)]
			c3 := a[(j+3)*lda+lo+i0 : (j+3)*lda+hi][:len(yt)]
			for i, s := range yt {
				s += t0 * c0[i]
				s += t1 * c1[i]
				s += t2 * c2[i]
				s += t3 * c3[i]
				yt[i] = s
			}
		}
	}
	for j := 4 * quads; j < n; j++ {
		t := alpha * x[j]
		col := a[j*lda+lo : j*lda+hi]
		for i, v := range col {
			yw[i] += t * v
		}
	}
}

// quadsKernel, when the CPU has a vector unit the package uses
// (gemv_amd64.s), adds the first 4*quads columns of a times alpha*x to
// y[0:rows] four columns per pass, with gemvRows' roundings in its
// order; rows is a positive multiple of 4.
var quadsKernel func(rows, quads int, alpha float64, a []float64, lda int, x, y []float64)

// gemvDots is the transposed product over elements [lo, hi) of y: one dot
// product of a column of A with x each, added from zero in ascending
// row order. Four columns share a pass over x, so four independent sums
// are in flight instead of one chain of dependent adds.
func gemvDots(lo, hi, m int, alpha float64, a []float64, lda int, x []float64, beta float64, y []float64) {
	x = x[:m]
	put := func(j int, s float64) {
		if beta == 0 {
			y[j] = alpha * s
		} else {
			y[j] = alpha*s + beta*y[j]
		}
	}
	j := lo
	for ; j+4 <= hi; j += 4 {
		c0 := a[j*lda : j*lda+m][:len(x)]
		c1 := a[(j+1)*lda : (j+1)*lda+m][:len(x)]
		c2 := a[(j+2)*lda : (j+2)*lda+m][:len(x)]
		c3 := a[(j+3)*lda : (j+3)*lda+m][:len(x)]
		var s0, s1, s2, s3 float64
		for i, xi := range x {
			s0 += c0[i] * xi
			s1 += c1[i] * xi
			s2 += c2[i] * xi
			s3 += c3[i] * xi
		}
		put(j, s0)
		put(j+1, s1)
		put(j+2, s2)
		put(j+3, s3)
	}
	for ; j < hi; j++ {
		col := a[j*lda : j*lda+m][:len(x)]
		var s float64
		for i, xi := range x {
			s += col[i] * xi
		}
		put(j, s)
	}
}
