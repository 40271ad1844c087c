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

// Dscal computes x = a*x over n elements.
func Dscal(n int, a float64, x []float64, incx int) {
	if incx == 1 {
		for i := 0; i < n; i++ {
			x[i] *= a
		}
		return
	}
	ix := 0
	for i := 0; i < n; i++ {
		x[ix] *= a
		ix += incx
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

// gemvGrainFlops is the approximate per-chunk work below which a Dgemv
// partition is not worth scheduling (the parallel.For serial fallback).
const gemvGrainFlops = 1 << 15

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
	// s += t*c statement per column, as in the tail loop).
	j := 0
	for ; j+4 <= n; j += 4 {
		t0, t1, t2, t3 := alpha*x[j], alpha*x[j+1], alpha*x[j+2], alpha*x[j+3]
		c0 := a[j*lda+lo : j*lda+hi][:len(yw)]
		c1 := a[(j+1)*lda+lo : (j+1)*lda+hi][:len(yw)]
		c2 := a[(j+2)*lda+lo : (j+2)*lda+hi][:len(yw)]
		c3 := a[(j+3)*lda+lo : (j+3)*lda+hi][:len(yw)]
		for i, s := range yw {
			s += t0 * c0[i]
			s += t1 * c1[i]
			s += t2 * c2[i]
			s += t3 * c3[i]
			yw[i] = s
		}
	}
	for ; j < n; j++ {
		t := alpha * x[j]
		col := a[j*lda+lo : j*lda+hi]
		for i, v := range col {
			yw[i] += t * v
		}
	}
}

// gemvDots is the transposed product over elements [lo, hi) of y: one dot
// product of a column of A with x each.
func gemvDots(lo, hi, m int, alpha float64, a []float64, lda int, x []float64, beta float64, y []float64) {
	for j := lo; j < hi; j++ {
		col := a[j*lda : j*lda+m]
		var s float64
		for i := 0; i < m; i++ {
			s += col[i] * x[i]
		}
		if beta == 0 {
			y[j] = alpha * s
		} else {
			y[j] = alpha*s + beta*y[j]
		}
	}
}
