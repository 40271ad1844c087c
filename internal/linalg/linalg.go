// Package linalg implements the dense linear-algebra substrate MaJIC's
// built-in functions stand on: LU factorization with partial pivoting
// (mldivide), over the band alone when the system is banded, Cholesky
// factorization, determinant, inverse, and eigenvalues via cyclic Jacobi
// for a symmetric matrix and Hessenberg reduction plus the shifted QR
// iteration otherwise. It plays the LAPACK role of the
// original system: built-in library code whose speed is unaffected by
// compiling its callers.
package linalg

import (
	"errors"
	"math"
)

// ErrSingular reports an exactly singular system.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// ErrNotPosDef reports a Cholesky failure.
var ErrNotPosDef = errors.New("linalg: matrix is not positive definite")

// ErrShape reports incompatible dimensions.
var ErrShape = errors.New("linalg: dimension mismatch")

// LU computes an in-place LU factorization with partial pivoting of the
// n x n column-major matrix a (lda = n). It returns the pivot vector
// (piv[k] is the row swapped with row k) and whether a zero pivot was hit.
func LU(a []float64, n int) (piv []int, singular bool) {
	piv = make([]int, n)
	for k := 0; k < n; k++ {
		// find pivot
		p := k
		maxv := math.Abs(a[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a[k*n+i]); v > maxv {
				maxv, p = v, i
			}
		}
		piv[k] = p
		if maxv == 0 {
			singular = true
			continue
		}
		if p != k {
			for j := 0; j < n; j++ {
				a[j*n+k], a[j*n+p] = a[j*n+p], a[j*n+k]
			}
		}
		pivot := a[k*n+k]
		for i := k + 1; i < n; i++ {
			a[k*n+i] /= pivot
		}
		for j := k + 1; j < n; j++ {
			f := a[j*n+k]
			if f == 0 {
				continue
			}
			col := a[j*n : j*n+n]
			lcol := a[k*n : k*n+n]
			for i := k + 1; i < n; i++ {
				col[i] -= lcol[i] * f
			}
		}
	}
	return piv, singular
}

// Solve solves A X = B for the n x n column-major A and n x m column-major
// B, writing X (column-major) into x[:n*m], which may be B itself; x is
// left untouched when A is singular. A is not modified. A banded A is
// factored over its band unless x is B.
func Solve(a []float64, n int, b []float64, m int, x []float64) error {
	f, err := factor(a, n, !aliases(x, b, n*m))
	if err != nil {
		return err
	}
	f.Solve(b, m, x)
	return nil
}

// Det returns the determinant of the n x n column-major matrix a.
func Det(a []float64, n int) float64 {
	f, err := Factor(a, n)
	if err != nil {
		return 0
	}
	return f.det()
}

// Inv writes the inverse of the n x n column-major matrix a into x[:n*n]
// (whose contents are unspecified when a is singular).
func Inv(a []float64, n int, x []float64) error {
	x = x[:n*n]
	clear(x)
	for i := 0; i < n; i++ {
		x[i*n+i] = 1
	}
	return Solve(a, n, x, n, x)
}

// Chol computes the upper-triangular Cholesky factor R (column-major)
// with A = RᵀR for a symmetric positive definite A.
func Chol(a []float64, n int) ([]float64, error) {
	r := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			s := a[j*n+i]
			for k := 0; k < i; k++ {
				s -= r[i*n+k] * r[j*n+k]
			}
			if i == j {
				if s <= 0 {
					return nil, ErrNotPosDef
				}
				r[j*n+j] = math.Sqrt(s)
			} else {
				r[j*n+i] = s / r[i*n+i]
			}
		}
	}
	return r, nil
}
