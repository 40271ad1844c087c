package linalg

import "math"

// Factorization is the LU factorization of one n x n system. A system
// whose band storage is smaller than dense is factored in LAPACK's dgbtrf
// layout: (2kl+ku+1) x n, A(i,j) at lu[j*ld+kv+i-j] with kv = kl+ku, the
// kl extra superdiagonals holding the fill that row swaps bring. Every
// other system is factored dense by LU.
//
// The band factorization is LU restricted to the entries that can be
// nonzero: the same pivot search (strict >, so ties keep the upper row),
// the same f == 0 column skip, and the same operations on every such
// entry in the same order. What it skips is LU's subtraction of ±0·f,
// which leaves a nonzero x unchanged; only a zero's sign can differ, and
// only while everything stays finite. So a band answer stands only when
// the factor is finite with nonzero pivots and every solution entry is
// finite and nonzero; anything else is answered by the dense LU.
type Factorization struct {
	a      []float64 // the system, kept for the dense fallback
	n      int
	lu     []float64 // the band factor when band, else the dense one
	piv    []int
	kl, ku int
	band   bool
}

// Factor factors the n x n column-major a, over its band when that is
// narrower than dense, and returns ErrSingular for a singular a. a must
// not change while the factorization is in use.
func Factor(a []float64, n int) (Factorization, error) {
	return factor(a, n, true)
}

func factor(a []float64, n int, banded bool) (Factorization, error) {
	f := Factorization{a: a[:n*n], n: n}
	if banded && f.bandwidth() && f.bandLU() {
		return f, nil
	}
	if !f.denseLU() {
		return f, ErrSingular
	}
	return f, nil
}

// bandwidth reads a once for its lower and upper bandwidths and reports
// whether a is finite and its band storage smaller than dense. It stops
// at the first column that makes the band as wide as dense, so a system
// whose first column is full (a dense triangle, say) costs one column.
func (f *Factorization) bandwidth() bool {
	n, kl, ku := f.n, 0, 0
	for j := 0; j < n; j++ {
		for i, v := range f.a[j*n : j*n+n] {
			if v == 0 {
				continue
			}
			if v-v != 0 { // Inf or NaN
				return false
			}
			if i < j {
				ku = max(ku, j-i)
			} else {
				kl = max(kl, i-j)
			}
		}
		if 2*kl+ku+1 >= n {
			return false
		}
	}
	f.kl, f.ku = kl, ku
	return true
}

// bandLU factors a in band storage and reports whether the factor may
// answer: no zero pivot and every entry finite.
func (f *Factorization) bandLU() bool {
	n, kl := f.n, f.kl
	kv := kl + f.ku
	ld := kv + kl + 1
	ab := make([]float64, ld*n)
	for j := 0; j < n; j++ {
		lo, hi := max(0, j-f.ku), min(n-1, j+kl)
		copy(ab[j*ld+kv+lo-j:], f.a[j*n+lo:j*n+hi+1])
	}
	piv := make([]int, n)
	for k := 0; k < n; k++ {
		d := k*ld + kv // A(k,k)
		m := min(n-1, k+kl) - k
		p := 0
		maxv := math.Abs(ab[d])
		for i := 1; i <= m; i++ {
			if v := math.Abs(ab[d+i]); v > maxv {
				maxv, p = v, i
			}
		}
		piv[k] = k + p
		if maxv == 0 {
			return false
		}
		last := min(n-1, k+kv) // the last column row k reaches
		if p != 0 {
			for j := k; j <= last; j++ {
				o := j*ld + kv + k - j // A(k,j)
				ab[o], ab[o+p] = ab[o+p], ab[o]
			}
		}
		pivot := ab[d]
		lcol := ab[d+1 : d+1+m]
		for i := range lcol {
			lcol[i] /= pivot
		}
		for j := k + 1; j <= last; j++ {
			o := j*ld + kv + k - j // A(k,j)
			fv := ab[o]
			if fv == 0 {
				continue
			}
			col := ab[o+1 : o+1+m]
			for i, l := range lcol {
				col[i] -= l * fv
			}
		}
	}
	for _, v := range ab {
		if v-v != 0 {
			return false
		}
	}
	f.lu, f.piv, f.band = ab, piv, true
	return true
}

// denseLU factors a dense and reports whether it is nonsingular.
func (f *Factorization) denseLU() bool {
	f.lu = make([]float64, f.n*f.n)
	copy(f.lu, f.a)
	piv, singular := LU(f.lu, f.n)
	f.piv, f.band = piv, false
	return !singular
}

// Solve writes X with A X = B into x[:n*m] for the n x m column-major B.
// x may be b itself; a band factorization then answers dense, since its
// fallback has to reread B.
func (f *Factorization) Solve(b []float64, m int, x []float64) {
	n := f.n
	b, x = b[:n*m], x[:n*m]
	if f.band && (aliases(x, b, n*m) || !f.bandSolve(b, m, x)) {
		f.denseLU() // nonsingular: its pivots are the band's
	}
	if !f.band {
		f.denseSolve(b, m, x)
	}
}

// aliases reports whether the n-element x and b start at one address.
func aliases(x, b []float64, n int) bool {
	return n > 0 && &x[0] == &b[0]
}

// bandSolve solves with the band factor, each row swap just before its
// elimination step as dgbtrs does, and reports whether every entry of X
// is finite and nonzero. A non-finite B always leaves a non-finite X.
func (f *Factorization) bandSolve(b []float64, m int, x []float64) bool {
	n, kl := f.n, f.kl
	kv := kl + f.ku
	ld := kv + kl + 1
	copy(x, b)
	for j := 0; j < m; j++ {
		col := x[j*n : (j+1)*n]
		for k := 0; k < n; k++ {
			if p := f.piv[k]; p != k {
				col[k], col[p] = col[p], col[k]
			}
			l, last := f.lu[k*ld+kv-k:], min(n-1, k+kl) // l[i] = L(i,k)
			for i := k + 1; i <= last; i++ {
				col[i] -= l[i] * col[k]
			}
		}
		for k := n - 1; k >= 0; k-- {
			u := f.lu[k*ld+kv-k:] // u[i] = U(i,k)
			col[k] /= u[k]
			for i := max(0, k-kv); i < k; i++ {
				col[i] -= u[i] * col[k]
			}
		}
		for _, v := range col {
			if v == 0 || v-v != 0 {
				return false
			}
		}
	}
	return true
}

func (f *Factorization) denseSolve(b []float64, m int, x []float64) {
	n, lu, piv := f.n, f.lu, f.piv
	copy(x, b)
	for j := 0; j < m; j++ {
		col := x[j*n : (j+1)*n]
		// apply pivots
		for k := 0; k < n; k++ {
			if piv[k] != k {
				col[k], col[piv[k]] = col[piv[k]], col[k]
			}
		}
		// forward substitution (unit lower)
		for k := 0; k < n; k++ {
			for i := k + 1; i < n; i++ {
				col[i] -= lu[k*n+i] * col[k]
			}
		}
		// back substitution
		for k := n - 1; k >= 0; k-- {
			col[k] /= lu[k*n+k]
			for i := 0; i < k; i++ {
				col[i] -= lu[k*n+i] * col[k]
			}
		}
	}
}

// det returns the determinant, the signed product of the pivots: the
// band and the dense factor hold the same pivots bit for bit.
func (f *Factorization) det() float64 {
	at, stride := 0, f.n+1
	if f.band {
		at, stride = f.kl+f.ku, 2*f.kl+f.ku+1
	}
	det := 1.0
	for k := 0; k < f.n; k++ {
		det *= f.lu[at+k*stride]
		if f.piv[k] != k {
			det = -det
		}
	}
	return det
}
