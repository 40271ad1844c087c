// Package sparse provides the CSR kernel substrate for the sparse value
// representation in internal/mat: sparse matrix-vector product, sparse
// matrix-dense matrix product, structurally triangular solves, and CSR
// transposition. It plays the role blas plays for the dense layer — raw
// slices in, raw slices out, no boxed values — and obeys the same two
// invariants the dense kernels pinned:
//
//   - Results are byte-for-byte identical for every thread count. SpMV
//     partitions rows and each y element accumulates its stored entries
//     in ascending column order, exactly the per-element order
//     blas.Dgemv uses (beta prologue, then += (alpha*x[j])*a_ij with j
//     ascending), so a fully stored CSR row reproduces the dense gemv
//     result bitwise. The triangular solves are level-scheduled: rows
//     within a dependency level are independent, so scheduling cannot
//     change any value.
//   - Stored entries are never skipped, even when the stored value is
//     zero: 0*NaN and 0*Inf contributions must reach the result (IEEE
//     semantics — the same rule that removed the quick-skips from
//     Dgemm/Dgemv). Implicit (unstored) zeros contribute nothing, which
//     is MATLAB's sparse semantics and the one documented divergence
//     from the densified path when x carries NaN/Inf at unstored
//     columns.
//
// A CSR matrix is (m, rowPtr, colIdx, val): rowPtr has m+1 entries,
// row i's entries are k in [rowPtr[i], rowPtr[i+1]), and colIdx is
// strictly ascending within each row (the canonical form internal/mat
// maintains).
package sparse

import (
	"errors"

	"repro/internal/parallel"
)

// ErrSingular reports a zero or missing diagonal in a triangular solve.
var ErrSingular = errors.New("sparse: matrix is singular to working precision")

// spmvGrainFlops matches the dense gemv grain: below ~2^15 flops per
// chunk a partition is not worth scheduling.
const spmvGrainFlops = 1 << 15

// SpMV computes y = alpha*A*x + beta*y for an m-row CSR matrix A.
//
// The per-element accumulation mirrors blas.Dgemv exactly: beta == 0
// stores (never reads y, so y may hold garbage on entry), beta == 1
// starts from y[i] unchanged, any other beta scales y[i] first; then
// each stored entry adds (alpha*x[j]) * a_ij in ascending column
// order. alpha == 0 follows the BLAS convention: A and x are not
// referenced, only the beta prologue applies.
func SpMV(m int, rowPtr, colIdx []int, val []float64, alpha float64, x []float64, beta float64, y []float64) {
	if alpha == 0 {
		for i := 0; i < m; i++ {
			if beta == 0 {
				y[i] = 0
			} else {
				y[i] *= beta
			}
		}
		return
	}
	nnz := rowPtr[m]
	avg := 0
	if m > 0 {
		avg = nnz / m
	}
	// No closure for a product that does not fan out: a func literal
	// handed to parallel.For is a heap object either way.
	if grain := 1 + spmvGrainFlops/(2*avg+1); m <= grain || parallel.DefaultThreads() == 1 {
		spmvRows(0, m, rowPtr, colIdx, val, alpha, x, beta, y)
	} else {
		parallel.For(0, m, grain, func(lo, hi int) { spmvRows(lo, hi, rowPtr, colIdx, val, alpha, x, beta, y) })
	}
}

// spmvRows is SpMV over rows [lo, hi).
func spmvRows(lo, hi int, rowPtr, colIdx []int, val []float64, alpha float64, x []float64, beta float64, y []float64) {
	for i := lo; i < hi; i++ {
		var acc float64
		switch beta {
		case 0:
			acc = 0
		case 1:
			acc = y[i]
		default:
			acc = y[i] * beta
		}
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			t := alpha * x[colIdx[k]]
			acc += t * val[k]
		}
		y[i] = acc
	}
}

// SpMM computes the dense product C = A*B for an m-row CSR matrix A and
// a dense column-major n x p matrix B (ldb >= n), storing into the
// column-major m x p matrix C (ldc >= m). C is fully stored (never
// read), and each element accumulates row i's stored entries in
// ascending column order — the independent-dot-product structure makes
// the result identical for every thread count.
func SpMM(m int, rowPtr, colIdx []int, val []float64, b []float64, ldb, p int, c []float64, ldc int) {
	nnz := rowPtr[m]
	avg := 0
	if m > 0 {
		avg = nnz / m
	}
	grain := 1 + spmvGrainFlops/(2*avg*p+1)
	parallel.For(0, m, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < p; j++ {
				col := b[j*ldb:]
				var acc float64
				for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
					acc += val[k] * col[colIdx[k]]
				}
				c[j*ldc+i] = acc
			}
		}
	})
}

// Transpose returns the CSR form of the transpose of the m x n CSR
// matrix A, via a counting sort over columns. Because rows are
// scattered in ascending order, each transposed row's colIdx comes out
// strictly ascending — the canonical form is preserved.
func Transpose(m, n int, rowPtr, colIdx []int, val []float64) (tRowPtr, tColIdx []int, tVal []float64) {
	nnz := rowPtr[m]
	tRowPtr = make([]int, n+1)
	tColIdx = make([]int, nnz)
	tVal = make([]float64, nnz)
	for k := 0; k < nnz; k++ {
		tRowPtr[colIdx[k]+1]++
	}
	for j := 0; j < n; j++ {
		tRowPtr[j+1] += tRowPtr[j]
	}
	next := make([]int, n)
	copy(next, tRowPtr[:n])
	for i := 0; i < m; i++ {
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			j := colIdx[k]
			at := next[j]
			next[j]++
			tColIdx[at] = i
			tVal[at] = val[k]
		}
	}
	return tRowPtr, tColIdx, tVal
}

// Triangularity classifies the structural shape of a CSR matrix by its
// stored pattern (stored zeros count as structure, matching MATLAB's
// istriu/istril on sparse operands).
type Triangularity int

const (
	// General has stored entries on both sides of the diagonal.
	General Triangularity = iota
	// Lower has no stored entries above the diagonal.
	Lower
	// Upper has no stored entries below the diagonal.
	Upper
	// Diagonal has stored entries only on the diagonal.
	Diagonal
)

// Classify scans the pattern once and reports its triangularity.
func Classify(m int, rowPtr, colIdx []int) Triangularity {
	hasLo, hasUp := false, false
	for i := 0; i < m; i++ {
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			if colIdx[k] < i {
				hasLo = true
			} else if colIdx[k] > i {
				hasUp = true
			}
		}
		if hasLo && hasUp {
			return General
		}
	}
	switch {
	case hasLo:
		return Lower
	case hasUp:
		return Upper
	default:
		return Diagonal
	}
}

// triGrainRows is the minimum rows per chunk inside one solver level;
// levels narrower than ~2 chunks run inline (banded systems degenerate
// to a fully serial sweep, which is the correct schedule for them).
const triGrainRows = 256

// TriSolve solves A x = b for a structurally triangular n x n CSR
// matrix A (lower true: forward substitution in ascending row order;
// false: backward). The diagonal entry of every row must be stored and
// nonzero, or ErrSingular is returned. b is not modified.
//
// Parallelism is by level scheduling: level(i) = 1 + max level of the
// rows i depends on, so all rows within a level are independent and
// solve concurrently. Each x[i] is produced by the identical
// ascending-column accumulation regardless of the schedule, so results
// are byte-for-byte identical at every thread count.
func TriSolve(n int, rowPtr, colIdx []int, val []float64, lower bool, b []float64) ([]float64, error) {
	x := make([]float64, n)
	// Dependency levels. For banded matrices every row depends on the
	// previous one and maxLevel == n: skip straight to the serial sweep.
	level := make([]int, n)
	maxLevel := 0
	wide := false
	for ii := 0; ii < n; ii++ {
		i := ii
		if !lower {
			i = n - 1 - ii
		}
		lv := 0
		diagAt := -1
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			j := colIdx[k]
			switch {
			case j == i:
				diagAt = k
			case lower && j < i, !lower && j > i:
				if level[j] > lv {
					lv = level[j]
				}
			default:
				return nil, ErrSingular // entry on the wrong side: not triangular
			}
		}
		if diagAt < 0 || val[diagAt] == 0 {
			return nil, ErrSingular
		}
		level[i] = lv + 1
		if lv+1 > maxLevel {
			maxLevel = lv + 1
		}
	}
	if maxLevel*2 < n {
		wide = true
	}

	solveRow := func(i int) {
		var diag float64
		sum := b[i]
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			j := colIdx[k]
			if j == i {
				diag = val[k]
				continue
			}
			sum -= val[k] * x[j]
		}
		x[i] = sum / diag
	}

	if !wide || parallel.DefaultThreads() == 1 {
		// Serial substitution in dependency order.
		if lower {
			for i := 0; i < n; i++ {
				solveRow(i)
			}
		} else {
			for i := n - 1; i >= 0; i-- {
				solveRow(i)
			}
		}
		return x, nil
	}

	// Bucket rows by level (buckets keep ascending row order) and sweep
	// the levels in dependency order, each level row-parallel.
	count := make([]int, maxLevel+1)
	for i := 0; i < n; i++ {
		count[level[i]]++
	}
	start := make([]int, maxLevel+2)
	for l := 1; l <= maxLevel; l++ {
		start[l+1] = start[l] + count[l]
	}
	order := make([]int, n)
	next := make([]int, maxLevel+1)
	copy(next[1:], start[1:maxLevel+1])
	for i := 0; i < n; i++ {
		l := level[i]
		order[next[l]] = i
		next[l]++
	}
	for l := 1; l <= maxLevel; l++ {
		rows := order[start[l]:start[l+1]]
		parallel.For(0, len(rows), triGrainRows, func(lo, hi int) {
			for _, i := range rows[lo:hi] {
				solveRow(i)
			}
		})
	}
	return x, nil
}
