package mat

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/sparse"
)

// This file implements the CSR sparse storage form of Value — the
// second representation the sparsity-aware code selection dispatches
// over. A sparse value has kind Real, re/im nil, and sp non-nil; its
// rows/cols fields stay authoritative for shape. sparseData is
// immutable after construction (only the caches mutate, atomically), so
// sparse values can share it freely: Clone is O(1), and the cached
// transpose is reused by every alias (qmr's per-iteration A'*q).
//
// Representation rules (documented in DESIGN.md §15):
//   - Construction (sparse/speye/spdiags) always yields sparse,
//     regardless of density. sparse() drops exact zeros (MATLAB
//     semantics); spdiags keeps band zeros stored so 0*NaN reaches
//     results exactly as in the dense path.
//   - Sparse-preserving operators (+, -, .* , ./ by scalar, unary
//     minus, transpose) keep sparse results but auto-densify when the
//     result density exceeds SparseThreshold.
//   - Every other operator densifies its sparse operands through
//     Dense(), which enforces a memory guard instead of attempting an
//     impossible allocation.

// sparseData is the immutable CSR payload: row i's entries are
// k in [rowPtr[i], rowPtr[i+1]), colIdx strictly ascending per row.
type sparseData struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	val        []float64

	// trans caches the materialized transpose; the back-pointer set at
	// creation makes A'' free and keeps one pair alive.
	trans atomic.Pointer[sparseData]
	// tri caches the structural triangularity: 0 unknown, else
	// 1 + sparse.Triangularity.
	tri atomic.Int32
}

// denseGuardLimit is the element-count ceiling for densification: above
// it, Dense() reports an error instead of attempting the allocation
// (an n=10^6 operand would need 8 TB dense).
const denseGuardLimit = 1 << 27

// sparseThresholdBits holds the -sparse-threshold density cutoff
// (float64 bits). Results of sparse-preserving operators denser than
// this auto-densify. Process-global, like OversizeEnabled.
var sparseThresholdBits atomic.Uint64

func init() { sparseThresholdBits.Store(math.Float64bits(0.5)) }

// SetSparseThreshold sets the density above which sparse operator
// results auto-densify (constructors are exempt). Values are clamped to
// [0, 1]; 1 keeps every result sparse.
func SetSparseThreshold(d float64) {
	if d < 0 {
		d = 0
	}
	if d > 1 {
		d = 1
	}
	sparseThresholdBits.Store(math.Float64bits(d))
}

// SparseThresholdValue returns the current density cutoff.
func SparseThresholdValue() float64 {
	return math.Float64frombits(sparseThresholdBits.Load())
}

// IsSparse reports whether the value uses the CSR storage form.
func (v *Value) IsSparse() bool { return v.sp != nil }

// NNZ returns the stored-entry count of a sparse value, or the nonzero
// count of a dense one.
func (v *Value) NNZ() int {
	if v.sp != nil {
		return len(v.sp.val)
	}
	n := 0
	for _, x := range v.Re() {
		if x != 0 {
			n++
		}
	}
	if v.im != nil {
		for i, x := range v.Im() {
			if x != 0 && v.re[i] == 0 {
				n++
			}
		}
	}
	return n
}

// Density returns stored entries / numel for sparse values and 1 for
// dense values (the representation is fully stored).
func (v *Value) Density() float64 {
	n := v.rows * v.cols
	if n == 0 {
		return 0
	}
	if v.sp == nil {
		return 1
	}
	return float64(len(v.sp.val)) / float64(n)
}

// newSparse wraps a sparseData in a Value.
func newSparse(d *sparseData) *Value {
	return &Value{kind: Real, rows: d.rows, cols: d.cols, sp: d}
}

// NewSparseCSR builds a sparse value from canonical CSR arrays (colIdx
// strictly ascending per row). The slices are adopted, not copied.
func NewSparseCSR(rows, cols int, rowPtr, colIdx []int, val []float64) (*Value, error) {
	if rows < 0 || cols < 0 || len(rowPtr) != rows+1 || len(colIdx) != len(val) {
		return nil, Errorf("sparse: malformed CSR arrays")
	}
	for i := 0; i < rows; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			return nil, Errorf("sparse: malformed CSR row pointers")
		}
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			if colIdx[k] < 0 || colIdx[k] >= cols {
				return nil, Errorf("sparse: column index out of range")
			}
			if k > rowPtr[i] && colIdx[k] <= colIdx[k-1] {
				return nil, Errorf("sparse: column indices must be strictly ascending per row")
			}
		}
	}
	if rowPtr[rows] != len(val) {
		return nil, Errorf("sparse: malformed CSR arrays")
	}
	return newSparse(&sparseData{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val}), nil
}

// SparseZeros returns an all-zero sparse rows x cols value.
func SparseZeros(rows, cols int) *Value {
	if rows < 0 || cols < 0 {
		rows, cols = 0, 0
	}
	return newSparse(&sparseData{rows: rows, cols: cols, rowPtr: make([]int, rows+1)})
}

// SparseEye returns the sparse rows x cols identity.
func SparseEye(rows, cols int) *Value {
	n := rows
	if cols < n {
		n = cols
	}
	if n < 0 {
		n = 0
	}
	d := &sparseData{rows: rows, cols: cols, rowPtr: make([]int, rows+1), colIdx: make([]int, n), val: make([]float64, n)}
	for i := 0; i < n; i++ {
		d.colIdx[i] = i
		d.val[i] = 1
	}
	for i := 0; i < rows; i++ {
		k := 0
		if i < n {
			k = i + 1
		} else {
			k = n
		}
		d.rowPtr[i+1] = k
	}
	return newSparse(d)
}

// SparseFromTriplets builds a sparse value from 0-based (row, col, v)
// triplets, summing duplicates and dropping exact-zero results (MATLAB
// sparse(i,j,s) semantics).
func SparseFromTriplets(rows, cols int, ri, ci []int, vs []float64) (*Value, error) {
	if len(ri) != len(ci) || len(ci) != len(vs) {
		return nil, Errorf("sparse: triplet vectors must have the same length")
	}
	for k := range ri {
		if ri[k] < 0 || ri[k] >= rows || ci[k] < 0 || ci[k] >= cols {
			return nil, Errorf("sparse: index out of bounds (%d,%d of %dx%d)", ri[k]+1, ci[k]+1, rows, cols)
		}
	}
	ord := make([]int, len(ri))
	for i := range ord {
		ord[i] = i
	}
	sort.SliceStable(ord, func(a, b int) bool {
		if ri[ord[a]] != ri[ord[b]] {
			return ri[ord[a]] < ri[ord[b]]
		}
		return ci[ord[a]] < ci[ord[b]]
	})
	d := &sparseData{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	for at := 0; at < len(ord); {
		r, c := ri[ord[at]], ci[ord[at]]
		s := 0.0
		for at < len(ord) && ri[ord[at]] == r && ci[ord[at]] == c {
			s += vs[ord[at]]
			at++
		}
		if s != 0 {
			d.colIdx = append(d.colIdx, c)
			d.val = append(d.val, s)
			d.rowPtr[r+1]++
		}
	}
	for i := 0; i < rows; i++ {
		d.rowPtr[i+1] += d.rowPtr[i]
	}
	return newSparse(d), nil
}

// SparseFromDiags builds an m x n sparse value from diagonals: diags[k]
// holds the full-length column of values for offset offsets[k], indexed
// by the *column* position of each element (the MATLAB spdiags
// convention for square operands: A(i, j) on diagonal j-i = d takes
// element j of the diagonal column). Zeros inside the band stay stored.
func SparseFromDiags(m, n int, diags [][]float64, offsets []int) (*Value, error) {
	if len(diags) != len(offsets) {
		return nil, Errorf("spdiags: one offset per diagonal column required")
	}
	ord := make([]int, len(offsets))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return offsets[ord[a]] < offsets[ord[b]] })
	for i := 1; i < len(ord); i++ {
		if offsets[ord[i]] == offsets[ord[i-1]] {
			return nil, Errorf("spdiags: duplicate diagonal offset %d", offsets[ord[i]])
		}
	}
	d := &sparseData{rows: m, cols: n, rowPtr: make([]int, m+1)}
	for i := 0; i < m; i++ {
		for _, k := range ord {
			j := i + offsets[k]
			if j < 0 || j >= n {
				continue
			}
			if j >= len(diags[k]) {
				return nil, Errorf("spdiags: diagonal column too short (%d elements, need %d)", len(diags[k]), j+1)
			}
			d.colIdx = append(d.colIdx, j)
			d.val = append(d.val, diags[k][j])
		}
		d.rowPtr[i+1] = len(d.colIdx)
	}
	return newSparse(d), nil
}

// Sparse returns the CSR form of the value, dropping exact zeros
// (MATLAB sparse() semantics). Already-sparse values return themselves.
// Complex and char values are rejected: the sparse form is real-only.
func (v *Value) Sparse() (*Value, error) {
	if v.sp != nil {
		return v, nil
	}
	if v.kind == Complex || v.kind == Char {
		return nil, Errorf("sparse: %s operands are not supported", v.kind)
	}
	d := &sparseData{rows: v.rows, cols: v.cols, rowPtr: make([]int, v.rows+1)}
	nnz := 0
	for i := 0; i < v.rows; i++ {
		for j := 0; j < v.cols; j++ {
			if v.re[j*v.rows+i] != 0 {
				nnz++
			}
		}
	}
	d.colIdx = make([]int, 0, nnz)
	d.val = make([]float64, 0, nnz)
	for i := 0; i < v.rows; i++ {
		for j := 0; j < v.cols; j++ {
			if x := v.re[j*v.rows+i]; x != 0 {
				d.colIdx = append(d.colIdx, j)
				d.val = append(d.val, x)
			}
		}
		d.rowPtr[i+1] = len(d.colIdx)
	}
	return newSparse(d), nil
}

// Dense returns a fully stored copy of a sparse value (dense values
// return themselves). Densification above denseGuardLimit elements is
// refused with a runtime error rather than attempting the allocation.
func (v *Value) Dense() (*Value, error) {
	if v.sp == nil {
		return v, nil
	}
	re, err := v.sp.dense()
	if err != nil {
		return nil, err
	}
	return &Value{kind: Real, rows: v.rows, cols: v.cols, re: re}, nil
}

func (d *sparseData) dense() ([]float64, error) {
	n := d.rows * d.cols
	if n > denseGuardLimit {
		return nil, Errorf("sparse: refusing to densify a %dx%d matrix (%d elements exceeds the densification guard; raise -sparse-threshold or restructure with sparse-aware operations)", d.rows, d.cols, n)
	}
	re := make([]float64, n)
	for i := 0; i < d.rows; i++ {
		for k := d.rowPtr[i]; k < d.rowPtr[i+1]; k++ {
			re[d.colIdx[k]*d.rows+i] = d.val[k]
		}
	}
	return re, nil
}

// densifyInPlace swaps the value to dense storage in place. Mutation
// paths (indexed assignment) call it after copy-on-write has made the
// value unshared, so aliases never observe the representation change
// mid-flight.
func (v *Value) densifyInPlace() error {
	if v.sp == nil {
		return nil
	}
	re, err := v.sp.dense()
	if err != nil {
		return err
	}
	v.re = re
	v.sp = nil
	return nil
}

// dense2 densifies whichever of a pair of operands is sparse, for
// operators with no sparse implementation.
func dense2(a, b *Value) (*Value, *Value, error) {
	var err error
	if a, err = a.Dense(); err != nil {
		return nil, nil, err
	}
	if b, err = b.Dense(); err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// sparseAt returns the (r, c) element via binary search in the row.
func (d *sparseData) at(r, c int) float64 {
	lo, hi := d.rowPtr[r], d.rowPtr[r+1]
	idx := d.colIdx[lo:hi]
	i := sort.SearchInts(idx, c)
	if i < len(idx) && idx[i] == c {
		return d.val[lo+i]
	}
	return 0
}

// sparseLinear returns the 0-based linear (column-major) element.
func (d *sparseData) linear(i int) float64 {
	return d.at(i%d.rows, i/d.rows)
}

// transposed returns the CSR transpose, cached on the payload. The
// cache holds a back-pointer so A” returns the original arrays.
func (d *sparseData) transposed() *sparseData {
	if t := d.trans.Load(); t != nil {
		return t
	}
	tr, tc, tv := sparse.Transpose(d.rows, d.cols, d.rowPtr, d.colIdx, d.val)
	t := &sparseData{rows: d.cols, cols: d.rows, rowPtr: tr, colIdx: tc, val: tv}
	t.trans.Store(d)
	// Racing stores build identical payloads; first one wins.
	d.trans.CompareAndSwap(nil, t)
	return d.trans.Load()
}

// Triangularity classifies the stored pattern, cached on the payload.
func (d *sparseData) triangularity() sparse.Triangularity {
	if t := d.tri.Load(); t != 0 {
		return sparse.Triangularity(t - 1)
	}
	t := sparse.Classify(d.rows, d.rowPtr, d.colIdx)
	d.tri.Store(int32(t) + 1)
	return t
}

// finishSparse applies the density cutoff to a sparse operator result:
// results denser than SparseThreshold densify (unless the guard
// refuses, in which case the sparse form is kept — it is always the
// safe representation).
func finishSparse(v *Value) *Value {
	if v.sp == nil {
		return v
	}
	if v.Density() > SparseThresholdValue() {
		if d, err := v.Dense(); err == nil {
			return d
		}
	}
	return v
}

// --- Sparse operator implementations --------------------------------------

// sparseMergeOp implements + and - for two same-shaped sparse operands
// by row merge. Unmatched entries still apply the operator against an
// explicit 0.0 so IEEE edge cases (-0, NaN) match the dense result
// exactly; computed zeros stay stored for the same reason.
func sparseMergeOp(a, b *sparseData, op ElemOp) *sparseData {
	out := &sparseData{rows: a.rows, cols: a.cols, rowPtr: make([]int, a.rows+1)}
	out.colIdx = make([]int, 0, len(a.val)+len(b.val))
	out.val = make([]float64, 0, len(a.val)+len(b.val))
	for i := 0; i < a.rows; i++ {
		ka, ea := a.rowPtr[i], a.rowPtr[i+1]
		kb, eb := b.rowPtr[i], b.rowPtr[i+1]
		for ka < ea || kb < eb {
			switch {
			case kb >= eb || (ka < ea && a.colIdx[ka] < b.colIdx[kb]):
				out.colIdx = append(out.colIdx, a.colIdx[ka])
				out.val = append(out.val, op.Apply(a.val[ka], 0))
				ka++
			case ka >= ea || b.colIdx[kb] < a.colIdx[ka]:
				out.colIdx = append(out.colIdx, b.colIdx[kb])
				out.val = append(out.val, op.Apply(0, b.val[kb]))
				kb++
			default:
				out.colIdx = append(out.colIdx, a.colIdx[ka])
				out.val = append(out.val, op.Apply(a.val[ka], b.val[kb]))
				ka++
				kb++
			}
		}
		out.rowPtr[i+1] = len(out.colIdx)
	}
	return out
}

// sparseAddSub handles + / - when at least one operand is sparse.
// Sparse results only arise from sparse+sparse with equal shapes; any
// other combination (scalar broadcast, dense operand) produces a dense
// result anyway, so the sparse operand densifies first (the copies are
// not the caller's operands, so only d.Dst stays on offer).
func sparseAddSub(d Donors, a, b *Value, sub bool) (*Value, error) {
	if a.sp != nil && b.sp != nil && SameShape(a, b) {
		op := KAdd
		if sub {
			op = KSub
		}
		return finishSparse(newSparse(sparseMergeOp(a.sp, b.sp, op))), nil
	}
	a, b, err := dense2(a, b)
	if err != nil {
		return nil, err
	}
	d.Consumed = 0
	if sub {
		return d.Sub(a, b)
	}
	return d.Add(a, b)
}

// mapStored applies f to every stored entry (pattern unchanged).
// Stored zeros are mapped too — never skipped.
func mapStored(d *sparseData, f func(x float64) float64) *sparseData {
	out := &sparseData{rows: d.rows, cols: d.cols, rowPtr: d.rowPtr, colIdx: d.colIdx, val: make([]float64, len(d.val))}
	for i, x := range d.val {
		out.val[i] = f(x)
	}
	return out
}

// sparseElemMul handles .* with at least one sparse operand. The result
// keeps the sparse pattern: implicit zeros annihilate (0*NaN at an
// unstored position yields an implicit 0 — MATLAB's sparse semantics,
// the documented divergence from the densified path). Stored entries
// always multiply through.
func sparseElemMul(a, b *Value) (*Value, error) {
	// Normalize: a sparse.
	if a.sp == nil {
		a, b = b, a
	}
	switch {
	case b.IsScalar() && b.sp == nil:
		if b.kind == Complex || b.kind == Char {
			break
		}
		s := b.re[0]
		return finishSparse(newSparse(mapStored(a.sp, func(x float64) float64 { return x * s }))), nil
	case b.sp != nil && b.IsScalar():
		s := b.sp.linear(0)
		if a.IsScalar() {
			// scalar .* scalar: result is 1x1 sparse
			return finishSparse(newSparse(mapStored(a.sp, func(x float64) float64 { return x * s }))), nil
		}
		return finishSparse(newSparse(mapStored(a.sp, func(x float64) float64 { return x * s }))), nil
	case a.IsScalar() && !b.IsScalar():
		// sparse scalar .* matrix: broadcast the scalar over b.
		s := a.sp.linear(0)
		if b.sp != nil {
			return finishSparse(newSparse(mapStored(b.sp, func(x float64) float64 { return s * x }))), nil
		}
		return ElemMul(Scalar(s), b)
	case b.sp != nil && SameShape(a, b):
		// Intersection of patterns.
		out := &sparseData{rows: a.rows, cols: a.cols, rowPtr: make([]int, a.rows+1)}
		for i := 0; i < a.rows; i++ {
			ka, ea := a.sp.rowPtr[i], a.sp.rowPtr[i+1]
			kb, eb := b.sp.rowPtr[i], b.sp.rowPtr[i+1]
			for ka < ea && kb < eb {
				switch {
				case a.sp.colIdx[ka] < b.sp.colIdx[kb]:
					ka++
				case b.sp.colIdx[kb] < a.sp.colIdx[ka]:
					kb++
				default:
					out.colIdx = append(out.colIdx, a.sp.colIdx[ka])
					out.val = append(out.val, a.sp.val[ka]*b.sp.val[kb])
					ka++
					kb++
				}
			}
			out.rowPtr[i+1] = len(out.colIdx)
		}
		return finishSparse(newSparse(out)), nil
	case b.sp == nil && SameShape(a, b) && b.kind != Complex && b.kind != Char:
		// sparse .* dense: keep a's pattern.
		d := a.sp
		out := &sparseData{rows: d.rows, cols: d.cols, rowPtr: d.rowPtr, colIdx: d.colIdx, val: make([]float64, len(d.val))}
		at := 0
		for i := 0; i < d.rows; i++ {
			for k := d.rowPtr[i]; k < d.rowPtr[i+1]; k++ {
				out.val[at] = d.val[k] * b.re[d.colIdx[k]*b.rows+i]
				at++
			}
		}
		return finishSparse(newSparse(out)), nil
	}
	a2, b2, err := dense2(a, b)
	if err != nil {
		return nil, err
	}
	return ElemMul(a2, b2)
}

// sparseElemDiv handles ./ with a sparse dividend and scalar divisor
// (stored entries divide through, implicit zeros stay implicit —
// MATLAB's rule). Every other combination densifies.
func sparseElemDiv(a, b *Value) (*Value, error) {
	if b.IsScalar() && b.sp != nil {
		if bd, err := b.Dense(); err == nil {
			b = bd
		}
	}
	if a.sp != nil && b.IsScalar() && b.sp == nil && b.kind != Complex && b.kind != Char {
		s := b.re[0]
		return finishSparse(newSparse(mapStored(a.sp, func(x float64) float64 { return x / s }))), nil
	}
	a2, b2, err := dense2(a, b)
	if err != nil {
		return nil, err
	}
	return ElemDiv(a2, b2)
}

// sparseNeg negates the stored entries (implicit zeros keep +0, the
// MATLAB-faithful divergence from dense -0).
func sparseNeg(a *Value) (*Value, error) {
	return finishSparse(newSparse(mapStored(a.sp, func(x float64) float64 { return -x }))), nil
}

// sparseTranspose returns the cached transpose ('. and .' coincide:
// sparse values are real).
func sparseTranspose(a *Value) (*Value, error) {
	return newSparse(a.sp.transposed()), nil
}

// sparseMul handles * with at least one sparse operand. Sparse * dense
// vector is the SpMV kernel; sparse * dense matrix is SpMM; dense *
// sparse runs through the transpose identity (A*B = (B'*A')'), so the
// row-vector-times-operator shape stays fast; sparse * sparse densifies
// the right operand (the product of two sparse operands is not kept
// sparse). Results are always dense — the product of a sparse operator
// with a dense vector is dense.
func sparseMul(d Donors, a, b *Value) (*Value, error) {
	if a.IsScalar() || b.IsScalar() {
		return sparseElemMul(a, b)
	}
	if a.cols != b.rows {
		return nil, Errorf("inner matrix dimensions must agree: %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	if a.sp == nil {
		// dense * sparse: (B' * A')'.
		bt, err := sparseTranspose(b)
		if err != nil {
			return nil, err
		}
		at, err := Transpose(a)
		if err != nil {
			return nil, err
		}
		xt, err := sparseMul(Donors{}, bt, at)
		if err != nil {
			return nil, err
		}
		return Transpose(xt)
	}
	if b.sp != nil {
		bd, err := b.Dense()
		if err != nil {
			return nil, err
		}
		b = bd
	}
	if b.kind == Complex || b.kind == Char {
		return nil, Errorf("sparse: %s operands are not supported in sparse products", b.kind)
	}
	// Both kernels store every result element without reading it, so a
	// donated buffer's old contents never show.
	sp := a.sp
	out := d.NewReal(a.rows, b.cols, false, a, b)
	if b.cols == 1 {
		sparse.SpMV(sp.rows, sp.rowPtr, sp.colIdx, sp.val, 1, b.re[:b.rows], 0, out.re)
	} else {
		sparse.SpMM(sp.rows, sp.rowPtr, sp.colIdx, sp.val, b.re[:b.rows*b.cols], b.rows, b.cols, out.re, a.rows)
	}
	return out, nil
}

// SparseSpMVInto computes y = alpha*A*x + beta'*y for a sparse A with a
// caller-prepared y (the VM's fused gemv instruction does its own beta
// prologue and calls with beta = 1, exactly as it calls blas.Dgemv).
func SparseSpMVInto(a *Value, alpha float64, x []float64, beta float64, y []float64) {
	d := a.sp
	sparse.SpMV(d.rows, d.rowPtr, d.colIdx, d.val, alpha, x, beta, y)
}

// SparseCSR exposes the raw CSR arrays of a sparse value for kernel
// callers (the VM's gemv fast path, the bench comparator, nnz). The
// slices are the live immutable storage: callers must not mutate them.
func SparseCSR(v *Value) (rows, cols int, rowPtr, colIdx []int, val []float64) {
	if v.sp == nil {
		panic("mat: SparseCSR on a dense value")
	}
	return v.sp.rows, v.sp.cols, v.sp.rowPtr, v.sp.colIdx, v.sp.val
}

// SparseVals returns the stored-entry values of a sparse value
// (read-only view; includes explicitly stored zeros).
func SparseVals(v *Value) []float64 {
	if v.sp == nil {
		return nil
	}
	return v.sp.val
}

// SparseTriangularity exposes the cached structural classification for
// the mldivide dispatch (General for dense values).
func SparseTriangularity(v *Value) sparse.Triangularity {
	if v.sp == nil {
		return sparse.General
	}
	return v.sp.triangularity()
}

// SparseTriSolve solves A x = b for a structurally triangular sparse A
// and dense b (one or more columns), returning a dense result. The
// caller has already checked SparseTriangularity.
func SparseTriSolve(a, b *Value) (*Value, error) {
	lower := a.sp.triangularity() != sparse.Upper // Diagonal solves as lower
	out := New(a.rows, b.cols)
	for j := 0; j < b.cols; j++ {
		col, err := sparse.TriSolve(a.rows, a.sp.rowPtr, a.sp.colIdx, a.sp.val, lower, b.re[j*b.rows:(j+1)*b.rows])
		if err != nil {
			return nil, Errorf("sparse: %v", err)
		}
		copy(out.re[j*a.rows:(j+1)*a.rows], col)
	}
	return out, nil
}

// SparseDiag extracts the main diagonal of a sparse matrix into a dense
// n x 1 vector without densifying the operand — O(nnz) and bit-exact
// (entries are copied, never recomputed).
func SparseDiag(v *Value) *Value {
	n := v.rows
	if v.cols < n {
		n = v.cols
	}
	out := New(n, 1)
	d := v.sp
	for i := 0; i < n; i++ {
		out.re[i] = d.at(i, i)
	}
	return out
}

// sparseString renders a sparse value the way MATLAB displays sparse
// matrices: one "(i,j)  v" line per stored entry, column-major order.
func (v *Value) sparseString() string {
	if len(v.sp.val) == 0 {
		return fmt.Sprintf("All zero sparse: %dx%d", v.rows, v.cols)
	}
	t := v.sp.transposed() // column-major enumeration = row-major of Aᵀ
	var b strings.Builder
	for j := 0; j < t.rows; j++ {
		for k := t.rowPtr[j]; k < t.rowPtr[j+1]; k++ {
			if b.Len() > 0 {
				b.WriteByte('\n')
			}
			fmt.Fprintf(&b, "  (%d,%d)\t%g", t.colIdx[k]+1, j+1, t.val[k])
		}
	}
	return b.String()
}
