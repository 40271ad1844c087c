// Sparse iterative-solver workload tier: cg, SOR-style, and QMR-style
// iterations over pentadiagonal and 2-D Poisson operators at sizes the
// dense benchmarks cannot touch (n up to 10^6 — a dense 10^6 x 10^6
// operand would need terabytes). The tier measures two things: the raw
// SpMV advantage over a densified execution of the same product, and
// end-to-end solver throughput through the engine's JIT with sparse
// operands flowing across the call boundary.
package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/parallel"
)

// SparseConfig drives the sparse solver tier.
type SparseConfig struct {
	Size Size
	Reps int // best-of repetitions
	Out  io.Writer
}

// sparseSizes returns the operator dimensions per preset.
func sparseSizes(sz Size) []int {
	switch sz {
	case Small:
		return []int{10_000}
	case Medium:
		return []int{10_000, 100_000}
	default:
		return []int{10_000, 100_000, 1_000_000}
	}
}

// spmvDenseCap bounds the sizes the densified SpMV comparator runs at:
// it streams O(n) work per row (n^2 total), the cost a densified
// operand would force on every product.
const spmvDenseCap = 100_000

// SparseSolverRow is one (solver, operator, n) measurement.
type SparseSolverRow struct {
	Solver   string
	Operator string
	N        int
	NNZ      int
	Iters    int
	TimeUS   int64
	Residual float64
}

// SpMVRow is one SpMV-vs-densified comparison.
type SpMVRow struct {
	Operator    string
	N           int
	NNZ         int
	SparseUS    int64
	DensifiedUS int64
	Speedup     float64
	// Match records that the sparse product and the densified-path
	// product agreed bit-for-bit.
	Match bool
}

// SparseReport is one run of the tier: the SpMV comparisons and the
// solver rows.
type SparseReport struct {
	Size    string
	Reps    int
	Threads int
	SpMV    []SpMVRow
	Solvers []SparseSolverRow
}

func (c SparseConfig) defaults() SparseConfig {
	if c.Reps <= 0 {
		c.Reps = 3
	}
	return c
}

// --- operators ---------------------------------------------------------------

// pentaOperator builds the pentadiagonal SPD operator
// [-1 -1 6 -1 -1] at offsets -2..2 (diagonally dominant).
func pentaOperator(n int) *mat.Value {
	e := make([]float64, n)
	d6 := make([]float64, n)
	for i := range e {
		e[i] = -1
		d6[i] = 6
	}
	a, err := mat.SparseFromDiags(n, n, [][]float64{e, e, d6, e, e}, []int{-2, -1, 0, 1, 2})
	if err != nil {
		panic(err)
	}
	return a
}

// poissonOperator builds the standard 5-point 2-D Poisson stencil on a
// k x k grid (n = k*k): 4 on the diagonal, -1 at offsets ±1 and ±k.
// The ±1 bands keep their grid-boundary zeros as stored entries, which
// also exercises stored-zero semantics at scale.
func poissonOperator(n int) (*mat.Value, int) {
	k := 1
	for (k+1)*(k+1) <= n {
		k++
	}
	n = k * k
	e := make([]float64, n)
	d4 := make([]float64, n)
	up := make([]float64, n)
	lo := make([]float64, n)
	for j := range e {
		e[j] = -1
		d4[j] = 4
		// spdiags convention: the value at A(i, j=i+d) is diags[][j],
		// indexed by column. A(i, i+1) has no east neighbor when column
		// i+1 starts a new grid row (j%k == 0); A(i, i-1) has no west
		// neighbor when row i starts one ((j+1)%k == 0 for j = i-1).
		up[j], lo[j] = -1, -1
		if j%k == 0 {
			up[j] = 0
		}
		if (j+1)%k == 0 {
			lo[j] = 0
		}
	}
	a, err := mat.SparseFromDiags(n, n, [][]float64{e, lo, d4, up, e}, []int{-k, -1, 0, 1, k})
	if err != nil {
		panic(err)
	}
	return a, n
}

// lowerSOROperator builds M = D/w + L for the pentadiagonal operator:
// the structurally lower-triangular preconditioner whose M \ r solve
// dispatches to the level-scheduled sparse triangular kernel.
func lowerSOROperator(n int, w float64) *mat.Value {
	e := make([]float64, n)
	dw := make([]float64, n)
	for i := range e {
		e[i] = -1
		dw[i] = 6 / w
	}
	m, err := mat.SparseFromDiags(n, n, [][]float64{e, e, dw}, []int{-2, -1, 0})
	if err != nil {
		panic(err)
	}
	return m
}

// --- solver programs ---------------------------------------------------------

const cgSparseSrc = `
function s = cgsp(A, b, iters)
  n = size(A, 1);
  x = zeros(n, 1);
  r = b - A*x;
  d = diag(A);
  z = r ./ d;
  p = z;
  rz = dot(r, z);
  for iter = 1:iters
    q = A*p;
    alpha = rz / dot(p, q);
    x = x + alpha*p;
    r = r - alpha*q;
    z = r ./ d;
    rznew = dot(r, z);
    beta = rznew / rz;
    rz = rznew;
    p = z + beta*p;
  end
  s = norm(b - A*x);
end`

const sorSparseSrc = `
function s = sorsp(A, M, b, iters)
  n = size(A, 1);
  x = zeros(n, 1);
  for iter = 1:iters
    r = b - A*x;
    x = x + M \ r;
  end
  s = norm(b - A*x);
end`

const qmrSparseSrc = `
function s = qmrsp(A, b, iters)
  n = size(A, 1);
  x = zeros(n, 1);
  r = b - A*x;
  vt = r;
  rho = norm(vt);
  wt = r;
  xi = norm(wt);
  gam = 1;
  eta = -1;
  ep = 1;
  theta = 0;
  v = zeros(n, 1);
  w = zeros(n, 1);
  p = zeros(n, 1);
  q = zeros(n, 1);
  d = zeros(n, 1);
  sv = zeros(n, 1);
  for iter = 1:iters
    if abs(rho) < 1e-14
      break;
    end
    if abs(xi) < 1e-14
      break;
    end
    v = vt/rho;
    w = wt/xi;
    delta = dot(w, v);
    if abs(delta) < 1e-14
      break;
    end
    if iter == 1
      p = v;
      q = w;
    else
      pcoef = xi*delta/ep;
      qcoef = rho*delta/ep;
      p = v - p*pcoef;
      q = w - q*qcoef;
    end
    pt = A*p;
    ep = dot(q, pt);
    if abs(ep) < 1e-14
      break;
    end
    beta = ep/delta;
    vt = pt - v*beta;
    rho1 = rho;
    rho = norm(vt);
    wt = A'*q - w*beta;
    xi = norm(wt);
    theta1 = theta;
    theta = rho/(gam*abs(beta));
    gam1 = gam;
    gam = 1/sqrt(1 + theta^2);
    eta = -eta*rho1*gam^2/(beta*gam1^2);
    if iter == 1
      d = p*eta;
      sv = pt*eta;
    else
      dc = (theta1*gam)^2;
      d = p*eta + d*dc;
      sv = pt*eta + sv*dc;
    end
    x = x + d;
    r = r - sv;
  end
  s = norm(b - A*x);
end`

// --- measurement -------------------------------------------------------------

// Run executes the sparse tier and returns the report.
func (c SparseConfig) Run() (*SparseReport, error) {
	c = c.defaults()
	rep := &SparseReport{Size: c.Size.String(), Reps: c.Reps, Threads: parallel.DefaultThreads()}

	for _, n := range sparseSizes(c.Size) {
		row, err := c.spmvCompare(n)
		if err != nil {
			return nil, err
		}
		rep.SpMV = append(rep.SpMV, row)
	}

	type job struct {
		solver, operator, src, fn string
		iters                     int
		args                      func(n int) ([]*mat.Value, int)
	}
	jobs := []job{
		{"cg", "penta", cgSparseSrc, "cgsp", 50, func(n int) ([]*mat.Value, int) {
			a := pentaOperator(n)
			return []*mat.Value{a, rhsVector(n)}, n
		}},
		{"cg", "poisson2d", cgSparseSrc, "cgsp", 50, func(n int) ([]*mat.Value, int) {
			a, m := poissonOperator(n)
			return []*mat.Value{a, rhsVector(m)}, m
		}},
		{"sor", "penta", sorSparseSrc, "sorsp", 20, func(n int) ([]*mat.Value, int) {
			a := pentaOperator(n)
			return []*mat.Value{a, lowerSOROperator(n, 1.2), rhsVector(n)}, n
		}},
		{"qmr", "penta", qmrSparseSrc, "qmrsp", 30, func(n int) ([]*mat.Value, int) {
			a := pentaOperator(n)
			return []*mat.Value{a, rhsVector(n)}, n
		}},
	}
	for _, j := range jobs {
		for _, n := range sparseSizes(c.Size) {
			row, err := c.runSolver(j.solver, j.operator, j.src, j.fn, j.iters, n, j.args)
			if err != nil {
				return nil, fmt.Errorf("%s/%s n=%d: %w", j.solver, j.operator, n, err)
			}
			rep.Solvers = append(rep.Solvers, row)
		}
	}
	return rep, nil
}

func (c SparseConfig) runSolver(solver, operator, src, fn string, iters, n int, mkArgs func(int) ([]*mat.Value, int)) (SparseSolverRow, error) {
	e := core.New(core.Options{Tier: core.TierJIT, Seed: 1})
	defer e.Close()
	if err := e.Define(src); err != nil {
		return SparseSolverRow{}, err
	}
	args, m := mkArgs(n)
	args = append(args, mat.Scalar(float64(iters)))
	row := SparseSolverRow{Solver: solver, Operator: operator, N: m, NNZ: args[0].NNZ(), Iters: iters}

	var res *mat.Value
	best := time.Duration(0)
	for r := 0; r < c.Reps; r++ {
		t0 := time.Now()
		outs, err := e.Call(fn, args, 1)
		el := time.Since(t0)
		if err != nil {
			return row, err
		}
		if res == nil {
			res = outs[0]
		} else if !sameValue(res, outs[0]) {
			return row, fmt.Errorf("repetition %d diverged", r)
		}
		if best == 0 || el < best {
			best = el
		}
	}
	row.TimeUS = best.Microseconds()
	row.Residual = res.MustScalar()
	return row, nil
}

// spmvCompare times A*x through the sparse kernel against a densified
// execution of the same product (streamed one row at a time, so the
// comparison runs at sizes where materializing the dense operand is
// impossible), and bit-compares the two results.
func (c SparseConfig) spmvCompare(n int) (SpMVRow, error) {
	a := pentaOperator(n)
	x := rhsVector(n)
	row := SpMVRow{Operator: "penta", N: n, NNZ: a.NNZ()}

	var sp *mat.Value
	var err error
	best := time.Duration(0)
	for r := 0; r < c.Reps; r++ {
		t0 := time.Now()
		sp, err = mat.Mul(a, x)
		el := time.Since(t0)
		if err != nil {
			return row, err
		}
		if best == 0 || el < best {
			best = el
		}
	}
	row.SparseUS = best.Microseconds()
	if n > spmvDenseCap {
		row.Match = true // densified path not run at this size
		return row, nil
	}

	// Densified path: the per-row work a dense representation forces —
	// a full-length accumulation over all n columns, explicit zeros
	// included — without allocating the n x n operand. One rep: the
	// result decides correctness, the time only needs the right order
	// of magnitude.
	rows, _, rowPtr, colIdx, val := mat.SparseCSR(a)
	dense := mat.New(rows, 1)
	dre := dense.Re()
	xre := x.Re()
	scratch := make([]float64, n)
	t0 := time.Now()
	for i := 0; i < rows; i++ {
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			scratch[colIdx[k]] = val[k]
		}
		acc := 0.0
		for j := 0; j < n; j++ {
			t := xre[j]
			acc += t * scratch[j]
		}
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			scratch[colIdx[k]] = 0
		}
		dre[i] = acc
	}
	row.DensifiedUS = time.Since(t0).Microseconds()
	row.Match = sameValue(sp, dense)
	if row.SparseUS > 0 {
		row.Speedup = float64(row.DensifiedUS) / float64(row.SparseUS)
	}
	return row, nil
}

// Report runs the tier and prints a results-table view.
func (c SparseConfig) Report() (*SparseReport, error) {
	c = c.defaults()
	rep, err := c.Run()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(c.Out, "Sparse solver tier: size %s, reps %d, kernel threads %d\n", rep.Size, rep.Reps, rep.Threads)
	fmt.Fprintln(c.Out, "==================================================================")
	fmt.Fprintf(c.Out, "%-10s %10s %10s %12s %12s %8s\n", "spmv", "n", "nnz", "sparse", "densified", "speedup")
	for _, r := range rep.SpMV {
		den, spd := "-", "-"
		if r.DensifiedUS > 0 {
			den = fmt.Sprintf("%dus", r.DensifiedUS)
			spd = fmt.Sprintf("%.0fx", r.Speedup)
		}
		match := ""
		if !r.Match {
			match = "  MISMATCH"
		}
		fmt.Fprintf(c.Out, "%-10s %10d %10d %11dus %12s %8s%s\n", r.Operator, r.N, r.NNZ, r.SparseUS, den, spd, match)
	}
	fmt.Fprintln(c.Out, "------------------------------------------------------------------")
	fmt.Fprintf(c.Out, "%-10s %-10s %10s %10s %7s %12s %14s\n", "solver", "operator", "n", "nnz", "iters", "time", "residual")
	for _, r := range rep.Solvers {
		fmt.Fprintf(c.Out, "%-10s %-10s %10d %10d %7d %11dus %14.6e\n",
			r.Solver, r.Operator, r.N, r.NNZ, r.Iters, r.TimeUS, r.Residual)
	}
	return rep, nil
}

// sameValue reports bit-for-bit equality of two results: a repeated
// solve, and the sparse against the densified product, must agree
// exactly.
func sameValue(x, y *mat.Value) bool {
	if x.Rows() != y.Rows() || x.Cols() != y.Cols() || x.Kind() != y.Kind() {
		return false
	}
	xr, yr := x.Re(), y.Re()
	for k := range xr {
		if xr[k] != yr[k] {
			return false
		}
	}
	return true
}
