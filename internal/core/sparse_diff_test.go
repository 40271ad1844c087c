package core

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// Sparse-vs-dense differential oracle: the iterative-solver programs
// run with a sparse operator must produce bit-for-bit the dense-operand
// interpreter's results, at every tier and every thread count. The
// operators here are fully stored CSR (sparse() of an all-nonzero
// matrix), so SpMV reproduces Dgemv's accumulation order exactly and
// "close" is not good enough — the comparison is on float64 bits.

const cgDiffSrc = `
function s = f(A, b)
  n = size(A, 1);
  x = zeros(n, 1);
  r = b - A*x;
  d = diag(A);
  z = r ./ d;
  p = z;
  rz = dot(r, z);
  for iter = 1:25
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
  s = sum(x) + norm(b - A*x);
end`

const qmrDiffSrc = `
function s = f(A, b)
  n = size(A, 1);
  x = zeros(n, 1);
  r = b - A*x;
  p = r;
  q = r;
  s = 0;
  for iter = 1:20
    pt = A*p;
    qt = A'*q;
    alpha = dot(r, r) / dot(q, pt);
    x = x + alpha*p;
    r = r - alpha*pt;
    p = r + 0.5*p;
    q = r + 0.25*qt/norm(qt);
    s = s + norm(r);
  end
  s = s + sum(x);
end`

const sorDiffSrc = `
function s = f(A, b, w)
  n = size(A, 1);
  D = diag(diag(A));
  L = tril(A, -1);
  U = triu(A, 1);
  M = D/w + L;
  N = D*(1/w - 1) - U;
  x = zeros(n, 1);
  for iter = 1:12
    x = M \ (N*x + b);
  end
  s = sum(x) + norm(b - A*x);
end`

const dirichDiffSrc = `
function s = f(U)
  n = size(U, 1);
  for i = 1:n
    U(i, 1) = 1;
    U(i, n) = 1;
  end
  for sweep = 1:8
    for i = 2:n-1
      for j = 2:n-1
        U(i, j) = 0.25*(U(i-1, j) + U(i+1, j) + U(i, j-1) + U(i, j+1));
      end
    end
  end
  s = sum(U(:));
end`

// spdDense builds the bench suite's SPD operator: fully nonzero, so its
// sparse form stores every element.
func spdDense(n int) *mat.Value {
	a := mat.New(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			v := 1 / (1 + math.Abs(float64(i-j)))
			if i == j {
				v += float64(n) / 4
			}
			a.SetAt(i, j, v)
		}
	}
	return a
}

func rhsDense(n int) *mat.Value {
	b := mat.New(n, 1)
	for i := 0; i < n; i++ {
		b.SetAt(i, 0, math.Sin(float64(i+1))+1.5)
	}
	return b
}

func bitsSame(a, b *mat.Value) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() || a.IsSparse() || b.IsSparse() {
		return false
	}
	ar, br := a.Re(), b.Re()
	for i := range ar {
		if math.Float64bits(ar[i]) != math.Float64bits(br[i]) {
			return false
		}
	}
	return true
}

func runSparseDiff(t *testing.T, opts Options, src string, args []*mat.Value, calls int) *mat.Value {
	t.Helper()
	e := New(opts)
	defer e.Close()
	if err := e.Define(src); err != nil {
		t.Fatalf("define: %v", err)
	}
	var res *mat.Value
	for c := 0; c < calls; c++ {
		outs, err := e.Call("f", args, 1)
		if err != nil {
			t.Fatalf("call %d: %v", c, err)
		}
		if res == nil {
			res = outs[0]
		} else if !bitsSame(res, outs[0]) {
			t.Fatalf("call %d diverged from call 0", c)
		}
	}
	return res
}

func TestSparseDenseOracleSolvers(t *testing.T) {
	const n = 40
	ad := spdDense(n)
	as, err := ad.Sparse()
	if err != nil {
		t.Fatal(err)
	}
	b := rhsDense(n)

	cases := []struct {
		name      string
		src       string
		dense, sp []*mat.Value
	}{
		{"cg", cgDiffSrc, []*mat.Value{ad, b}, []*mat.Value{as, b}},
		{"qmr", qmrDiffSrc, []*mat.Value{ad, b}, []*mat.Value{as, b}},
		{"sor", sorDiffSrc, []*mat.Value{ad, b, mat.Scalar(1.2)}, []*mat.Value{as, b, mat.Scalar(1.2)}},
		{"dirich", dirichDiffSrc, []*mat.Value{mat.New(12, 12)}, []*mat.Value{mat.SparseZeros(12, 12)}},
	}
	tiers := []Options{
		{Tier: TierInterp},
		{Tier: TierJIT},
		{Tier: TierJIT, Tiered: true},
	}
	oldThreads := parallel.DefaultThreads()
	defer parallel.SetDefaultThreads(oldThreads)

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			parallel.SetDefaultThreads(1)
			want := runSparseDiff(t, Options{Tier: TierInterp, Seed: 1}, c.src, c.dense, 1)
			for _, th := range []int{1, 4} {
				parallel.SetDefaultThreads(th)
				for _, opt := range tiers {
					opt.Seed = 1
					opt.Threads = th
					// Tiered engines interpret the first calls and promote
					// in the background; extra calls reach compiled code.
					calls := 1
					switch {
					case opt.Tiered:
						calls = DefaultTierThreshold + 2
					case opt.Tier == TierJIT:
						calls = 4
					}
					gotDense := runSparseDiff(t, opt, c.src, c.dense, calls)
					if !bitsSame(want, gotDense) {
						t.Errorf("threads=%d tier=%v: dense diverged from interpreter", th, opt.Tier)
					}
					gotSparse := runSparseDiff(t, opt, c.src, c.sp, calls)
					if !bitsSame(want, gotSparse) {
						t.Errorf("threads=%d tier=%v tiered=%v: sparse diverged from dense oracle", th, opt.Tier, opt.Tiered)
					}
				}
			}
		})
	}
}

// TestSparseNaNInfOracle pins NaN/Inf propagation through explicit
// zeros: a *stored* zero (spdiags keeps band zeros) contributes 0*NaN =
// NaN exactly as a dense element would, while an *implicit* (unstored)
// zero contributes nothing — MATLAB's sparse semantics and the one
// documented divergence from a densified operand, which stores zeros
// everywhere and therefore poisons every row. Both behaviors are
// asserted, and the sparse arm must be bit-identical across tiers.
func TestSparseNaNInfOracle(t *testing.T) {
	const n = 6
	// Bidiagonal with a stored zero band: sub-diagonal all zeros.
	sub := make([]float64, n)
	d := make([]float64, n)
	for i := range d {
		d[i] = 2
	}
	as, err := mat.SparseFromDiags(n, n, [][]float64{sub, d}, []int{-1, 0})
	if err != nil {
		t.Fatal(err)
	}
	ad, err := as.Dense()
	if err != nil {
		t.Fatal(err)
	}
	src := `
function y = f(A, x)
  y = A*x + (x - A*x);
end`
	for _, special := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := mat.New(n, 1)
		for i := 0; i < n; i++ {
			x.SetAt(i, 0, 1)
		}
		x.SetAt(2, 0, special) // column 2 feeds row 3's stored zero
		var ref *mat.Value
		for _, opt := range []Options{{Tier: TierInterp, Seed: 1}, {Tier: TierJIT, Seed: 1}} {
			got := runSparseDiff(t, opt, src, []*mat.Value{as, x}, 2)
			if ref == nil {
				ref = got
			} else if !bitsSame(ref, got) {
				t.Errorf("special=%v tier=%v: sparse result diverged across tiers", special, opt.Tier)
			}
			// Row 4 (stored zero at the special column) and row 3 (the
			// diagonal multiplies the special directly) are poisoned;
			// rows with no stored entry in column 3 stay finite.
			if !math.IsNaN(got.At(3, 0)) {
				t.Errorf("special=%v tier=%v: stored zero must poison row 4, got %v", special, opt.Tier, got.At(3, 0))
			}
			for _, clean := range []int{0, 1, 4, 5} {
				if v := got.At(clean, 0); math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("special=%v tier=%v: implicit zero leaked into row %d: %v", special, opt.Tier, clean+1, v)
				}
			}
			// The densified operand stores zeros in every row of the
			// special's column, so every row is poisoned there.
			dres := runSparseDiff(t, opt, src, []*mat.Value{ad, x}, 2)
			for i := 0; i < n; i++ {
				if !math.IsNaN(dres.At(i, 0)) {
					t.Errorf("special=%v tier=%v: densified operand row %d = %v, want NaN", special, opt.Tier, i+1, dres.At(i, 0))
				}
			}
		}
	}
}
