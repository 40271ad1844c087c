package core

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/parser"
)

// Programs for result-buffer reuse (DESIGN §10). Each loops at least
// twice so that from the second trip every array-producing instruction
// finds a displaced destination, and nests operators so that operand
// temporaries are consumed. Several outputs per function let the test
// compare kind tags value by value.
var reusePrograms = []diffProg{
	{name: "reuse_int_bool_kinds", src: `
function [t, u, w, h, acc] = f()
  v = 1:12;
  m = v > 6;
  acc = zeros(1, 12);
  for k = 1:4
    t = v + v;
    u = m + m;
    w = (v .* 2) ./ 4;
    h = -(v + 3);
    acc = acc + t + u + w + h;
  end
end`},
	{name: "reuse_scalar_broadcast", src: `
function [x, y, z] = f()
  x = zeros(15, 1) + 1;
  for k = 1:5
    x = 2 + x;
    x = x * 3;
    x = x / 2;
    y = 0.5 - x;
    z = (x + 1) .* 2 - 7;
  end
end`},
	{name: "reuse_growing_shrinking", src: `
function [x, z, q] = f()
  x = (1:10) ./ 4;
  for k = 1:6
    x = [x 2.5 x];
    y = x + x;
    z = y .* 2 - x;
  end
  for k = 6:-1:1
    p = x(1:10*k) + 0.5;
    q = p .* p - (p + 1);
  end
end`},
	{name: "reuse_complex_promotion", src: `
function [a, b, c] = f()
  v = -6:6;
  for k = 1:3
    a = (v + 1.5) .^ 0.5;
    b = sqrt(v - 2) + (v .* 2);
    c = (v .* 1) .^ 2 + a;
  end
end`},
	{name: "reuse_sparse_operand", src: `
function [x, y, z, w] = f()
  A = speye(12) * 2 + sparse(1, 2, 5, 12, 12);
  x = ones(12, 1);
  for k = 1:3
    y = A * x;
    x = (y + x) ./ 2;
    z = A + A;
    w = (A .* 2) * x - x;
  end
  z = full(z);
end`},
	{name: "reuse_dst_is_operand", src: `
function [x, m] = f()
  A = [2 1 0 0; 1 3 1 0; 0 1 4 1; 0 0 1 5] ./ 6;
  x = [1; 2; 3; 4];
  m = [1; 2; 3; 4];
  for k = 1:4
    x = A * x;
    m = m * m';
    m = m / 100;
  end
end`},
	{name: "reuse_shared_copy", src: `
function [a, b, c] = f()
  a = (1:15) + 0.5;
  b = a;
  for k = 1:3
    a = a + 1;
    c = b;
    c = c .* 2 + a;
  end
end`},
	// full() of a dense value once returned its argument: the write to y
	// (and the in-place x+1 over the "temporary") reached x.
	{name: "reuse_builtin_result_is_fresh", src: `
function [x, y, z] = f()
  x = (1:12) ./ 4;
  y = full(x);
  y(1) = 99;
  z = full(x) + 1;
end`},
	{name: "reuse_return_then_reenter", src: `
function [p, q, acc] = f()
  acc = zeros(1, 14);
  for k = 1:3
    p = g(acc + 1.5);
    q = g(p);
    acc = p + q;
  end
end
function y = g(x)
  t = x + 1;
  y = t .* 2 - x;
end`},
}

// reuseConfigs are the compiled configurations checked against the
// interpreter: every tier, fusion on and off, with and without the
// rules that take vector work away from the generic instructions.
var reuseConfigs = []Options{
	{Tier: TierMCC},
	{Tier: TierFalcon},
	{Tier: TierJIT},
	{Tier: TierSpec},
	{Tier: TierJIT, FuseElemwise: true},
	{Tier: TierSpec, FuseElemwise: true},
	{Tier: TierJIT, Ablation: AblateInlining},
	{Tier: TierJIT, Ablation: AblateGEMV},
	{Tier: TierJIT, Ablation: AblateMinShapes},
}

func callAll(t *testing.T, opts Options, src string, nout int) []*mat.Value {
	t.Helper()
	opts.Seed = 12345
	e := New(opts)
	defer e.Close()
	if err := e.Define(src); err != nil {
		t.Fatalf("%+v define: %v", opts, err)
	}
	e.Precompile()
	var outs []*mat.Value
	// Twice: the second call re-enters the frames the first one used.
	for call := 0; call < 2; call++ {
		var err error
		if outs, err = e.Call("f", nil, nout); err != nil {
			t.Fatalf("%+v call: %v", opts, err)
		}
	}
	return outs
}

// TestResultReuseBitIdentical: building results in donated buffers must
// not change a bit or a kind tag of any value, against the interpreter
// (which never reuses).
func TestResultReuseBitIdentical(t *testing.T) {
	for _, p := range reusePrograms {
		p := p
		t.Run(p.name, func(t *testing.T) {
			file, err := parser.Parse(p.src)
			if err != nil {
				t.Fatal(err)
			}
			fn := file.Funcs[0]
			nout := len(fn.Outs)
			want := callAll(t, Options{Tier: TierInterp}, p.src, nout)
			for _, opts := range reuseConfigs {
				got := callAll(t, opts, p.src, nout)
				for i := range want {
					if !valuesExact(want[i], got[i]) {
						t.Errorf("%s fuse=%v ablation=%v: output %s =\n%s (%s), want\n%s (%s)",
							opts.Tier, opts.FuseElemwise, opts.Ablation,
							fn.Outs[i], got[i], got[i].Kind(), want[i], want[i].Kind())
					}
				}
			}
		})
	}
}

const cgShapedSrc = `
function s = f(A, b, iters)
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
  s = sum(x) + sqrt(dot(r, r));
end`

// cgSystem builds a diagonally dominant tridiagonal system, dense or
// sparse, whose entries depend on seed.
func cgSystem(t testing.TB, n int, seed float64, sparse bool) (A, b *mat.Value) {
	b = mat.New(n, 1)
	for i := 0; i < n; i++ {
		b.SetAt(i, 0, 1+float64(i%7)+seed)
	}
	if sparse {
		off, main := make([]float64, n), make([]float64, n)
		for i := range main {
			off[i], main[i] = -1, 4+seed/10
		}
		A, err := mat.SparseFromDiags(n, n, [][]float64{off, main, off}, []int{-1, 0, 1})
		if err != nil {
			t.Fatal(err)
		}
		return A, b
	}
	A = mat.New(n, n)
	for i := 0; i < n; i++ {
		A.SetAt(i, i, 4+seed/10)
		if i > 0 {
			A.SetAt(i, i-1, -1)
			A.SetAt(i-1, i, -1)
		}
	}
	return A, b
}

// TestResultReuseConcurrentSessions: sessions sharing one library run
// the same compiled loop on different systems at once; every result
// must be the interpreter's for that session's system. Donors travel as
// arguments, so no session can be served another's buffer (run under
// -race). The threaded row compiles in the background and fans the
// dense kernels out to four worker threads from inside every session's
// calls: nested parallelism, at a size past the Dgemv grain.
func TestResultReuseConcurrentSessions(t *testing.T) {
	defer parallel.SetDefaultThreads(0)
	for _, row := range []struct {
		name     string
		lib      LibraryOptions
		opts     Options
		n, calls int
	}{
		{"sync", LibraryOptions{}, Options{}, 96, 20},
		{"async-threads", LibraryOptions{AsyncCompile: true, CompileWorkers: 2}, Options{AsyncCompile: true, Threads: 4}, 256, 6},
	} {
		t.Run(row.name, func(t *testing.T) {
			const sessions, iters = 6, 12
			ref := New(Options{Tier: TierInterp})
			if err := ref.Define(cgShapedSrc); err != nil {
				t.Fatal(err)
			}
			lib := NewLibrary(row.lib)
			defer lib.Close()
			var wg sync.WaitGroup
			for s := 0; s < sessions; s++ {
				A, b := cgSystem(t, row.n, float64(s), s%2 == 1)
				outs, err := ref.Call("f", []*mat.Value{A, b, mat.Scalar(iters)}, 1)
				if err != nil {
					t.Fatal(err)
				}
				want := outs[0]
				opts := row.opts
				opts.Tier, opts.Library, opts.FuseElemwise = TierJIT, lib, s%3 == 2
				e := New(opts)
				if s == 0 {
					if err := e.Define(cgShapedSrc); err != nil {
						t.Fatal(err)
					}
				}
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for call := 0; call < row.calls; call++ {
						outs, err := e.Call("f", []*mat.Value{A, b, mat.Scalar(iters)}, 1)
						if err != nil {
							t.Errorf("session %d: %v", s, err)
							return
						}
						if !valuesExact(want, outs[0]) {
							t.Errorf("session %d call %d: got %s, want %s", s, call, outs[0], want)
							return
						}
					}
				}(s)
			}
			wg.Wait()
		})
	}
}

// bytesPerCall is the heap allocated by one warm call, averaged.
func bytesPerCall(t *testing.T, e *Engine, args []*mat.Value) float64 {
	t.Helper()
	call := func() {
		if _, err := e.Call("f", args, 1); err != nil {
			t.Fatal(err)
		}
	}
	call() // compile
	call() // settle the frame chain
	const runs = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		call()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / runs
}

// mallocsPerCall is the number of heap objects one warm call allocates,
// averaged.
func mallocsPerCall(t *testing.T, e *Engine, args []*mat.Value) float64 {
	t.Helper()
	call := func() {
		if _, err := e.Call("f", args, 1); err != nil {
			t.Fatal(err)
		}
	}
	call() // compile
	call() // settle the frame chain
	const runs = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		call()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / runs
}

// TestArrayResultAllocBudget pins what reuse buys. A solver loop's
// array allocations stop after its first trips: going from 20 to 200
// iterations costs less than a quarter of a vector per added trip
// (dense and sparse operator alike). And one six-operator statement
// allocates at most two result-sized buffers under plain jit, the rest
// being built in consumed temporaries. Statements that mix a register
// scalar into an array allocate no object at all per trip, and neither
// does copying one array variable to another.
func TestArrayResultAllocBudget(t *testing.T) {
	for _, c := range []struct {
		n      int
		sparse bool
	}{{1024, false}, {1 << 15, true}} {
		e := New(Options{Tier: TierJIT})
		if err := e.Define(cgShapedSrc); err != nil {
			t.Fatal(err)
		}
		A, b := cgSystem(t, c.n, 1, c.sparse)
		short := bytesPerCall(t, e, []*mat.Value{A, b, mat.Scalar(20)})
		long := bytesPerCall(t, e, []*mat.Value{A, b, mat.Scalar(200)})
		e.Close()
		vector := float64(8 * c.n)
		t.Logf("n=%d sparse=%v: %.0f bytes/call at 20 iterations, %.0f at 200 (one vector = %.0f)", c.n, c.sparse, short, long, vector)
		// What still grows with the trip count is boxed scalars (dot's
		// results, alpha and beta on their way into a generic operator):
		// under a kilobyte per trip. One vector per trip would be 180.
		if perTrip := (long - short) / 180; perTrip >= vector/4 {
			t.Errorf("n=%d sparse=%v: each further iteration allocates %.0f bytes: the loop is not reusing its buffers", c.n, c.sparse, perTrip)
		}
	}

	// A scalar in a register meets an array without a box: the axpy
	// statements of a solver loop allocate nothing per trip — no boxed
	// alpha, no alpha*p temporary, no result (it lands in x or q).
	ax := New(Options{Tier: TierJIT})
	defer ax.Close()
	if err := ax.Define(`
function x = f(x, p, n)
  alpha = 0.5;
  for k = 1:n
    alpha = alpha * 1.0001;
    q = alpha*p;
    x = x + alpha*p;
    x = x - q/2;
    x = 2 + x;
  end
end`); err != nil {
		t.Fatal(err)
	}
	xv, pv := mat.New(2048, 1), mat.New(2048, 1)
	for i := 0; i < 2048; i++ {
		xv.SetAt(i, 0, float64(i%7))
		pv.SetAt(i, 0, float64(i%5)+0.25)
	}
	shortN := mallocsPerCall(t, ax, []*mat.Value{xv, pv, mat.Scalar(20)})
	longN := mallocsPerCall(t, ax, []*mat.Value{xv, pv, mat.Scalar(200)})
	t.Logf("axpy loop: %.1f mallocs/call at 20 trips, %.1f at 200", shortN, longN)
	if perTrip := (longN - shortN) / 180; perTrip >= 0.05 {
		t.Errorf("axpy loop allocates %.2f objects per trip, want none (a boxed scalar is one)", perTrip)
	}

	// B = A copies into the buffer B's last value left behind (the form
	// the inliner gives a callee's array result, k1 = deriv_inl: orbrk
	// paid four clones per step): a copy per trip, no object.
	cp := New(Options{Tier: TierJIT})
	defer cp.Close()
	if err := cp.Define(`
function s = f(x, n)
  s = 0;
  for k = 1:n
    y = x;
    y(1) = k;
    z = y;
    s = s + z(1) + z(2);
  end
end`); err != nil {
		t.Fatal(err)
	}
	shortN = mallocsPerCall(t, cp, []*mat.Value{pv, mat.Scalar(20)})
	longN = mallocsPerCall(t, cp, []*mat.Value{pv, mat.Scalar(200)})
	t.Logf("copy loop: %.1f mallocs/call at 20 trips, %.1f at 200", shortN, longN)
	if perTrip := (longN - shortN) / 180; perTrip >= 0.05 {
		t.Errorf("copy loop allocates %.2f objects per trip, want none (a clone is two)", perTrip)
	}

	e := New(Options{Tier: TierJIT})
	defer e.Close()
	err := e.Define("function y = f(a, b, c)\n  y = (a + b).*c - a./(b + 2) + c;\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	const m = 1 << 16
	args := make([]*mat.Value, 3)
	for k := range args {
		args[k] = mat.New(m, 1)
		for i := 0; i < m; i++ {
			args[k].SetAt(i, 0, float64(i%13+k))
		}
	}
	got := bytesPerCall(t, e, args)
	t.Logf("elementwise chain: %.0f bytes/call (one result = %d)", got, 8*m)
	if got >= 2.5*8*m {
		t.Errorf("six-operator statement allocates %.0f bytes per call, want at most two %d-byte results", got, 8*m)
	}
}
