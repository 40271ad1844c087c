package core_test

// The compiler's cost per instruction, and the design ablations beyond
// the paper's Figure 7: array oversizing (§2.6.1), dgemv fusion
// (§2.6.1), function inlining (§2.6.1, evaluated on orbrk and the
// recursive benchmarks in §3.4), and elementwise fusion (DESIGN.md §10),
// with the tests that keep the switches these benchmarks flip honest.
// The paper's own figures are timed by `majic-bench -exp=…`.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/disambig"
	"repro/internal/infer"
	"repro/internal/inline"
	"repro/internal/mat"
	"repro/internal/opt"
	"repro/internal/parallel"
	"repro/internal/parser"
	"repro/internal/regalloc"
	"repro/internal/types"
)

// BenchmarkCompile measures the compiler alone — inlining,
// disambiguation, inference, code selection, the optimiser when asked
// for, register allocation — on each Table 1 program at the signature
// of its arguments, and reports the cost per IR instruction produced:
// the figure that has to stay flat as programs grow.
func BenchmarkCompile(b *testing.B) {
	for _, bm := range bench.All() {
		file, err := parser.Parse(bm.Source(bench.Small))
		if err != nil {
			b.Fatal(err)
		}
		funcs := fileResolver{}
		for _, fn := range file.Funcs {
			funcs[fn.Name] = fn
		}
		sig := types.SignatureOf(bm.Args(bench.Small))
		for _, optimise := range []bool{false, true} {
			name := bm.Name + "/jit"
			if optimise {
				name = bm.Name + "/optimised"
			}
			b.Run(name, func(b *testing.B) {
				instrs := 0
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					work := inline.Expand(funcs[bm.Fn], funcs)
					g := cfg.Build(work.Body)
					tbl := disambig.Analyze(g, work.Ins, disambig.ResolverFunc(func(n string) bool { return funcs[n] != nil }))
					params := make(map[string]types.Type, len(work.Ins))
					for j, p := range work.Ins {
						params[p] = sig[j]
					}
					ccfg := codegen.DefaultConfig()
					if optimise {
						ccfg.UnrollLoops = 2 // the SPARC backend's
					}
					prog, err := codegen.Compile(work, infer.Forward(g, params, infer.Opts{}), tbl, ccfg)
					if err != nil {
						b.Skip("deferred to the interpreter: ", err)
					}
					if optimise {
						opt.Run(prog)
					}
					regalloc.Allocate(prog, regalloc.DefaultOptions())
					instrs = len(prog.Ins)
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				produced := float64(b.N) * float64(instrs)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/produced, "ns/instr")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/produced, "allocs/instr")
			})
		}
	}
}

// warmBench builds an engine with bm defined and called once at size sz,
// so the timed calls hit a compiled entry.
func warmBench(b *testing.B, bm *bench.Benchmark, opts core.Options, sz bench.Size) (*core.Engine, []*mat.Value) {
	b.Helper()
	opts.Seed = 1
	e := core.New(opts)
	if err := e.Define(bm.Source(sz)); err != nil {
		b.Fatal(err)
	}
	args := bm.Args(sz)
	if _, err := e.Call(bm.Fn, args, 1); err != nil {
		b.Fatal(err)
	}
	return e, args
}

func timeCalls(b *testing.B, e *core.Engine, fn string, args []*mat.Value) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Call(fn, args, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOversizing measures the paper's ~10% array
// oversizing policy on the growth-heavy pattern (adapt's dynamically
// growing interval stack, distilled): with oversizing off, every
// index-overflow store reallocates.
func BenchmarkAblationOversizing(b *testing.B) {
	const src = `
function s = growloop(n)
  v = zeros(1, 1);
  for i = 1:n
    v(i) = i;
  end
  s = v(n);
end`
	for _, enabled := range []bool{true, false} {
		name := "on"
		if !enabled {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			old := mat.OversizeEnabled
			mat.OversizeEnabled = enabled
			defer func() { mat.OversizeEnabled = old }()
			e := core.New(core.Options{Tier: core.TierJIT, Seed: 1})
			if err := e.Define(src); err != nil {
				b.Fatal(err)
			}
			arg := []*mat.Value{mat.Scalar(20000)}
			if _, err := e.Call("growloop", arg, 1); err != nil {
				b.Fatal(err)
			}
			timeCalls(b, e, "growloop", arg)
		})
	}
}

// BenchmarkAblationGEMV measures the dgemv fusion rule on the
// matvec-heavy solvers (cgopt, qmr).
func BenchmarkAblationGEMV(b *testing.B) {
	for _, name := range []string{"cgopt", "qmr"} {
		bm := bench.ByName(name)
		for _, abl := range []core.Ablation{core.AblateNone, core.AblateGEMV} {
			label := name + "/fused"
			if abl == core.AblateGEMV {
				label = name + "/unfused"
			}
			b.Run(label, func(b *testing.B) {
				e, args := warmBench(b, bm, core.Options{Tier: core.TierFalcon, Ablation: abl}, bench.Medium)
				timeCalls(b, e, bm.Fn, args)
			})
		}
	}
}

// BenchmarkAblationInlining measures the function inliner on the
// workloads the paper highlights: orbrk (helper-function-per-step) and
// the recursive fibonacci.
func BenchmarkAblationInlining(b *testing.B) {
	for _, name := range []string{"orbrk", "fibonacci"} {
		bm := bench.ByName(name)
		for _, abl := range []core.Ablation{core.AblateNone, core.AblateInlining} {
			label := name + "/inlined"
			if abl == core.AblateInlining {
				label = name + "/calls"
			}
			b.Run(label, func(b *testing.B) {
				e, args := warmBench(b, bm, core.Options{Tier: core.TierFalcon, Ablation: abl}, bench.Small)
				timeCalls(b, e, bm.Fn, args)
			})
		}
	}
}

// BenchmarkAblationFusion measures elementwise fusion on
// vector-chain-heavy solvers: every fused chain runs as one loop that
// builds its result in a buffer the frame already owns instead of one
// temporary per operator.
func BenchmarkAblationFusion(b *testing.B) {
	for _, name := range []string{"cgopt", "sor", "qmr"} {
		bm := bench.ByName(name)
		for _, fused := range []bool{true, false} {
			label := name + "/fused"
			if !fused {
				label = name + "/sync"
			}
			b.Run(label, func(b *testing.B) {
				e, args := warmBench(b, bm, core.Options{Tier: core.TierFalcon, FuseElemwise: fused}, bench.Medium)
				b.ReportAllocs()
				timeCalls(b, e, bm.Fn, args)
			})
		}
	}
}

// TestAblationSwitchesPreserveResults guards the ablations the
// benchmarks above rely on.
func TestAblationSwitchesPreserveResults(t *testing.T) {
	bm := bench.ByName("cgopt")
	ref := runChecksum(t, bm, core.Options{Tier: core.TierInterp})
	for _, opts := range []core.Options{
		{Tier: core.TierFalcon, Ablation: core.AblateGEMV},
		{Tier: core.TierJIT, Ablation: core.AblateInlining},
		{Tier: core.TierFalcon, FuseElemwise: true},
		{Tier: core.TierJIT, FuseElemwise: true, Ablation: core.AblateGEMV},
	} {
		if got := runChecksum(t, bm, opts); !closeEnough(ref, got) {
			t.Errorf("%+v: %g != %g", opts, got, ref)
		}
	}
	// oversizing off
	old := mat.OversizeEnabled
	mat.OversizeEnabled = false
	got := runChecksum(t, bench.ByName("adapt"), core.Options{Tier: core.TierJIT})
	mat.OversizeEnabled = old
	ref = runChecksum(t, bench.ByName("adapt"), core.Options{Tier: core.TierInterp})
	if !closeEnough(ref, got) {
		t.Errorf("oversizing off changed results: %g != %g", got, ref)
	}
}

func runChecksum(t *testing.T, bm *bench.Benchmark, opts core.Options) float64 {
	t.Helper()
	opts.Seed = 11
	e := core.New(opts)
	if err := e.Define(bm.Source(bench.Small)); err != nil {
		t.Fatal(err)
	}
	e.Precompile()
	outs, err := e.Call(bm.Fn, bm.Args(bench.Small), 1)
	if err != nil {
		t.Fatal(err)
	}
	return outs[0].MustScalar()
}

func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a))
}

// fusionChainSrc runs fuseChainReps iterations of three fused chains
// over n = 10^4 vectors: x = x + a.*b - c./2 (k=3 elementwise ops),
// x = 2*x + exp(-b) (scalar broadcast, unary minus, math builtin), and
// x = x ./ 2 + a.^2 .* b (a pow chain — abort-capable, so the kernel
// may not write in place over its own operand and instead alternates
// between x's buffer and the one x held a trip earlier).
const fusionChainSrc = `
function s = fchain()
  n = 10000;
  a = (1:n) ./ n;
  b = a + 0.5;
  c = a .* 2;
  x = zeros(1, n);
  for i = 1:50
    x = x + a .* b - c ./ 2;
    x = 2 * x + exp(-b);
    x = x ./ 2 + a .^ 2 .* b;
  end
  s = sum(x);
end`

const fuseChainReps = 50      // loop trips per call
const fuseChainStatements = 3 // fused statements per trip

func fusionEngine(tb testing.TB, fuse bool) *core.Engine {
	tb.Helper()
	e := core.New(core.Options{Tier: core.TierFalcon, FuseElemwise: fuse, Seed: 20020617})
	if err := e.Define(fusionChainSrc); err != nil {
		tb.Fatal(err)
	}
	e.Precompile()
	if _, err := e.Call("fchain", nil, 1); err != nil {
		tb.Fatal(err)
	}
	return e
}

// BenchmarkFusionChain compares the generic elementwise chain (one
// temporary per operator) against the fused kernel (one loop, reused
// destination). Run with -benchmem to see the allocation collapse.
func BenchmarkFusionChain(b *testing.B) {
	for _, c := range []struct {
		name string
		fuse bool
	}{{"sync", false}, {"fused", true}} {
		b.Run(c.name, func(b *testing.B) {
			e := fusionEngine(b, c.fuse)
			b.ReportAllocs()
			timeCalls(b, e, "fchain", nil)
		})
	}
}

// fusionParSrc is the parallel-fusion workload: the same chain shape
// over n = 2*10^5 vectors, far above the fused kernel's parallel grain
// (fuseGrainBlocks x fuseBlock = 16384 elements), so each fused
// statement fans its blocks out across the worker pool when threads>1.
const fusionParSrc = `
function s = fpchain()
  n = 200000;
  a = (1:n) ./ n;
  b = a + 0.5;
  c = a .* 2;
  x = zeros(1, n);
  for i = 1:10
    x = x + a .* b - c ./ 2;
    x = 2 * x + exp(-b);
  end
  s = sum(x);
end`

// BenchmarkParallelFusion sweeps the dense-kernel thread count over the
// large fused chain. Results are byte-identical across thread counts
// (the serial-vs-parallel suite pins that); this measures the wall-time
// effect of chunk-parallel fused execution.
func BenchmarkParallelFusion(b *testing.B) {
	for _, threads := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			parallel.SetDefaultThreads(threads)
			defer parallel.SetDefaultThreads(0)
			e := core.New(core.Options{Tier: core.TierFalcon, FuseElemwise: true, Seed: 20020617})
			if err := e.Define(fusionParSrc); err != nil {
				b.Fatal(err)
			}
			if _, err := e.Call("fpchain", nil, 1); err != nil {
				b.Fatal(err)
			}
			timeCalls(b, e, "fpchain", nil)
		})
	}
}

// TestFusionAllocBudget asserts the acceptance bound: in steady state
// the fused chain makes at most one allocation per fused statement
// (boxed scalars; the destination is a buffer the frame already owns).
// The generic path pays for its per-operator instructions in boxed
// scalars and first-trip temporaries, so it must exceed the same budget
// by a wide margin.
func TestFusionAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is noisy under -short")
	}
	e := fusionEngine(t, true)
	statements := float64(fuseChainReps * fuseChainStatements)
	before := mat.ReadPoolStats()
	fused := testing.AllocsPerRun(10, func() {
		if _, err := e.Call("fchain", nil, 1); err != nil {
			t.Fatal(err)
		}
	})
	if st := mat.ReadPoolStats(); st.Hits == before.Hits {
		t.Errorf("no result was built in a donated buffer during the fused run: %+v", st)
	}
	if perStmt := fused / statements; perStmt > 1 {
		t.Errorf("fused allocations per statement = %.2f (total %.0f), want <= 1", perStmt, fused)
	}

	g := fusionEngine(t, false)
	generic := testing.AllocsPerRun(10, func() {
		if _, err := g.Call("fchain", nil, 1); err != nil {
			t.Fatal(err)
		}
	})
	if generic < 2*fused+statements {
		t.Errorf("generic path allocates %.0f, fused %.0f: fusion is not eliminating temporaries", generic, fused)
	}
	t.Logf("allocations per call: generic %.0f, fused %.0f (%.2f per fused statement)",
		generic, fused, fused/statements)
}
