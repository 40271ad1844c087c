// Benchmark harness: one testing.B benchmark family per table/figure of
// the paper's evaluation. `go test -bench=.` regenerates every series;
// `cmd/majic-bench` prints them in the paper's layout with speedups.
//
// Problem size defaults to the "small" preset so -bench=. completes
// quickly; set MAJIC_BENCH_SIZE=medium or =paper for full-scale runs.
package main

import (
	"os"
	"runtime"
	"testing"

	"repro/internal/ast"
	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/disambig"
	"repro/internal/harness"
	"repro/internal/infer"
	"repro/internal/inline"
	"repro/internal/mat"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/regalloc"
	"repro/internal/types"
)

func benchSize() bench.Size {
	if s, err := bench.ParseSize(os.Getenv("MAJIC_BENCH_SIZE")); err == nil {
		return s
	}
	return bench.Small
}

// warmEngine builds an engine with the benchmark compiled (steady
// state: compile time excluded, as for the mcc/FALCON/spec columns).
func warmEngine(b *testing.B, bm *bench.Benchmark, opts core.Options, sz bench.Size) (*core.Engine, []*mat.Value) {
	b.Helper()
	opts.Seed = 20020617
	e := core.New(opts)
	if err := e.Define(bm.Source(sz)); err != nil {
		b.Fatal(err)
	}
	e.Precompile()
	args := bm.Args(sz)
	if _, err := e.Call(bm.Fn, args, 1); err != nil {
		b.Fatal(err)
	}
	return e, args
}

// BenchmarkTable1 measures the interpreter baseline ti of Table 1's
// "runtime" column.
func BenchmarkTable1(b *testing.B) {
	sz := benchSize()
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			e, args := warmEngine(b, bm, core.Options{Tier: core.TierInterp}, sz)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Call(bm.Fn, args, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchmarkTier runs every benchmark under one tier. JIT measures a
// cold repository per iteration (compile time included, per §3.2);
// other tiers measure steady state.
func benchmarkTier(b *testing.B, tier core.Tier, platform core.Platform) {
	sz := benchSize()
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			opts := core.Options{Tier: tier, Platform: platform}
			if tier == core.TierJIT {
				src := bm.Source(sz)
				args := bm.Args(sz)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					opts.Seed = 20020617
					e := core.New(opts)
					if err := e.Define(src); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := e.Call(bm.Fn, args, 1); err != nil {
						b.Fatal(err)
					}
				}
				return
			}
			e, args := warmEngine(b, bm, opts, sz)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Call(bm.Fn, args, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4 regenerates Figure 4's four bar series (SPARC profile).
func BenchmarkFig4MCC(b *testing.B)    { benchmarkTier(b, core.TierMCC, core.PlatformSPARC) }
func BenchmarkFig4Falcon(b *testing.B) { benchmarkTier(b, core.TierFalcon, core.PlatformSPARC) }
func BenchmarkFig4JIT(b *testing.B)    { benchmarkTier(b, core.TierJIT, core.PlatformSPARC) }
func BenchmarkFig4Spec(b *testing.B)   { benchmarkTier(b, core.TierSpec, core.PlatformSPARC) }

// BenchmarkFig5 regenerates Figure 5 (MIPS profile).
func BenchmarkFig5MCC(b *testing.B)    { benchmarkTier(b, core.TierMCC, core.PlatformMIPS) }
func BenchmarkFig5Falcon(b *testing.B) { benchmarkTier(b, core.TierFalcon, core.PlatformMIPS) }
func BenchmarkFig5JIT(b *testing.B)    { benchmarkTier(b, core.TierJIT, core.PlatformMIPS) }
func BenchmarkFig5Spec(b *testing.B)   { benchmarkTier(b, core.TierSpec, core.PlatformMIPS) }

// BenchmarkFig6 measures the JIT phase decomposition: each iteration
// compiles and runs against an empty repository; the phase split is
// reported as custom metrics (disamb/typeinf/codegen/exec percent).
func BenchmarkFig6(b *testing.B) {
	sz := benchSize()
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			src := bm.Source(sz)
			args := bm.Args(sz)
			var disamb, typeinf, codegen, exec int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := core.New(core.Options{Tier: core.TierJIT, Seed: 20020617})
				if err := e.Define(src); err != nil {
					b.Fatal(err)
				}
				e.ResetTiming()
				b.StartTimer()
				if _, err := e.Call(bm.Fn, args, 1); err != nil {
					b.Fatal(err)
				}
				t := e.Timing()
				disamb += t.Disambig
				typeinf += t.TypeInf
				codegen += t.Codegen
				exec += t.Exec
			}
			total := disamb + typeinf + codegen + exec
			if total > 0 {
				b.ReportMetric(100*float64(disamb)/float64(total), "disamb%")
				b.ReportMetric(100*float64(typeinf)/float64(total), "typeinf%")
				b.ReportMetric(100*float64(codegen)/float64(total), "codegen%")
				b.ReportMetric(100*float64(exec)/float64(total), "exec%")
			}
		})
	}
}

// BenchmarkFig7 regenerates the ablation series: steady-state runtimes
// with one optimization disabled at a time.
func benchmarkAblation(b *testing.B, opts core.Options) {
	sz := benchSize()
	opts.Tier = core.TierFalcon // steady state, exact signatures
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			e, args := warmEngine(b, bm, opts, sz)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Call(bm.Fn, args, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig7Full(b *testing.B)     { benchmarkAblation(b, core.Options{}) }
func BenchmarkFig7NoRanges(b *testing.B) { benchmarkAblation(b, core.Options{DisableRanges: true}) }
func BenchmarkFig7NoMinShapes(b *testing.B) {
	benchmarkAblation(b, core.Options{DisableMinShapes: true})
}
func BenchmarkFig7NoRegalloc(b *testing.B) { benchmarkAblation(b, core.Options{SpillAll: true}) }

// BenchmarkTable2 regenerates Table 2's two columns: the same
// (optimizing) code generator fed speculative versus exact (JIT-style)
// type annotations, compile time excluded.
func BenchmarkTable2Spec(b *testing.B) {
	sz := benchSize()
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			e, args := warmEngine(b, bm, core.Options{Tier: core.TierSpec}, sz)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Call(bm.Fn, args, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable2JIT(b *testing.B) {
	sz := benchSize()
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			e, args := warmEngine(b, bm, core.Options{Tier: core.TierFalcon}, sz)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Call(bm.Fn, args, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fileFuncs resolves calls among the functions of one source file.
type fileFuncs map[string]*ast.Function

func (f fileFuncs) LookupFunction(name string) *ast.Function { return f[name] }

// BenchmarkCompile measures the compiler alone — inlining,
// disambiguation, inference, code selection, the optimiser when asked
// for, register allocation — on each Table 1 program at the signature
// of its arguments, and reports the cost per IR instruction produced:
// the figure that has to stay flat as programs grow.
func BenchmarkCompile(b *testing.B) {
	sz := benchSize()
	for _, bm := range bench.All() {
		file, err := parser.Parse(bm.Source(sz))
		if err != nil {
			b.Fatal(err)
		}
		funcs := fileFuncs{}
		for _, fn := range file.Funcs {
			funcs[fn.Name] = fn
		}
		sig := types.SignatureOf(bm.Args(sz))
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
						ccfg.UnrollLoops = opt.DefaultConfig().UnrollFactor
					}
					prog, err := codegen.Compile(work, infer.Forward(g, params, infer.Opts{}), tbl, ccfg)
					if err != nil {
						b.Skip("deferred to the interpreter: ", err)
					}
					if optimise {
						opt.Run(prog, opt.DefaultConfig())
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

// TestHarnessSmoke exercises every experiment end to end at the small
// preset, writing the reports to the test log on -v.
func TestHarnessSmoke(t *testing.T) {
	cfg := harness.Config{Size: bench.Small, Reps: 1, Out: testWriter{t}}
	for name, f := range map[string]func() error{
		"table1": cfg.Table1,
		"fig6":   cfg.Fig6,
		"fig7": func() error {
			sub := cfg
			sub.Benchmarks = []string{"dirich", "orbec", "fibonacci"}
			return sub.Fig7()
		},
		"table2": func() error {
			sub := cfg
			sub.Benchmarks = []string{"dirich", "qmr", "fibonacci"}
			return sub.Table2()
		},
		"fig4": func() error {
			sub := cfg
			sub.Benchmarks = []string{"mandel"}
			return sub.Fig4()
		},
		"fig5": func() error {
			sub := cfg
			sub.Benchmarks = []string{"mandel"}
			return sub.Fig5()
		},
	} {
		if err := f(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}
