// Fused-elementwise benchmarks: a distilled vector-chain kernel run
// with and without -fuse, with allocation reporting. The fused build
// must execute each chained statement as one OpVFused loop that builds
// its result in a buffer the frame already owns, so the steady-state
// allocation count per statement is below one.
package main

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/parallel"
)

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
	for _, cfg := range []struct {
		name string
		fuse bool
	}{{"sync", false}, {"fused", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			e := fusionEngine(b, cfg.fuse)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Call("fchain", nil, 1); err != nil {
					b.Fatal(err)
				}
			}
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
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Call("fpchain", nil, 1); err != nil {
					b.Fatal(err)
				}
			}
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
	fused := testing.AllocsPerRun(10, func() {
		if _, err := e.Call("fchain", nil, 1); err != nil {
			t.Fatal(err)
		}
	})
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

	st := mat.ReadPoolStats()
	if st.Hits == 0 {
		t.Errorf("no result was built in a donated buffer during the fused run: %+v", st)
	}
}
