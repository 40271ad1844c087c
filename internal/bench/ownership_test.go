package bench_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/vm/vmtest"
)

// TestOwnershipInvariantOnBenchmarks runs the Table 1 set and the three
// kernel programs of benchmark/programs under the VM's ownership hook
// (see internal/core's TestOwnershipInvariant): jit, spec, and the
// tiered pipeline with fusion: three calls each, and for tiered engines
// one past the tier-up threshold on the warmBackEdges source, so that
// they get from profiling through OSR to promoted code.
func TestOwnershipInvariantOnBenchmarks(t *testing.T) {
	vmtest.CheckOwnership(t)
	type program struct {
		name, fn, src string
		args          []*mat.Value
	}
	var progs []program
	for _, b := range bench.All() {
		progs = append(progs, program{b.Name, b.Fn, b.Source(bench.Small), b.Args(bench.Small)})
	}
	vector := func(n int, f func(i int) float64) *mat.Value {
		v := mat.New(n, 1)
		for i := 0; i < n; i++ {
			v.SetAt(i, 0, f(i))
		}
		return v
	}
	const n = 600
	diag := func(x float64) []float64 { return vector(n, func(int) float64 { return x }).Re() }
	A, err := mat.SparseFromDiags(n, n, [][]float64{diag(-1), diag(4), diag(-1)}, []int{-1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	dense := func(seed int) *mat.Value {
		m := mat.New(40, 40)
		for i, re := 0, m.Re(); i < len(re); i++ {
			re[i] = float64((i*7+seed)%11) - 5
		}
		return m
	}
	for name, args := range map[string][]*mat.Value{
		"matmul": {dense(1), dense(2)},
		"elemchain": {
			vector(n, func(i int) float64 { return float64(i%13) + 0.5 }),
			vector(n, func(i int) float64 { return float64(i%7) + 1 }),
			vector(n, func(i int) float64 { return float64(i%5) - 2 }),
		},
		"spcg": {A, vector(n, func(i int) float64 { return 1 + float64(i%3) }), mat.Scalar(8)},
	} {
		src, err := os.ReadFile(filepath.Join("..", "..", "benchmark", "programs", name+".m"))
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{name, name, string(src), args})
	}

	for _, p := range progs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			for _, opts := range []core.Options{
				{Tier: core.TierJIT},
				{Tier: core.TierSpec},
				{Tier: core.TierJIT, Tiered: true, FuseElemwise: true},
			} {
				opts.Seed = 424242
				e := core.New(opts)
				calls, src := 3, p.src
				if opts.Tiered {
					calls, src = core.DefaultTierThreshold+1, warmBackEdges(p.src)
				}
				if err := e.Define(src); err != nil {
					t.Fatalf("define: %v", err)
				}
				e.Precompile()
				for call := 0; call < calls; call++ {
					if _, err := e.Call(p.fn, p.args, 1); err != nil {
						t.Fatalf("[%s tiered=%v] call %d: %v", opts.Tier, opts.Tiered, call, err)
					}
					e.Drain()
				}
				e.Close()
			}
		})
	}
}

// warmBackEdges prefixes the first function of src with a loop of
// DefaultTierThreshold-2 empty iterations, as internal/core's helper of
// that name does: a tiered activation then reaches the threshold at the
// second iteration of the program's own first loop, so programs whose
// loops are shorter than the threshold (sor at Small runs 3) still
// transfer mid-loop.
func warmBackEdges(src string) string {
	i := strings.Index(src, "function ")
	i += strings.IndexByte(src[i:], '\n') + 1
	return src[:i] + fmt.Sprintf("  for warmup = 1:%d\n  end\n", core.DefaultTierThreshold-2) + src[i:]
}
