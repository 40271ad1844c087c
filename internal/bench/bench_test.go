package bench_test

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/parser"
)

// TestSourcesParse checks every benchmark at every preset is valid in
// the supported subset.
func TestSourcesParse(t *testing.T) {
	for _, b := range bench.All() {
		for _, sz := range []bench.Size{bench.Small, bench.Medium, bench.Paper} {
			if _, err := parser.Parse(b.Source(sz)); err != nil {
				t.Errorf("%s/%s: parse: %v", b.Name, sz, err)
			}
		}
	}
}

// TestTable1Inventory checks the benchmark list matches Table 1.
func TestTable1Inventory(t *testing.T) {
	if got := len(bench.All()); got != 16 {
		t.Fatalf("have %d benchmarks, Table 1 lists 16", got)
	}
	for _, name := range []string{
		"adapt", "cgopt", "crnich", "dirich", "finedif", "galrkn", "icn",
		"mei", "orbec", "orbrk", "qmr", "sor", "ackermann", "fractal",
		"mandel", "fibonacci",
	} {
		if bench.ByName(name) == nil {
			t.Errorf("missing benchmark %q", name)
		}
	}
}

func runBench(t *testing.T, b *bench.Benchmark, opts core.Options, sz bench.Size) *mat.Value {
	t.Helper()
	opts.Seed = 424242
	e := core.New(opts)
	if err := e.Define(b.Source(sz)); err != nil {
		t.Fatalf("%s: define: %v", b.Name, err)
	}
	e.Precompile()
	outs, err := e.Call(b.Fn, b.Args(sz), 1)
	if err != nil {
		t.Fatalf("%s [%s]: %v", b.Name, opts.Tier, err)
	}
	return outs[0]
}

// TestBenchmarksAgreeAcrossTiers is the benchmark-level differential
// test: every tier (and both platform profiles) must reproduce the
// interpreter's checksum at the small preset.
func TestBenchmarksAgreeAcrossTiers(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			want := runBench(t, b, core.Options{Tier: core.TierInterp}, bench.Small)
			ws, err := want.Scalar()
			if err != nil {
				t.Fatalf("checksum is not scalar: %dx%d", want.Rows(), want.Cols())
			}
			if math.IsNaN(ws) || math.IsInf(ws, 0) {
				t.Fatalf("checksum is %g", ws)
			}
			for _, tier := range []core.Tier{core.TierMCC, core.TierFalcon, core.TierJIT, core.TierSpec} {
				for _, plat := range []core.Platform{core.PlatformSPARC, core.PlatformMIPS} {
					got := runBench(t, b, core.Options{Tier: tier, Platform: plat}, bench.Small)
					gs, err := got.Scalar()
					if err != nil {
						t.Fatalf("[%s/%s] non-scalar result", tier, plat)
					}
					if !close(ws, gs) {
						t.Errorf("[%s/%s] checksum %.15g, want %.15g", tier, plat, gs, ws)
					}
				}
			}
		})
	}
}

// TestBenchmarksUnderAblations runs the Figure 7 ablations over
// the full suite at the small preset.
func TestBenchmarksUnderAblations(t *testing.T) {
	ablations := []core.Options{
		{Tier: core.TierJIT, Ablation: core.AblateRanges},
		{Tier: core.TierJIT, Ablation: core.AblateMinShapes},
		{Tier: core.TierJIT, Ablation: core.AblateRegalloc},
		{Tier: core.TierJIT, Ablation: core.AblateInlining},
		{Tier: core.TierJIT, FuseElemwise: true},
	}
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			want := runBench(t, b, core.Options{Tier: core.TierInterp}, bench.Small)
			ws, _ := want.Scalar()
			for _, abl := range ablations {
				got := runBench(t, b, abl, bench.Small)
				gs, _ := got.Scalar()
				if !close(ws, gs) {
					t.Errorf("%+v: checksum %.15g, want %.15g", abl, gs, ws)
				}
			}
		})
	}
}

func close(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= 1e-6*(1+math.Max(math.Abs(a), math.Abs(b)))
}
