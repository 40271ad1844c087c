package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
)

func smallCfg(benches ...string) Config {
	return Config{Size: bench.Small, Reps: 1, Benchmarks: benches}
}

func TestMeasureInterp(t *testing.T) {
	cfg := smallCfg()
	d, err := cfg.MeasureInterp(bench.ByName("fibonacci"))
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d > time.Minute {
		t.Fatalf("implausible runtime %v", d)
	}
}

func TestMeasureTierAllTiers(t *testing.T) {
	cfg := smallCfg()
	b := bench.ByName("mandel")
	for _, tier := range []core.Tier{core.TierMCC, core.TierFalcon, core.TierJIT, core.TierSpec} {
		d, err := cfg.MeasureTier(b, core.Options{Tier: tier})
		if err != nil {
			t.Fatalf("%s: %v", tier, err)
		}
		if d <= 0 {
			t.Fatalf("%s: zero runtime", tier)
		}
	}
}

func TestSpeedupChartStructure(t *testing.T) {
	cfg := smallCfg("fibonacci", "cgopt")
	rows, err := cfg.SpeedupChart(core.PlatformSPARC)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Speedup) != 4 {
			t.Fatalf("%s has %d tiers", r.Bench, len(r.Speedup))
		}
		for tier, s := range r.Speedup {
			if s <= 0 {
				t.Errorf("%s/%s speedup %g", r.Bench, tier, s)
			}
		}
	}
	var buf bytes.Buffer
	PrintSpeedups(&buf, "Test figure", rows)
	out := buf.String()
	if !strings.Contains(out, "fibonacci") || !strings.Contains(out, "log-scale") {
		t.Errorf("render:\n%s", out)
	}
}

// TestPhaseDecomposition: Figure 6's phases of one JIT call are each
// measured, and sum to no more than the call's wall time — fibonacci's
// execution compiles a second signature, which counts once, as compile.
func TestPhaseDecomposition(t *testing.T) {
	cfg := smallCfg()
	for _, name := range []string{"dirich", "fibonacci"} {
		pb, err := cfg.MeasurePhases(bench.ByName(name))
		if err != nil {
			t.Fatal(err)
		}
		if pb.Exec <= 0 {
			t.Errorf("%s: no execution time recorded", name)
		}
		if pb.Disambig <= 0 || pb.TypeInf <= 0 || pb.Codegen <= 0 {
			t.Errorf("%s: compile phases missing: %+v", name, pb)
		}
		if sum := pb.Disambig + pb.TypeInf + pb.Codegen + pb.Exec; sum > pb.Wall {
			t.Errorf("%s: phases sum to %v, more than the call's %v: %+v", name, sum, pb.Wall, pb)
		}
	}
}

func TestAblationRows(t *testing.T) {
	cfg := smallCfg("dirich")
	rows, err := cfg.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatal("row count")
	}
	r := rows[0]
	// Structural sanity only: the build machines are noisy enough that
	// single-rep ratios can swing well past 2x, so the bounds are loose.
	for name, v := range map[string]float64{
		"NoRanges": r.NoRanges, "NoMinShapes": r.NoMinShapes, "SpillAll": r.SpillAll,
	} {
		if v <= 0 || v > 100 {
			t.Errorf("%s relative performance %g implausible", name, v)
		}
	}
}

func TestSpecVsJITRows(t *testing.T) {
	cfg := smallCfg("fibonacci", "qmr")
	rows, err := cfg.SpecVsJIT()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.SpecSpd <= 0 || r.ExactSpd <= 0 {
			t.Errorf("%s: speedups %g/%g", r.Bench, r.SpecSpd, r.ExactSpd)
		}
	}
}

func TestLogBar(t *testing.T) {
	if logBar(0.1) != "" {
		t.Errorf("0.1x bar %q", logBar(0.1))
	}
	if len(logBar(1000)) != 48 {
		t.Errorf("1000x bar length %d", len(logBar(1000)))
	}
	if len(logBar(1)) >= len(logBar(10)) {
		t.Error("bars must grow with speedup")
	}
	if logBar(0) != "" {
		t.Error("zero speedup")
	}
}

func TestExperimentPrintersRun(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Size: bench.Small, Reps: 1, Out: &buf, Benchmarks: []string{"fibonacci"}}
	for name, f := range map[string]func() error{
		"table1": cfg.Table1,
		"fig6":   cfg.Fig6,
		"fig7":   cfg.Fig7,
		"table2": cfg.Table2,
	} {
		buf.Reset()
		if err := f(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", name)
		}
	}
}

// TestEnginesAreTheirArm: every harness engine is the paper-mode arm it
// measures (tier, platform, ablation) plus the run's seed, and
// nothing else: no background compiles, fusion or tiering.
func TestEnginesAreTheirArm(t *testing.T) {
	b := bench.ByName("fibonacci")
	cfg := Config{Size: bench.Small}
	for _, arm := range []core.Options{
		{Tier: core.TierInterp},
		{Tier: core.TierFalcon, Platform: core.PlatformMIPS, Ablation: core.AblateRegalloc},
		{Tier: core.TierJIT},
		{Tier: core.TierSpec, Ablation: core.AblateRanges},
	} {
		e, err := cfg.newEngine(b, arm)
		if err != nil {
			t.Fatal(err)
		}
		got := e.Options()
		e.Close()
		want := arm
		want.Seed = cfg.seed()
		if got != want {
			t.Errorf("arm %+v:\n got %+v\nwant %+v", arm, got, want)
		}
	}
}

// TestHarnessSmoke exercises every speedup-chart and table experiment
// end to end at the small preset, on the benchmarks each is most likely
// to break on, writing the reports to the test log on -v.
func TestHarnessSmoke(t *testing.T) {
	cfg := Config{Size: bench.Small, Reps: 1, Out: testWriter{t}}
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
