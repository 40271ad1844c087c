package harness

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/telemetry"
)

// TestFig4OutputsBitIdenticalWithTelemetry is the fig4 checksum guard:
// every Figure 4 benchmark, run through the harness's engine factory,
// produces bit-for-bit identical results with the flight recorder on
// and off. Telemetry must be a pure observer of paper-mode runs.
func TestFig4OutputsBitIdenticalWithTelemetry(t *testing.T) {
	runOne := func(t *testing.T, cfg Config, b *bench.Benchmark) []*mat.Value {
		t.Helper()
		e, err := cfg.newEngine(b, core.Options{Tier: core.TierJIT, Platform: core.PlatformSPARC})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.Precompile()
		outs, err := e.Call(b.Fn, b.Args(cfg.Size), 1)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		return outs
	}
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			plain := smallCfg(b.Name)
			traced := smallCfg(b.Name)
			traced.Tracer = telemetry.NewTracer(0)

			want := runOne(t, plain, b)
			got := runOne(t, traced, b)
			if len(want) != len(got) {
				t.Fatalf("output arity %d vs %d", len(want), len(got))
			}
			for k := range want {
				a, c := want[k], got[k]
				if a.Rows() != c.Rows() || a.Cols() != c.Cols() {
					t.Fatalf("out %d: shape %dx%d vs %dx%d", k, a.Rows(), a.Cols(), c.Rows(), c.Cols())
				}
				ar, cr := a.Re(), c.Re()
				for i := range ar {
					if math.Float64bits(ar[i]) != math.Float64bits(cr[i]) {
						t.Fatalf("out %d re[%d]: %x vs %x", k, i,
							math.Float64bits(ar[i]), math.Float64bits(cr[i]))
					}
				}
				ai, ci := a.Im(), c.Im()
				if (ai == nil) != (ci == nil) {
					t.Fatalf("out %d: complexness differs", k)
				}
				for i := range ai {
					if math.Float64bits(ai[i]) != math.Float64bits(ci[i]) {
						t.Fatalf("out %d im[%d] differs", k, i)
					}
				}
			}
			if len(traced.Tracer.Events()) == 0 {
				t.Fatal("tracer saw no spans — the traced arm was not actually traced")
			}
		})
	}
}
