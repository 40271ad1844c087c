package core

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/telemetry"
)

// valueBits compares two values bit-for-bit (not approximately): the
// telemetry layer must be a pure observer, so enabling it may not
// perturb a single mantissa bit.
func valueBits(t *testing.T, name string, a, b *mat.Value) {
	t.Helper()
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	ar, br := a.Re(), b.Re()
	for i := range ar {
		if math.Float64bits(ar[i]) != math.Float64bits(br[i]) {
			t.Fatalf("%s: re[%d] = %x vs %x", name, i, math.Float64bits(ar[i]), math.Float64bits(br[i]))
		}
	}
	ai, bi := a.Im(), b.Im()
	if (ai == nil) != (bi == nil) {
		t.Fatalf("%s: one result is complex, the other not", name)
	}
	for i := range ai {
		if math.Float64bits(ai[i]) != math.Float64bits(bi[i]) {
			t.Fatalf("%s: im[%d] differs", name, i)
		}
	}
}

// TestTelemetryNeutralResults is the bit-identity guard: every
// differential program produces byte-for-byte identical results with
// the flight recorder fully enabled (tracer + journal) and disabled.
func TestTelemetryNeutralResults(t *testing.T) {
	for _, p := range diffPrograms {
		p := p
		t.Run(p.name, func(t *testing.T) {
			plain := runTier(t, p, TierJIT, PlatformSPARC)

			tr := telemetry.NewTracer(0)
			j := telemetry.NewJournal(0)
			e := New(Options{Tier: TierJIT, Platform: PlatformSPARC, Seed: 12345,
				Tracer: tr, Journal: j})
			if err := e.Define(p.src); err != nil {
				t.Fatalf("define: %v", err)
			}
			e.Precompile()
			args := make([]*mat.Value, len(p.args))
			for i, a := range p.args {
				args[i] = mat.Scalar(a)
			}
			outs, err := e.Call("f", args, 1)
			if err != nil {
				t.Fatalf("traced call: %v", err)
			}
			valueBits(t, p.name, plain, outs[0])
			if len(tr.Events()) == 0 {
				t.Fatal("tracer saw no spans — telemetry was not actually on")
			}
		})
	}
}

// TestSpanTotalsReconcileWithPhaseTimes pins the acceptance criterion:
// the trace's per-category span totals reconcile with the engine's
// PhaseTimes decomposition. Both sides are fed the very same
// time.Since measurement, so the only slack is the trace format's
// microsecond truncation — strictly less than 1µs per span, always
// downward.
func TestSpanTotalsReconcileWithPhaseTimes(t *testing.T) {
	tr := telemetry.NewTracer(0)
	e := New(Options{Tier: TierJIT, Seed: 7, Tracer: tr})
	defer e.Close()
	if err := e.Define(`
function s = f(n)
  s = 0;
  for i = 1:n
    s = s + i * i;
  end
end`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := e.Call("f", []*mat.Value{mat.Scalar(2000)}, 1); err != nil {
			t.Fatal(err)
		}
	}

	pt := e.Timing()
	totals := tr.CatTotals()
	spans := map[string]int64{}
	for _, ev := range tr.Events() {
		spans[ev.Cat]++
	}
	for cat, atomicNS := range map[string]int64{
		telemetry.CatDisambig: pt.Disambig,
		telemetry.CatTypeInf:  pt.TypeInf,
		telemetry.CatCodegen:  pt.Codegen,
		telemetry.CatExec:     pt.Exec,
	} {
		if spans[cat] == 0 {
			t.Errorf("no %s spans recorded", cat)
			continue
		}
		spanNS := totals[cat].Nanoseconds()
		if spanNS > atomicNS {
			t.Errorf("%s: span total %dns exceeds PhaseTimes %dns (truncation can only lose time)",
				cat, spanNS, atomicNS)
		}
		if slack := atomicNS - spanNS; slack >= spans[cat]*1000 {
			t.Errorf("%s: span total %dns vs PhaseTimes %dns — slack %dns over %d spans breaks the <1µs/span bound",
				cat, spanNS, atomicNS, slack, spans[cat])
		}
	}
}

// TestSpeculationIsTimedOnce: a spec engine's Precompile of one function
// runs one front end, shared by the speculator and the compile of the
// signature it found, so the trace has one disambig span; and it has two
// typeinf spans, the speculation's and the compile's.
func TestSpeculationIsTimedOnce(t *testing.T) {
	tr := telemetry.NewTracer(0)
	e := New(Options{Tier: TierSpec, Tracer: tr})
	defer e.Close()
	if err := e.Define(`
function s = f(n)
  s = 0;
  for i = 1:n
    s = s + sq(i);
  end
end
function y = sq(x)
  y = x * x;
end`); err != nil {
		t.Fatal(err)
	}
	e.Precompile()
	spans := map[string]int{}
	for _, ev := range tr.Events() {
		if ev.Name == "f" {
			spans[ev.Cat]++
		}
	}
	if n := spans[telemetry.CatDisambig]; n != 1 {
		t.Errorf("%d disambig spans for f, want 1: the front end runs once", n)
	}
	if n := spans[telemetry.CatTypeInf]; n != 2 {
		t.Errorf("%d typeinf spans for f, want 2: the speculation's and the compile's", n)
	}
	if len(e.Repo().Entries("f")) != 1 {
		t.Errorf("f's entries after Precompile: %v, want the speculative one", e.Repo().Entries("f"))
	}
}

// Steady-state overhead pair: the same hot call with the flight
// recorder off and on. EXPERIMENTS.md records the measured delta; the
// acceptance bound is <2%.
func benchSteadyState(b *testing.B, tr *telemetry.Tracer, j *telemetry.Journal) {
	e := New(Options{Tier: TierJIT, Seed: 1, Tracer: tr, Journal: j})
	defer e.Close()
	if err := e.Define(`
function s = f(n)
  s = 0;
  for i = 1:n
    s = s + i * 2;
  end
end`); err != nil {
		b.Fatal(err)
	}
	args := []*mat.Value{mat.Scalar(10000)}
	if _, err := e.Call("f", args, 1); err != nil {
		b.Fatal(err) // compile outside the timed window
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Call("f", args, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteadyStateTelemetryOff(b *testing.B) {
	benchSteadyState(b, nil, nil)
}

func BenchmarkSteadyStateTelemetryOn(b *testing.B) {
	benchSteadyState(b, telemetry.NewTracer(0), telemetry.NewJournal(0))
}
