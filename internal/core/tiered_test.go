package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/cancel"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/repo"
)

// The tiered-execution suite: profile-guided promotion, on-stack
// replacement, and the invariants the tiering pipeline must preserve —
// results bit-identical with tiering on or off, deopts never wrong, and
// interrupted requests never leaking half-built state.

const hotForSrc = `
function s = hotfor(n)
  s = 0;
  for i = 1:n
    s = s + i * 0.5;
  end
  s = s * 2 + 1;
end`

const hotWhileSrc = `
function s = hotwhile(n)
  s = 0;
  i = 0;
  while i < n
    i = i + 1;
    s = s + i;
  end
  s = s - n;
end`

func newTiered(t *testing.T, threshold int) *Engine {
	t.Helper()
	e := New(Options{Tier: TierJIT, Tiered: true, TierThreshold: threshold, Seed: 12345})
	t.Cleanup(e.Close)
	return e
}

// payloadEqual is the tiered bit-identity check: identical shapes and
// identical element bits (real and imaginary). The int/double kind tag
// may differ — type inference refines integral doubles to int, so
// compiled code has always tagged such results int where the
// interpreter says double (the plain JIT tier does the same); the
// numeric payload must still match bit for bit.
func payloadEqual(t *testing.T, label string, want, got []*mat.Value) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d outputs, want %d", label, len(got), len(want))
	}
	realKind := func(k mat.Kind) bool { return k == mat.Int || k == mat.Real }
	for i := range want {
		w, g := want[i], got[i]
		if w.Rows() != g.Rows() || w.Cols() != g.Cols() {
			t.Fatalf("%s: output %d shape %dx%d, want %dx%d",
				label, i, g.Rows(), g.Cols(), w.Rows(), w.Cols())
		}
		if w.Kind() != g.Kind() && !(realKind(w.Kind()) && realKind(g.Kind())) {
			t.Fatalf("%s: output %d kind %v, want %v", label, i, g.Kind(), w.Kind())
		}
		wr, gr := w.Re(), g.Re()
		for k := range wr {
			if math.Float64bits(wr[k]) != math.Float64bits(gr[k]) {
				t.Fatalf("%s: output %d element %d = %x, want %x (values %v vs %v)",
					label, i, k, math.Float64bits(gr[k]), math.Float64bits(wr[k]), gr[k], wr[k])
			}
		}
		wi, gi := w.Im(), g.Im()
		for k := 0; k < w.Numel(); k++ {
			var x, y float64
			if wi != nil {
				x = wi[k]
			}
			if gi != nil {
				y = gi[k]
			}
			if math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("%s: output %d imag element %d differs (%v vs %v)", label, i, k, y, x)
			}
		}
	}
}

func callScalar(t *testing.T, e *Engine, name string, arg float64) *mat.Value {
	t.Helper()
	outs, err := e.Call(name, []*mat.Value{mat.Scalar(arg)}, 1)
	if err != nil {
		t.Fatalf("%s(%v): %v", name, arg, err)
	}
	if len(outs) != 1 {
		t.Fatalf("%s(%v): %d outputs", name, arg, len(outs))
	}
	return outs[0]
}

// TestTieredPromotion drives a signature past the threshold and checks
// the background tier-up: a QualityOpt entry appears, the promotion is
// counted, and later calls hit it.
func TestTieredPromotion(t *testing.T) {
	e := newTiered(t, 4)
	if err := e.Define(hotForSrc); err != nil {
		t.Fatal(err)
	}
	want := mustInterp(t, e, "hotfor", 5)
	for i := 0; i < 4; i++ {
		got := callScalar(t, e, "hotfor", 5)
		payloadEqual(t, "warming call", []*mat.Value{want}, []*mat.Value{got})
	}
	e.Drain()
	var opt bool
	for _, en := range e.Repo().Entries("hotfor") {
		if en.Quality == repo.QualityOpt && en.Code != nil {
			opt = true
		}
	}
	if !opt {
		t.Fatal("no QualityOpt entry after crossing the promotion threshold")
	}
	if st := e.ProfileStats(); st.Promotions < 1 {
		t.Fatalf("promotions = %d, want >= 1", st.Promotions)
	}
	hitsBefore := e.Repo().Stats().Hits
	got := callScalar(t, e, "hotfor", 5)
	payloadEqual(t, "post-promotion call", []*mat.Value{want}, []*mat.Value{got})
	if hits := e.Repo().Stats().Hits; hits <= hitsBefore {
		t.Fatalf("post-promotion call did not hit the compiled entry (hits %d -> %d)", hitsBefore, hits)
	}
}

// osrOnce drives the deterministic OSR sequence for one function: the
// first call's back-edges cross the threshold and enqueue the
// continuation compile, Drain lands it, and the second call transfers
// mid-loop. Returns the second call's result.
func osrOnce(t *testing.T, e *Engine, name string, n float64) *mat.Value {
	t.Helper()
	callScalar(t, e, name, n)
	e.Drain()
	if st := e.ProfileStats(); st.OSRCompiles < 1 {
		t.Fatalf("%s: no OSR continuation compiled after first hot call (requests %d, failed compile?)",
			name, st.OSRRequests)
	}
	before := e.ProfileStats().OSRTransfers
	out := callScalar(t, e, name, n)
	if after := e.ProfileStats().OSRTransfers; after <= before {
		t.Fatalf("%s: second hot call did not OSR-transfer (transfers %d -> %d, deopts %d)",
			name, before, after, e.ProfileStats().OSRDeopts)
	}
	return out
}

// TestTieredOSRForLoop checks the counted-loop transfer: a hot for
// range activation resumes in compiled code mid-run and produces the
// interpreter's bits, including the post-loop tail.
func TestTieredOSRForLoop(t *testing.T) {
	e := newTiered(t, 8)
	if err := e.Define(hotForSrc); err != nil {
		t.Fatal(err)
	}
	want := mustInterp(t, e, "hotfor", 500)
	got := osrOnce(t, e, "hotfor", 500)
	payloadEqual(t, "for OSR", []*mat.Value{want}, []*mat.Value{got})
}

// TestTieredOSRWhileLoop checks the while transfer: the continuation
// starts at the loop header and re-evaluates the condition.
func TestTieredOSRWhileLoop(t *testing.T) {
	e := newTiered(t, 8)
	if err := e.Define(hotWhileSrc); err != nil {
		t.Fatal(err)
	}
	want := mustInterp(t, e, "hotwhile", 400)
	got := osrOnce(t, e, "hotwhile", 400)
	payloadEqual(t, "while OSR", []*mat.Value{want}, []*mat.Value{got})
}

// TestTieredRedefinitionNeverResurrects: after a continuation is
// published, redefining the function must make it unreachable — the new
// body's results, never the old code's.
func TestTieredRedefinitionNeverResurrects(t *testing.T) {
	e := newTiered(t, 8)
	if err := e.Define(hotForSrc); err != nil {
		t.Fatal(err)
	}
	callScalar(t, e, "hotfor", 500)
	e.Drain()

	redefined := `
function s = hotfor(n)
  s = 1;
  for i = 1:n
    s = s + i;
  end
end`
	if err := e.Define(redefined); err != nil {
		t.Fatal(err)
	}
	want := mustInterp(t, e, "hotfor", 500)
	got := callScalar(t, e, "hotfor", 500)
	e.Drain()
	payloadEqual(t, "redefined", []*mat.Value{want}, []*mat.Value{got})
}

// TestTieredKillAtOSRSafepoint is the deadline-kill × background-
// recompile interaction: a request interrupted while interpreting a hot
// loop (i.e. at the very safepoints that offer OSR) must abort promptly,
// leak no pending tier-up past Drain, publish no half-built entry, and
// leave the engine able to tier up normally afterwards.
func TestTieredKillAtOSRSafepoint(t *testing.T) {
	e := newTiered(t, 8)
	if err := e.Define(hotWhileSrc); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		// Effectively unbounded: only the interrupt ends it.
		_, err := e.Call("hotwhile", []*mat.Value{mat.Scalar(1e15)}, 1)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	e.Interrupt()
	select {
	case err := <-done:
		if !errors.Is(err, cancel.ErrInterrupted) {
			t.Fatalf("killed call returned %v, want ErrInterrupted", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("killed call did not return")
	}
	e.ResetInterrupt()

	// Any tier-up or OSR compile the killed request enqueued must be
	// fully resolved by Drain — published whole or dropped, never
	// pending, never partial.
	e.Drain()
	for _, en := range e.Repo().Entries("hotwhile") {
		if en.Quality != repo.QualityInterp && en.Code == nil {
			t.Fatalf("half-built entry published: quality %v with nil code", en.Quality)
		}
	}
	if qs := e.QueueStats(); qs.Submitted != qs.Completed+qs.Deduped {
		t.Fatalf("leaked pending compile after Drain: %+v", qs)
	}

	// The engine must recover: the same workload tiers up and agrees
	// with the interpreter.
	want := mustInterp(t, e, "hotwhile", 400)
	got := osrOnce(t, e, "hotwhile", 400)
	payloadEqual(t, "post-kill OSR", []*mat.Value{want}, []*mat.Value{got})
}

// TestTieredThreadCountBitIdentity runs the parallel-kernel workload
// tiered at several thread counts against the serial interpreter
// reference: tiering must not perturb the parallel kernels' bit-
// identity contract.
func TestTieredThreadCountBitIdentity(t *testing.T) {
	defer parallel.SetDefaultThreads(0)
	run := func(threads int) []*mat.Value {
		t.Helper()
		e := New(Options{Tier: TierJIT, Tiered: true, TierThreshold: 2, Seed: 7, Threads: threads})
		defer e.Close()
		if err := e.Define(parWorkSrc); err != nil {
			t.Fatal(err)
		}
		var outs []*mat.Value
		for rep := 0; rep < 4; rep++ {
			e.Context().RNG.Seed(7)
			var err error
			outs, err = e.Call("parwork", []*mat.Value{mat.Scalar(72), mat.Scalar(50000)}, 3)
			if err != nil {
				t.Fatal(err)
			}
			e.Drain()
		}
		return outs
	}
	ref := run(1)
	for _, threads := range []int{2, 8} {
		payloadEqual(t, "tiered parwork", ref, run(threads))
	}
}

func mustInterp(t *testing.T, e *Engine, name string, arg float64) *mat.Value {
	t.Helper()
	outs, err := e.Interpret(name, []*mat.Value{mat.Scalar(arg)}, 1)
	if err != nil {
		t.Fatalf("interpret %s(%v): %v", name, arg, err)
	}
	return outs[0]
}
