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
	"repro/internal/types"
)

// The tiered-execution suite: compile-first for functions that loop,
// placeholders and profile-guided promotion for the rest, and the
// invariants the tiering pipeline must preserve — results bit-identical
// with tiering on or off, and interrupted requests never leaking
// half-built state.

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

// sqSrc is loop-free: a tiered engine parks a placeholder for it and
// promotes the placeholder on its DefaultTierThreshold-th call.
const sqSrc = `
function y = sq(x)
  y = x*x + 1;
end`

// checkFirstCall checks what a tiered engine's first call of fn with
// args published: code compiled at QualityOpt for the widened signature
// when fn loops, which is what that call ran (a miss runs the entry it
// waited for), and a placeholder at the same signature otherwise.
func checkFirstCall(t *testing.T, e *Engine, fn string, args []*mat.Value, loops bool) {
	t.Helper()
	want := widen(types.SignatureOf(args)).Key()
	entries := e.Repo().Entries(fn)
	if len(entries) != 1 || entries[0].Sig.Key() != want {
		t.Fatalf("%s after its first call: %v, want one entry at %s", fn, entries, want)
	}
	switch en := entries[0]; {
	case loops && (en.Code == nil || en.Quality != repo.QualityOpt || en.Speculative):
		t.Fatalf("%s loops, and its first call published %+v, not QualityOpt code", fn, en)
	case !loops && !en.Placeholder:
		t.Fatalf("%s is loop-free, and its first call published %+v, not a placeholder", fn, en)
	}
}

func newTiered(t *testing.T) *Engine {
	t.Helper()
	e := New(Options{Tier: TierJIT, Tiered: true, Seed: 12345})
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

// TestTieredPromotion drives both first-call paths of a tiered engine:
// a loop-free function's placeholder is replaced by a QualityOpt entry on
// the DefaultTierThreshold-th call, a promotion that later calls hit,
// and a function that loops has that entry from its first call on,
// without a promotion.
func TestTieredPromotion(t *testing.T) {
	e := newTiered(t)
	for _, src := range []string{sqSrc, hotForSrc} {
		if err := e.Define(src); err != nil {
			t.Fatal(err)
		}
	}
	args := []*mat.Value{mat.Scalar(5)}
	want := mustInterp(t, e, "sq", 5)
	for i := 0; i < DefaultTierThreshold; i++ {
		got := callScalar(t, e, "sq", 5)
		payloadEqual(t, "warming call", []*mat.Value{want}, []*mat.Value{got})
		if i == 0 {
			checkFirstCall(t, e, "sq", args, false)
		}
	}
	e.Drain()
	entries := e.Repo().Entries("sq")
	if len(entries) != 1 || entries[0].Quality != repo.QualityOpt || entries[0].Code == nil {
		t.Fatalf("sq after crossing the promotion threshold: %v, want one QualityOpt entry", entries)
	}
	if st := e.ProfileStats(); st.Promotions != 1 || st.Entries != DefaultTierThreshold {
		t.Fatalf("promotions %d, interpreted activations %d; want 1 and %d", st.Promotions, st.Entries, DefaultTierThreshold)
	}
	hitsBefore := e.Repo().Stats().Hits
	got := callScalar(t, e, "sq", 5)
	payloadEqual(t, "post-promotion call", []*mat.Value{want}, []*mat.Value{got})
	if hits := e.Repo().Stats().Hits; hits <= hitsBefore {
		t.Fatalf("post-promotion call did not hit the compiled entry (hits %d -> %d)", hitsBefore, hits)
	}

	want = mustInterp(t, e, "hotfor", 5)
	for i := 0; i <= DefaultTierThreshold; i++ {
		got := callScalar(t, e, "hotfor", 5)
		payloadEqual(t, "hotfor call", []*mat.Value{want}, []*mat.Value{got})
		if i == 0 {
			checkFirstCall(t, e, "hotfor", args, true)
		}
		e.Drain()
	}
	if st := e.ProfileStats(); st.Promotions != 1 || st.Entries != DefaultTierThreshold {
		t.Fatalf("hotfor was promoted or interpreted: %+v", st)
	}
}

// TestTieredRedefinitionNeverResurrects: after the first call published
// compiled code, redefining the function must make it unreachable — the
// new body's results, never the old code's.
func TestTieredRedefinitionNeverResurrects(t *testing.T) {
	e := newTiered(t)
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

// TestTieredKillDuringFirstCall is the deadline-kill × background-
// compile interaction: the first call of a function that loops compiles
// on the pool and runs that code, and a kill landing in the compile or in
// the compiled loop (at the back-edge safepoint that polls the cancel
// flag) must abort promptly, leak no pending compile past Drain, publish
// no half-built entry, and leave the engine computing the interpreter's
// bits in compiled code afterwards.
func TestTieredKillDuringFirstCall(t *testing.T) {
	e := newTiered(t)
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

	// The compile the killed request submitted must be fully resolved by
	// Drain — published whole or dropped, never pending, never partial.
	e.Drain()
	for _, en := range e.Repo().Entries("hotwhile") {
		if en.Quality != repo.QualityInterp && en.Code == nil {
			t.Fatalf("half-built entry published: quality %v with nil code", en.Quality)
		}
	}
	if qs := e.QueueStats(); qs.Submitted != qs.Completed+qs.Deduped {
		t.Fatalf("leaked pending compile after Drain: %+v", qs)
	}

	// The engine must recover: the same function runs compiled code and
	// agrees with the interpreter.
	want := mustInterp(t, e, "hotwhile", 400)
	hits := e.Repo().Stats().Hits
	got := callScalar(t, e, "hotwhile", 400)
	payloadEqual(t, "post-kill call", []*mat.Value{want}, []*mat.Value{got})
	if e.Repo().Stats().Hits != hits+1 || !hasCompiled(e, "hotwhile") {
		t.Fatalf("post-kill call did not run the compiled entry: %v", e.Repo().Entries("hotwhile"))
	}
	if n := e.ProfileStats().Entries; n != 0 {
		t.Fatalf("%d interpreted activations of a function that loops", n)
	}
}

// TestTieredThreadCountBitIdentity runs the parallel-kernel workload
// tiered at several thread counts against the serial interpreter
// reference: tiering must not perturb the parallel kernels' bit-
// identity contract.
func TestTieredThreadCountBitIdentity(t *testing.T) {
	defer parallel.SetDefaultThreads(0)
	run := func(threads int) []*mat.Value {
		t.Helper()
		e := New(Options{Tier: TierJIT, Tiered: true, Seed: 7, Threads: threads})
		defer e.Close()
		if err := e.Define(parWorkSrc); err != nil {
			t.Fatal(err)
		}
		var outs []*mat.Value
		for rep := 0; rep < DefaultTierThreshold+2; rep++ {
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

// TestGuardMissRecompilesBounded: an entry retired after its return guard
// missed is a decision, not a placeholder, so it never counts. A prod
// function whose compiled code keeps missing its guard is compiled once,
// however often it is called, instead of every threshold calls. Here the
// miss is forced by a summary of q that does not hold: r is compiled to
// take q's result as an integer, and q returns a matrix. r's replacement
// is compiled at the signature its placeholder was parked at, range ⊤,
// so q's entry carries the forged summary at the widened signature that
// compile reads.
func TestGuardMissRecompilesBounded(t *testing.T) {
	lib := NewLibrary(LibraryOptions{AsyncCompile: true, CompileWorkers: 1})
	defer lib.Close()
	jit := New(Options{Tier: TierJIT, Library: lib})
	defer jit.Close()
	for _, src := range []string{depRSrc, "function y = q(x)\n  y = [x 2 3];\n  return;\nend"} {
		if err := jit.Define(src); err != nil {
			t.Fatal(err)
		}
	}
	args := []*mat.Value{mat.Scalar(3)}
	if _, err := jit.Call("q", args, 1); err != nil {
		t.Fatal(err)
	}
	qe := lib.Repo().Entries("q")[0]
	lib.Repo().Replace("q", qe, &repo.Entry{Sig: widen(qe.Sig), Code: qe.Code, Quality: qe.Quality, Ret: []types.Type{types.ScalarOf(types.IInt, types.RangeTop)}})

	prod := Production()
	prod.Library = lib
	e := New(prod)
	defer e.Close()
	want, err := e.Interpret("r", args, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10*DefaultTierThreshold; i++ {
		got, err := e.Call("r", args, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !sameValue(got[0], want[0]) {
			t.Fatalf("call %d: r(3) = %v, interpreter %v", i, got[0], want[0])
		}
		e.Drain()
	}
	if n := e.ProfileStats().Promotions; n != 1 {
		t.Fatalf("r was compiled %d times over %d calls, want once", n, 10*DefaultTierThreshold)
	}
	entries := e.Repo().Entries("r")
	if len(entries) != 1 || entries[0].Quality != repo.QualityInterp || entries[0].Placeholder {
		t.Fatalf("r after its guard missed: %v, want one retired interpret-only entry", entries)
	}
}

// TestRejectedTierUpTriedOnce: a placeholder whose replacement the
// compiler rejects (nargin defeats the disambiguator) keeps serving, and
// its count, past the threshold, never submits the compile again.
func TestRejectedTierUpTriedOnce(t *testing.T) {
	e := New(Production())
	defer e.Close()
	if err := e.Define(unsupportedSrc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10*DefaultTierThreshold; i++ {
		outs, err := e.Call("h", []*mat.Value{mat.Scalar(1), mat.Scalar(2)}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := outs[0].MustScalar(); got != 20 {
			t.Fatalf("h = %g, want 20", got)
		}
		e.Drain()
	}
	if qs := e.QueueStats(); qs.Submitted != 1 {
		t.Fatalf("%d compiles submitted over %d calls, want 1: %+v", qs.Submitted, 10*DefaultTierThreshold, qs)
	}
	if entries := e.Repo().Entries("h"); len(entries) != 1 || !entries[0].Placeholder {
		t.Fatalf("want the placeholder still serving, have %v", entries)
	}
}

// TestRedefinitionRestartsTierCount: the count lives on the placeholder,
// and a redefinition drops it with the old body's entries, so calls of the
// old body never bring the new one's tier-up forward.
func TestRedefinitionRestartsTierCount(t *testing.T) {
	const threshold = DefaultTierThreshold
	e := newTiered(t)
	if err := e.Define(hotForSrc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < threshold-1; i++ {
		callScalar(t, e, "hotfor", 5)
	}
	if err := e.Define("function s = hotfor(n)\n  s = n + 1;\nend"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < threshold; i++ {
		if n := e.ProfileStats().Promotions; n != 0 {
			t.Fatalf("promoted after %d calls of the new body", i)
		}
		if got := callScalar(t, e, "hotfor", 5).MustScalar(); got != 6 {
			t.Fatalf("hotfor(5) = %g, want 6", got)
		}
		e.Drain()
	}
	if n := e.ProfileStats().Promotions; n != 1 {
		t.Fatalf("%d promotions after %d calls of the new body, want 1", n, threshold)
	}
}
