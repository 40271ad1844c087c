package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/mat"
)

const asyncWorkSrc = `
function s = work(n)
  s = 0;
  for i = 1:n
    s = s + i*i - i;
  end
end`

func asyncWorkWant(n int) float64 {
	want := 0.0
	for i := 1; i <= n; i++ {
		want += float64(i*i - i)
	}
	return want
}

// TestAsyncSingleFlight is the acceptance test for the single-flight
// layer: 8 goroutines missing on the same (function, widened signature)
// key against one shared engine repository must trigger exactly one
// compile — stats assert Inserts == 1.
func TestAsyncSingleFlight(t *testing.T) {
	e := New(Options{Tier: TierJIT, AsyncCompile: true, CompileWorkers: 4, Seed: 2})
	defer e.Close()
	if err := e.Define(asyncWorkSrc); err != nil {
		t.Fatal(err)
	}
	const callers = 8
	want := asyncWorkWant(300)
	var wg sync.WaitGroup
	errs := make([]error, callers)
	var start sync.WaitGroup
	start.Add(1)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait() // line all callers up on the same cold miss
			outs, err := e.Call("work", []*mat.Value{mat.Scalar(300)}, 1)
			if err != nil {
				errs[i] = err
				return
			}
			if got := outs[0].MustScalar(); got != want {
				errs[i] = fmt.Errorf("caller %d: got %g, want %g", i, got, want)
			}
		}(i)
	}
	start.Done()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := e.Repo().Stats()
	if st.Inserts != 1 {
		t.Fatalf("8 concurrent misses produced %d repository inserts, want exactly 1 (stats %+v)", st.Inserts, st)
	}
	// Exactly one job ran. (How many callers coalesced on its ticket vs
	// arrived after the entry published is timing-dependent; the
	// deterministic coalescing behaviour is pinned by the gated job in
	// compilequeue's TestSingleFlight.)
	qs := e.QueueStats()
	if qs.Submitted != 1 {
		t.Fatalf("queue ran %d jobs, want 1 (stats %+v)", qs.Submitted, qs)
	}
}

// TestAsyncBlockingJITCorrectness: under the blocking policy the first
// caller waits for the job and runs compiled code — results must match
// the synchronous engine for many distinct signatures and concurrent
// callers (run with -race: this is the correctness gate).
func TestAsyncBlockingJITCorrectness(t *testing.T) {
	e := New(Options{Tier: TierJIT, AsyncCompile: true, Seed: 2})
	defer e.Close()
	if err := e.Define(asyncWorkSrc); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 1; n <= 8; n++ {
				outs, err := e.Call("work", []*mat.Value{mat.Scalar(float64(100 + n))}, 1)
				if err != nil {
					errCh <- err
					return
				}
				if got, want := outs[0].MustScalar(), asyncWorkWant(100+n); got != want {
					errCh <- fmt.Errorf("work(%d) = %g, want %g", 100+n, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Widening must still collapse same-kind signatures: far fewer
	// compiled versions than distinct constants.
	if n := len(e.Repo().Entries("work")); n > 2 {
		t.Errorf("widening failed under async: %d entries", n)
	}
}

// TestAsyncPrecompileBehindTheScenes: Precompile in async+spec mode
// enqueues speculative jobs and returns immediately; after Drain the
// speculative entries have landed and calls hit them.
func TestAsyncPrecompileBehindTheScenes(t *testing.T) {
	e := New(Options{Tier: TierSpec, AsyncCompile: true, Seed: 2})
	defer e.Close()
	if err := e.Define(asyncWorkSrc); err != nil {
		t.Fatal(err)
	}
	e.Precompile()
	e.Drain()
	entries := e.Repo().Entries("work")
	if len(entries) != 1 || !entries[0].Speculative {
		t.Fatalf("speculative entry missing after Drain: %v", entries)
	}
	outs, err := e.Call("work", []*mat.Value{mat.Scalar(40)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := outs[0].MustScalar(), asyncWorkWant(40); got != want {
		t.Fatalf("got %g, want %g", got, want)
	}
	if st := e.Repo().Stats(); st.SpecHits == 0 {
		t.Errorf("call did not hit the speculative entry: %+v", st)
	}
	// Precompile again: covered, no duplicate speculative job output.
	e.Precompile()
	e.Drain()
	if n := len(e.Repo().Entries("work")); n != 1 {
		t.Errorf("re-Precompile duplicated entries: %d", n)
	}
}

// TestCloseThenCallStaysUsable: after Close the engine compiles inline.
func TestCloseThenCallStaysUsable(t *testing.T) {
	e := New(Options{Tier: TierJIT, AsyncCompile: true, Seed: 2})
	if err := e.Define(asyncWorkSrc); err != nil {
		t.Fatal(err)
	}
	e.Close()
	outs, err := e.Call("work", []*mat.Value{mat.Scalar(20)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := outs[0].MustScalar(), asyncWorkWant(20); got != want {
		t.Fatalf("got %g, want %g", got, want)
	}
	e.Close() // idempotent
}

// TestSyncDefaultUnchanged: without AsyncCompile no pool exists and the
// repository behaves exactly as the seed (inline compile on miss).
func TestSyncDefaultUnchanged(t *testing.T) {
	e := New(Options{Tier: TierJIT, Seed: 2})
	if err := e.Define(asyncWorkSrc); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Call("work", []*mat.Value{mat.Scalar(10)}, 1); err != nil {
		t.Fatal(err)
	}
	if qs := e.QueueStats(); qs.Submitted != 0 {
		t.Fatalf("sync engine used the pool: %+v", qs)
	}
	st := e.Repo().Stats()
	if st.Inserts != 1 || st.Misses != 1 {
		t.Fatalf("sync miss path changed: %+v", st)
	}
}
