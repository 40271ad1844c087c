package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/compilequeue"
	"repro/internal/mat"
	"repro/internal/repo"
)

// The miss pipeline has one code path and three wait policies; this file
// is its one test table. Rows are the option sets users actually write
// (sync, AsyncCompile, Tiered), columns the four compiling tiers, and
// every cell runs the same programs through the same assertions. What a
// cell may differ in is exactly what missPolicy says: whether the first
// call ran compiled code and whether the compile pool saw traffic.

type policyRow struct {
	name string
	opts Options
}

var policyRows = []policyRow{
	{"sync", Options{}},
	{"async", Options{AsyncCompile: true, CompileWorkers: 2}},
	{"tiered", Options{Tiered: true, TierThreshold: 2}},
}

func (p policyRow) options(tier Tier) Options {
	o := p.opts
	o.Tier = tier
	o.Seed = 12345
	return o
}

// wantPolicy is the table the implementation must agree with, written
// out from the documentation of Options.AsyncCompile and Options.Tiered
// rather than derived from newRepoState.
func wantPolicy(row string, tier Tier) (policy missPolicy, background bool) {
	switch {
	case row == "tiered" && tier == TierJIT:
		return interpretProfiled, true
	case row == "async" && tier == TierSpec:
		return neverBlock, true
	case row == "async":
		return waitCompiled, true
	}
	// sync, and Tiered on a tier that ignores it.
	return waitCompiled, false
}

func eachPolicy(t *testing.T, f func(t *testing.T, row policyRow, tier Tier)) {
	for _, row := range policyRows {
		for _, tier := range allTiers {
			t.Run(row.name+"/"+tier.String(), func(t *testing.T) { f(t, row, tier) })
		}
	}
}

func hasCompiled(e *Engine, name string) bool {
	for _, en := range e.Repo().Entries(name) {
		if en.Code != nil {
			return true
		}
	}
	return false
}

const unsupportedSrc = "function y = h(a, b)\n  y = nargin * 10;\nend"

func TestMissPolicies(t *testing.T) {
	// The first call is where the policies differ, and only there.
	t.Run("first-call", func(t *testing.T) {
		eachPolicy(t, func(t *testing.T, row policyRow, tier Tier) {
			e := New(row.options(tier))
			defer e.Close()
			policy, background := wantPolicy(row.name, tier)
			if e.repo.policy != policy || e.repo.background != background {
				t.Fatalf("policy %d background %v, want %d %v", e.repo.policy, e.repo.background, policy, background)
			}
			if err := e.Define(asyncWorkSrc); err != nil {
				t.Fatal(err)
			}
			want := mustInterp(t, e, "work", 50)
			got := callScalar(t, e, "work", 50)
			payloadEqual(t, "cold call", []*mat.Value{want}, []*mat.Value{got})

			qs := e.QueueStats()
			if !background && qs != (compilequeue.Stats{}) {
				t.Fatalf("synchronous policy used the compile pool: %+v", qs)
			}
			if background && policy != interpretProfiled && qs.Submitted+qs.Deduped == 0 {
				t.Fatalf("a miss under AsyncCompile never reached the compile pool: %+v", qs)
			}
			switch policy {
			case waitCompiled:
				// The caller waited (inline or on the ticket): compiled
				// code is published before the first call returns.
				if !hasCompiled(e, "work") {
					t.Fatal("first call returned without a published compiled entry")
				}
			case interpretProfiled:
				e.Drain()
				if hasCompiled(e, "work") {
					t.Fatal("compiled entry published after one cold call under the threshold")
				}
				if st := e.ProfileStats(); st.Entries != 1 {
					t.Fatalf("profile entries = %d, want 1", st.Entries)
				}
				return
			}
			// The interpret-this-once fallback is transient: it must not
			// have polluted the repository, and once the job lands a warm
			// call hits the one compiled entry.
			e.Drain()
			entries := e.Repo().Entries("work")
			if len(entries) != 1 || entries[0].Code == nil {
				t.Fatalf("want exactly one compiled entry after the first call, have %v", entries)
			}
			pre := e.Repo().Stats()
			got = callScalar(t, e, "work", 50)
			payloadEqual(t, "warm call", []*mat.Value{want}, []*mat.Value{got})
			if post := e.Repo().Stats(); post.Hits != pre.Hits+1 || post.Inserts != pre.Inserts {
				t.Fatalf("warm call did not hit the compiled entry: %+v -> %+v", pre, post)
			}
		})
	})

	// Same values as the interpreter, whatever the policy: the loop
	// programs bit for bit through warm-up, promotion and OSR, the
	// differential corpus to the standard every compiled tier is held to
	// (valuesClose: the optimizing backend's selected kernels may differ
	// from the interpreter's per-operator order in the last place).
	t.Run("results", func(t *testing.T) {
		eachPolicy(t, func(t *testing.T, row policyRow, tier Tier) {
			for _, p := range []struct {
				src, fn string
				arg     float64
			}{{asyncWorkSrc, "work", 300}, {hotForSrc, "hotfor", 500}, {hotWhileSrc, "hotwhile", 400}, {fibonacciSrc, "fibonacci", 12}} {
				e := New(row.options(tier))
				if err := e.Define(p.src); err != nil {
					t.Fatal(err)
				}
				e.Precompile()
				want := mustInterp(t, e, p.fn, p.arg)
				for rep := 0; rep < 6; rep++ {
					got := callScalar(t, e, p.fn, p.arg)
					payloadEqual(t, fmt.Sprintf("%s rep %d", p.fn, rep), []*mat.Value{want}, []*mat.Value{got})
					if rep%2 == 1 {
						e.Drain()
					}
				}
				e.Close()
			}
			for _, p := range diffPrograms {
				want := runTier(t, p, TierInterp, PlatformSPARC)
				e := New(row.options(tier))
				if err := e.Define(p.src); err != nil {
					t.Fatalf("[%s] define: %v", p.name, err)
				}
				args := make([]*mat.Value, len(p.args))
				for i, a := range p.args {
					args[i] = mat.Scalar(a)
				}
				// Enough calls to cross promotion (and, on loopy programs,
				// OSR) thresholds, draining in between so every execution
				// mode runs: cold, mid-run transfer, compiled steady state.
				for rep := 0; rep < 6; rep++ {
					// The RNG is engine-global: re-seed so every rep replays
					// the stream the reference consumed.
					e.Context().RNG.Seed(12345)
					got, err := e.Call("f", args, 1)
					if err != nil {
						t.Fatalf("[%s] rep %d: %v", p.name, rep, err)
					}
					if len(got) != 1 || !valuesClose(want, got[0]) {
						t.Fatalf("[%s] rep %d: got %v, want %s", p.name, rep, got, want)
					}
					if rep == 1 {
						e.Drain()
					}
				}
				e.Close()
			}
		})
	})

	// Widening and single flight hold under every policy: however many
	// distinct constants are passed, each compile signature is inserted
	// once and no two live entries share a signature.
	t.Run("one-insert-per-signature", func(t *testing.T) {
		eachPolicy(t, func(t *testing.T, row policyRow, tier Tier) {
			e := New(row.options(tier))
			defer e.Close()
			if err := e.Define(asyncWorkSrc); err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 3; rep++ {
				for n := 100; n < 112; n++ {
					if got, want := callScalar(t, e, "work", float64(n)).MustScalar(), asyncWorkWant(n); got != want {
						t.Fatalf("work(%d) = %g, want %g", n, got, want)
					}
					// Widening keys off entries that have landed; a caller
					// that never blocks can outrun its own compile.
					e.Drain()
				}
			}
			entries := e.Repo().Entries("work")
			seen := map[string]bool{}
			for _, en := range entries {
				if seen[en.Sig.Key()] {
					t.Fatalf("two entries for signature %s: %v", en.Sig.Key(), entries)
				}
				seen[en.Sig.Key()] = true
			}
			// One exact entry plus its widened sibling (or, profiled, the
			// promotion rounds), never one per constant.
			if st := e.Repo().Stats(); st.Inserts != len(entries) || len(entries) == 0 || len(entries) > 3 {
				t.Fatalf("%d inserts for %d live entries (36 calls, 12 constants): %+v", st.Inserts, len(entries), st)
			}
		})
	})

	// A construct the compiler rejects (nargin defeats the disambiguator)
	// still runs, and the decision is cached as exactly one code-less
	// placeholder so later lookups stop missing.
	t.Run("unsupported", func(t *testing.T) {
		eachPolicy(t, func(t *testing.T, row policyRow, tier Tier) {
			e := New(row.options(tier))
			defer e.Close()
			if err := e.Define(unsupportedSrc); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				outs, err := e.Call("h", []*mat.Value{mat.Scalar(1), mat.Scalar(2)}, 1)
				if err != nil {
					t.Fatal(err)
				}
				if got := outs[0].MustScalar(); got != 20 {
					t.Fatalf("h = %g, want 20", got)
				}
				e.Drain()
			}
			entries := e.Repo().Entries("h")
			if len(entries) != 1 || entries[0].Code != nil || entries[0].Quality != repo.QualityInterp {
				t.Fatalf("want exactly one interpret-only placeholder, have %v", entries)
			}
			if st := e.Repo().Stats(); st.Inserts != 1 {
				t.Fatalf("placeholder inserted %d times", st.Inserts)
			}
		})
	})

	// A job's error is the caller's error, identically whether the job
	// ran inline or on the pool. No source program makes the pipeline fail
	// with anything but ErrUnsupported (which is cached, above), so this
	// row drives the submit/wait seam the miss path is built on.
	t.Run("compile-error", func(t *testing.T) {
		boom := errors.New("boom")
		for _, row := range policyRows {
			e := New(row.options(TierJIT))
			_, background := wantPolicy(row.name, TierJIT)
			ticket, pooled := e.lib.submit(background,
				func() string { return "jit\x00boom" }, nil,
				func() error { return boom })
			if err := ticket.Wait(); err != boom {
				t.Errorf("%s: Wait() = %v, want the job's error", row.name, err)
			}
			e.Drain()
			if pooled != background {
				t.Errorf("%s: pooled = %v, want %v", row.name, pooled, background)
			}
			if qs := e.QueueStats(); (qs.Errors == 1) != background {
				t.Errorf("%s: queue stats %+v", row.name, qs)
			}
			e.Close()
		}
	})

	// A redefinition racing compiles must never resurrect old code: the
	// job publishes at the generation its caller resolved and InsertAt
	// drops it when the generation moved. Sessions of one library call f
	// while another keeps redefining it (run with -race; the
	// deterministic generation check lives in internal/repo).
	t.Run("redefinition", func(t *testing.T) {
		eachPolicy(t, func(t *testing.T, row policyRow, tier Tier) {
			opts := row.options(tier)
			lib := NewLibrary(LibraryOptions{
				AsyncCompile: opts.AsyncCompile, CompileWorkers: opts.CompileWorkers, Tiered: opts.Tiered,
			})
			defer lib.Close()
			opts.Library = lib
			plus1, times100 := "function y = f(x)\n  y = x + 1;\nend", "function y = f(x)\n  y = x * 100;\nend"
			definer := New(opts)
			if err := definer.Define(plus1); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			bad := make(chan string, 4)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					e := New(opts)
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						outs, err := e.Call("f", []*mat.Value{mat.Scalar(float64(i))}, 1)
						if err != nil {
							bad <- fmt.Sprintf("f(%d): %v", i, err)
							return
						}
						if got := outs[0].MustScalar(); got != float64(i)+1 && got != float64(i)*100 {
							bad <- fmt.Sprintf("f(%d) = %g: neither old nor new semantics", i, got)
							return
						}
					}
				}()
			}
			for i := 0; i < 40; i++ {
				src := plus1
				if i%2 == 0 {
					src = times100
				}
				if err := definer.Define(src); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
			select {
			case msg := <-bad:
				t.Fatal(msg)
			default:
			}
			// The last definition was x + 1; settle on x * 100 and check
			// that nothing compiled from an older body is ever served.
			if err := definer.Define(times100); err != nil {
				t.Fatal(err)
			}
			lib.Drain()
			for i := 0; i < 6; i++ {
				if got := callScalar(t, definer, "f", 7).MustScalar(); got != 700 {
					t.Fatalf("stale code resurrected: f(7) = %g, want 700", got)
				}
				lib.Drain()
			}
			t.Logf("stale publishes dropped: %d", lib.Repo().Stats().StaleDrops)
		})
	})
}

// TestTieredOptionIgnoredOutsideJIT is the regression test for "pool
// existence must not pick the policy": Options.Tiered starts a compile
// pool, and before the policy was derived from the options that pool's
// mere existence sent a spec/mcc/falcon engine without AsyncCompile down
// the asynchronous path (spec's first call interpreted, one job on the
// queue) although Tiered is documented as ignored by those tiers.
func TestTieredOptionIgnoredOutsideJIT(t *testing.T) {
	for _, tier := range []Tier{TierSpec, TierMCC, TierFalcon} {
		e := New(Options{Tier: tier, Tiered: true, Seed: 2})
		if err := e.Define(asyncWorkSrc); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Call("work", []*mat.Value{mat.Scalar(50)}, 1); err != nil {
			t.Fatal(err)
		}
		if qs := e.QueueStats(); qs.Submitted != 0 {
			t.Errorf("%s: a synchronous engine compiled on the pool: %+v", tier, qs)
		}
		entries := e.Repo().Entries("work")
		if len(entries) != 1 || entries[0].Code == nil {
			t.Errorf("%s: first call did not compile inline: %v", tier, entries)
		}
		e.Close()
	}
}
