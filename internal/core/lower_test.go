package core_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/repo"
	"repro/internal/types"
)

// TestLowerIsWhatRuns holds Lower, and so every majicc dump, to the code
// the engine publishes for the 16 Table 1 programs at small:
//
//   - jit, falcon and mcc: Lower on a fresh engine at the signature of
//     the entry the first call published prints that entry's program.
//   - spec: Lower with no signature compiles at the speculative entry's.
//   - prod: for an entry function whose code makes no user call, Lower
//     on the same engine prints the replacement its tier-up published
//     at the placeholder's signature.
func TestLowerIsWhatRuns(t *testing.T) {
	define := func(t *testing.T, opts core.Options, src string) *core.Engine {
		t.Helper()
		opts.Seed = 12345
		e := core.New(opts)
		t.Cleanup(e.Close)
		if err := e.Define(src); err != nil {
			t.Fatal(err)
		}
		return e
	}
	preset := func(t *testing.T, name string) core.Options {
		t.Helper()
		opts, err := core.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		return opts
	}
	// compared counts the programs whose code Lower was held to, per
	// engine: none of the rows below may be vacuous.
	compared := map[string]int{}
	// lowersTo checks that Lower(fn, sig) on e prints entry's code, or
	// fails as the compile behind an interpret-only entry did.
	lowersTo := func(t *testing.T, tier string, e *core.Engine, fn string, sig types.Signature, entry *repo.Entry) {
		t.Helper()
		low, err := e.Lower(fn, sig)
		if entry.Code == nil {
			if err == nil {
				t.Errorf("Lower(%s) compiled what the engine runs interpreted", sig.Key())
			}
			return
		}
		if err != nil {
			t.Fatalf("Lower(%s): %v", sig.Key(), err)
		}
		compared[tier]++
		if want := entry.Code.P.Disasm(); low.Asm != want {
			t.Errorf("Lower(%s) prints\n%s\nthe engine runs\n%s", sig.Key(), low.Asm, want)
		}
	}
	for _, b := range bench.All() {
		src, args := b.Source(bench.Small), b.Args(bench.Small)
		t.Run(b.Name, func(t *testing.T) {
			for _, tier := range []string{"jit", "falcon", "mcc"} {
				e := define(t, preset(t, tier), src)
				if _, err := e.Call(b.Fn, args, 1); err != nil {
					t.Fatalf("%s: %v", tier, err)
				}
				first := e.Repo().Entries(b.Fn)[0]
				lowersTo(t, tier, define(t, preset(t, tier), src), b.Fn, first.Sig, first)
			}

			e := define(t, preset(t, "spec"), src)
			e.Precompile()
			if entries := e.Repo().Entries(b.Fn); len(entries) > 0 {
				low, err := e.Lower(b.Fn, nil)
				if err != nil {
					t.Fatalf("spec: %v", err)
				}
				compared["spec"]++
				if low.Sig.Key() != entries[0].Sig.Key() {
					t.Errorf("spec: Lower speculates %s, the engine published %s", low.Sig.Key(), entries[0].Sig.Key())
				}
			}

			e = define(t, preset(t, "prod"), src)
			for range core.DefaultTierThreshold {
				if _, err := e.Call(b.Fn, args, 1); err != nil {
					t.Fatalf("prod: %v", err)
				}
			}
			e.Drain()
			for _, entry := range e.Repo().Entries(b.Fn) {
				if entry.Quality == repo.QualityOpt && len(entry.Code.P.Calls) == 0 {
					lowersTo(t, "prod", e, b.Fn, entry.Sig, entry)
				}
			}
		})
	}
	t.Logf("programs compared: %v", compared)
	for _, tier := range []string{"jit", "falcon", "mcc", "spec", "prod"} {
		if compared[tier] == 0 {
			t.Errorf("%s: no program's code was compared", tier)
		}
	}
}
