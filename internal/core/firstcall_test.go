package core_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/repo"
	"repro/internal/types"
)

// TestFirstCallCompilesLoops holds a fresh Production engine's first call
// of every Table 1 program at Small to the compile-first policy:
//
//   - it publishes code compiled at QualityOpt for the widened signature
//     when the function loops, and runs it without interpreting;
//     otherwise it parks a placeholder at that signature and interprets
//     through it (a recursion's own calls may promote the placeholder
//     before the first call returns);
//   - it returns the interpreter's bits;
//   - for a function that loops, it allocates no more objects than the
//     jit tier's first call, times 1.5: interpreting a loop allocates a
//     box per scalar per iteration, compiled code does not.
func TestFirstCallCompilesLoops(t *testing.T) {
	const seed = 12345
	prod := core.Production()
	prod.Seed = seed
	jit := core.Options{Tier: core.TierJIT, Seed: seed}
	for _, b := range bench.All() {
		t.Run(b.Name, func(t *testing.T) {
			src, args := b.Source(bench.Small), b.Args(bench.Small)
			loops := core.FirstFunctionLoops(src)
			// engine builds an engine with the program defined; call makes
			// its first call.
			engine := func(opts core.Options) *core.Engine {
				e := core.New(opts)
				if err := e.Define(src); err != nil {
					t.Fatal(err)
				}
				return e
			}
			call := func(e *core.Engine) *mat.Value {
				e.Context().RNG.Seed(seed)
				outs, err := e.Call(b.Fn, args, 1)
				if err != nil {
					t.Fatal(err)
				}
				return outs[0]
			}

			ref := engine(core.Options{Tier: core.TierInterp, Seed: seed})
			want := call(ref)
			ref.Close()
			e := engine(prod)
			got := call(e)
			entries, st := e.Repo().Entries(b.Fn), e.ProfileStats()
			e.Close()
			if !core.SameBitsAnyKind(want, got) {
				t.Fatalf("first call = %s, interpreter %s", got, want)
			}
			sig := core.Widen(types.SignatureOf(args)).Key()
			if len(entries) != 1 || entries[0].Sig.Key() != sig {
				t.Fatalf("%s after its first call: %v, want one entry at %s", b.Fn, entries, sig)
			}
			switch en := entries[0]; {
			case loops && (en.Code == nil || en.Quality != repo.QualityOpt || st.Entries != 0 || st.Promotions != 0):
				t.Fatalf("%s loops, and its first call published %+v (tiering %+v), not QualityOpt code it ran", b.Fn, en, st)
			case !loops && (st.Entries == 0 || !en.Placeholder && (en.Quality != repo.QualityOpt || st.Promotions == 0)):
				t.Fatalf("%s is loop-free, and its first call published %+v (tiering %+v), not a placeholder it interpreted", b.Fn, en, st)
			}
			if !loops {
				return
			}

			// The first call's objects: a fresh engine defining the program
			// and calling it once, less one that only defines it.
			firstCallAllocs := func(opts core.Options) float64 {
				setup := testing.AllocsPerRun(3, func() { engine(opts).Close() })
				total := testing.AllocsPerRun(3, func() {
					e := engine(opts)
					call(e)
					e.Close()
				})
				return total - setup
			}
			jitAllocs, prodAllocs := firstCallAllocs(jit), firstCallAllocs(prod)
			t.Logf("first-call allocations: prod %.0f, jit %.0f", prodAllocs, jitAllocs)
			if prodAllocs > 1.5*jitAllocs {
				t.Fatalf("prod's first call allocated %.0f objects, more than 1.5 × jit's %.0f", prodAllocs, jitAllocs)
			}
		})
	}
}
