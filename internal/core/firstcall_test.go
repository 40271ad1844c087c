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
//     when the function loops or calls itself (fibonacci, ackermann), and
//     runs it without interpreting; otherwise it parks a placeholder at
//     that signature and interprets through it;
//   - it returns the interpreter's bits;
//   - for a function that loops or recurses, it allocates no more
//     objects than the jit tier's first call, times 1.5: interpreting a
//     loop allocates a box per scalar per iteration, compiled code does
//     not.
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

// mutualSrc is a mutual recursion: neither body names itself, so the
// body scan that makes a self-call compile first does not see it.
const mutualSrc = `function y = iseven(n)
  if n == 0
    y = 1;
  else
    y = isodd(n - 1);
  end
end
function y = isodd(n)
  if n == 0
    y = 0;
  else
    y = iseven(n - 1);
  end
end
`

// TestMutualRecursionIsParked pins what Production does with a mutual
// recursion: each function is loop-free and never names itself, so its
// first call parks a placeholder for each and interprets, with the
// interpreter's bits, and both are promoted to compiled code once their
// placeholders have served DefaultTierThreshold calls. Compiling such a
// cycle before its first call would take a run-time check, which the
// tiered engine does not make.
func TestMutualRecursionIsParked(t *testing.T) {
	const n = 3 // iseven(3) → isodd(2) → iseven(1) → isodd(0): two calls each
	ref := core.New(core.Options{Tier: core.TierInterp})
	defer ref.Close()
	if err := ref.Define(mutualSrc); err != nil {
		t.Fatal(err)
	}
	e := core.New(core.Production())
	defer e.Close()
	if err := e.Define(mutualSrc); err != nil {
		t.Fatal(err)
	}
	call := func(e *core.Engine) *mat.Value {
		outs, err := e.Call("iseven", []*mat.Value{mat.Scalar(n)}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return outs[0]
	}
	want := call(ref)
	// entries reads fn's one entry once every job has landed.
	entry := func(fn string) *repo.Entry {
		e.Drain()
		entries := e.Repo().Entries(fn)
		if len(entries) != 1 {
			t.Fatalf("%s: %d entries %v, want one", fn, len(entries), entries)
		}
		return entries[0]
	}

	if got := call(e); !core.SameBitsAnyKind(want, got) {
		t.Fatalf("first call = %s, interpreter %s", got, want)
	}
	for _, fn := range []string{"iseven", "isodd"} {
		if en := entry(fn); !en.Placeholder {
			t.Fatalf("%s after the first call: %+v, want a parked placeholder", fn, en)
		}
	}
	if st := e.ProfileStats(); st.Entries != 2*2 || st.Promotions != 0 {
		t.Fatalf("first call: tiering %+v, want 4 interpreted activations and no promotion", st)
	}

	// Each call serves each placeholder twice: the threshold is reached
	// within DefaultTierThreshold/2 calls, and one more runs what replaced it.
	for range core.DefaultTierThreshold / 2 {
		if got := call(e); !core.SameBitsAnyKind(want, got) {
			t.Fatalf("call = %s, interpreter %s", got, want)
		}
	}
	for _, fn := range []string{"iseven", "isodd"} {
		if en := entry(fn); en.Placeholder || en.Code == nil || en.Quality != repo.QualityOpt {
			t.Fatalf("%s after %d calls: %+v, want compiled code that replaced its placeholder", fn, core.DefaultTierThreshold, en)
		}
	}
	if st := e.ProfileStats(); st.Promotions != 2 {
		t.Fatalf("tiering %+v, want both placeholders promoted", st)
	}
	if got := call(e); !core.SameBitsAnyKind(want, got) {
		t.Fatalf("compiled call = %s, interpreter %s", got, want)
	}
}
