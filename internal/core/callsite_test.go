package core

import (
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/types"
	"repro/internal/vm"
)

// checkSiteHits installs siteHitCheck for the test: every call a site's
// record answers must get the entry the locator returns for its observed
// signature, in the state the name's slot holds at that moment. It
// returns the number of such calls so far.
func checkSiteHits(t *testing.T) (hits func() int) {
	t.Helper()
	n := 0
	siteHitCheck = func(rec *siteRecord, args []vm.Operand) {
		n++
		if now := rec.repo.State(rec.state.Fn.Name); now != rec.state {
			t.Fatalf("%s: a record answered for a state the name no longer holds", rec.state.Fn.Name)
		}
		var buf [sigBuf]types.Type
		sig := observedSig(buf[:0], args)
		if want := rec.repo.LookupIn(rec.state, sig); want != rec.entry {
			t.Fatalf("%s%v: the site ran %v, the locator chooses %v", rec.state.Fn.Name, sig, rec.entry.Sig, want.Sig)
		}
	}
	t.Cleanup(func() { siteHitCheck = nil })
	return func() int { return n }
}

// TestCallSiteAgreesWithLocator: a call site's record never answers other
// than the function locator would, across the differential programs and
// the recursive rows under jit, spec and a tiered engine, and the
// recursive rows are answered by it.
func TestCallSiteAgreesWithLocator(t *testing.T) {
	hits := checkSiteHits(t)
	tiers := map[string]Options{
		"jit":  {Tier: TierJIT},
		"spec": {Tier: TierSpec},
		"prod": {Tier: TierJIT, Tiered: true},
	}
	for name, opts := range tiers {
		for _, p := range diffPrograms {
			opts.Seed = 12345
			e, ref := New(opts), New(Options{Tier: TierInterp, Seed: opts.Seed})
			for _, en := range []*Engine{e, ref} {
				if err := en.Define(p.src); err != nil {
					t.Fatal(err)
				}
			}
			e.Precompile()
			args := make([]*mat.Value, len(p.args))
			for i, a := range p.args {
				args[i] = mat.Scalar(a)
			}
			for k := 0; k < DefaultTierThreshold+2; k++ {
				want, err := ref.Call("f", args, 1)
				if err != nil {
					t.Fatal(err)
				}
				outs, err := e.Call("f", args, 1)
				if err != nil {
					t.Fatalf("%s/%s: %v", p.name, name, err)
				}
				if !sameBitsAnyKind(want[0], outs[0]) {
					t.Fatalf("%s/%s call %d: got %s, want %s", p.name, name, k, outs[0], want[0])
				}
				e.Drain()
			}
			e.Close()
		}
		for _, p := range []struct {
			src, fn string
			args    []float64
		}{{fibonacciSrc, "fibonacci", []float64{12}}, {ackermannSrc, "ackermann", []float64{2, 3}}} {
			before := hits()
			e := New(opts)
			warmUp(t, e, p.src, p.fn, p.args...)
			e.Close()
			if hits() == before {
				t.Errorf("%s/%s: no call was answered at its site", p.fn, name)
			}
		}
		// h's first call, from outside, compiles h for n = 10 exactly; a site
		// in drive whose loop reaches 10 must see that entry win there.
		e := New(opts)
		if err := e.Define(`
function y = h(n)
  if n < 1
    y = 0;
  else
    y = h(n - 1) + n;
  end
end
function s = drive(k)
  s = 0;
  for i = 1:k
    s = s + h(i);
  end
end`); err != nil {
			t.Fatal(err)
		}
		e.Precompile()
		for _, c := range []struct {
			fn   string
			arg  float64
			want float64
		}{{"h", 10, 55}, {"drive", 15, 680}, {"drive", 15, 680}} {
			outs, err := e.Call(c.fn, []*mat.Value{mat.Scalar(c.arg)}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := outs[0].MustScalar(); got != c.want {
				t.Fatalf("%s: %s(%v) = %v, want %v", name, c.fn, c.arg, got, c.want)
			}
		}
		e.Close()
	}
}

// TestCallSiteTakesTheNewState: after Define, Replace (a tier-up) or an
// insert, the next call through a site resolves in the state the name
// holds then, not the one its record was made in. g draws from the
// generator, so f takes no return summary from it and keeps its code, and
// its sites, across g's redefinition.
func TestCallSiteTakesTheNewState(t *testing.T) {
	hits := checkSiteHits(t)
	const caller = `
function s = f(n)
  s = 0;
  for k = 1:n
    s = s + g(k);
  end
end`
	call := func(e *Engine, want float64) {
		t.Helper()
		outs, err := e.Call("f", []*mat.Value{mat.Scalar(10)}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := outs[0].MustScalar(); got != want {
			t.Fatalf("f(10) = %v, want %v", got, want)
		}
		e.Drain()
	}
	for name, opts := range map[string]Options{
		"jit":  {Tier: TierJIT, Ablation: AblateInlining},
		"spec": {Tier: TierSpec, Ablation: AblateInlining},
		"prod": {Tier: TierJIT, Tiered: true, Ablation: AblateInlining},
	} {
		e := New(opts)
		if err := e.Define(caller + "\nfunction y = g(k)\n  y = k + 1 + 0*rand;\nend"); err != nil {
			t.Fatal(err)
		}
		e.Precompile()
		for i := 0; i < 2*DefaultTierThreshold; i++ {
			call(e, 65)
		}
		before := hits()
		call(e, 65)
		if hits() == before {
			t.Fatalf("%s: the warm loop's calls of g were not answered at their site", name)
		}
		// A redefinition of the callee only: f keeps its code and its site.
		code := e.Repo().Entries("f")
		if err := e.Define("function y = g(k)\n  y = 2*k + 0*rand;\nend"); err != nil {
			t.Fatal(err)
		}
		e.Precompile()
		call(e, 110)
		if now := e.Repo().Entries("f"); len(now) != len(code) || now[0] != code[0] {
			t.Fatalf("%s: redefining g replaced f's code", name)
		}
		for i := 0; i < 2*DefaultTierThreshold; i++ {
			call(e, 110)
		}
		before = hits()
		call(e, 110)
		if hits() == before {
			t.Fatalf("%s: the site was not refilled after g's redefinition", name)
		}
		// A new entry for g (a real argument) moves the state again.
		if _, err := e.Call("g", []*mat.Value{mat.Scalar(0.5)}, 1); err != nil {
			t.Fatal(err)
		}
		call(e, 110)
		e.Close()
	}
}

// TestCallSiteConcurrentSessions: sessions of one library share compiled
// code and so its call sites. While four of them call through the same
// sites, each also brings h new signatures, so the capped repository
// keeps inserting and evicting under the records; every answer stays the
// interpreter's.
func TestCallSiteConcurrentSessions(t *testing.T) {
	lib := NewLibrary(LibraryOptions{AsyncCompile: true, RepoMaxEntries: 3})
	defer lib.Close()
	const src = `
function y = h(n)
  if n < 1
    y = 0;
  else
    y = h(n - 1) + n;
  end
end
function s = drive(k)
  s = 0;
  for i = 1:k
    s = s + h(i);
  end
end`
	seed := New(Options{Tier: TierJIT, AsyncCompile: true, Library: lib})
	if err := seed.Define(src); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := New(Options{Tier: TierJIT, AsyncCompile: true, Library: lib})
			for i := 0; i < 40; i++ {
				k := float64(5 + (g+i)%7)
				outs, err := e.Call("drive", []*mat.Value{mat.Scalar(k)}, 1)
				if err != nil {
					t.Error(err)
					return
				}
				if got, want := outs[0].MustScalar(), k*(k+1)*(k+2)/6; got != want {
					t.Errorf("drive(%v) = %v, want %v", k, got, want)
					return
				}
				x, want := float64(g)+0.5, 0.0
				for n := x; n >= 1; n-- {
					want += n
				}
				if outs, err = e.Call("h", []*mat.Value{mat.Scalar(x)}, 1); err != nil || outs[0].MustScalar() != want {
					t.Errorf("h(%v) = %v, %v; want %v", x, outs, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
