package core_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/repo"
	"repro/internal/telemetry"
	"repro/internal/types"
	"repro/internal/vm/vmtest"
)

// hotSpecRows are the Table 1 programs whose speculated signature holds a
// scalar parameter in an F register (real ⊤) while their arguments are
// integers, with the classes the replacement is compiled for. Every other
// program's speculated parameters are ⊤, arrays or already int (mandel),
// or it has none.
var hotSpecRows = []struct {
	name string
	want []types.Intrinsic
}{
	{"ackermann", []types.Intrinsic{types.IInt, types.IInt}},
	{"fibonacci", []types.Intrinsic{types.IInt}},
	{"galrkn", []types.Intrinsic{types.IInt}},
	{"adapt", []types.Intrinsic{types.IInt, types.IInt, types.IReal}},
}

func hotEngine(t *testing.T, opts core.Options, src string) *core.Engine {
	t.Helper()
	e := core.New(opts)
	if err := e.Define(src); err != nil {
		t.Fatal(err)
	}
	e.Precompile()
	e.Drain()
	return e
}

func hotCall(t *testing.T, e *core.Engine, fn string, args []*mat.Value) *mat.Value {
	t.Helper()
	outs, err := e.Call(fn, args, 1)
	if err != nil {
		t.Fatalf("%s: %v", fn, err)
	}
	return outs[0]
}

// sameBits compares kind, shape and the bits of every element.
func sameBits(a, b *mat.Value) bool {
	if a.Kind() != b.Kind() || a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i, x := range a.Re() {
		if math.Float64bits(x) != math.Float64bits(b.Re()[i]) {
			return false
		}
	}
	return true
}

// TestHotSpeculationTiersUp: a speculative entry that calls from outside
// compiled code keep reaching with integers where it holds reals is
// replaced, at the tier-up threshold, by one compiled at QualityOpt for
// the classes they bring — in place, so the recursion's own calls are
// served by the replacement too. A synchronous engine runs the crossing
// call on the new entry; a background one after the job lands (Drain).
// Before the threshold nothing changes, and the counting allocates
// nothing. The paper's measurements make two or three calls and never
// get here.
func TestHotSpeculationTiersUp(t *testing.T) {
	counter := vmtest.CountInstrs(t)
	threshold := core.DefaultTierThreshold
	for _, row := range hotSpecRows {
		b := bench.ByName(row.name)
		src, args := b.Source(bench.Small), b.Args(bench.Small)
		wantSig := make(types.Signature, len(row.want))
		for i, c := range row.want {
			wantSig[i] = types.ScalarOf(c, types.RangeTop)
		}

		ref := hotEngine(t, core.Options{Tier: core.TierInterp}, src)
		want := hotCall(t, ref, b.Fn, args)
		ref.Close()
		jit := hotEngine(t, core.Options{Tier: core.TierJIT}, src)
		for i := 0; i < 3; i++ {
			hotCall(t, jit, b.Fn, args)
		}
		counter.Reset()
		jitOut := hotCall(t, jit, b.Fn, args)
		jitInstrs := counter.N()
		jit.Close()
		// Replaced, fibonacci answers in the class it computes in, like the
		// JIT's entry; everything else keeps the interpreter's bits.
		hotWant := want
		if row.name == "fibonacci" {
			if jitOut.Kind() == want.Kind() || jitOut.MustScalar() != want.MustScalar() {
				t.Fatalf("fibonacci/jit answered %v %v, interpreter %v %v", jitOut.Kind(), jitOut, want.Kind(), want)
			}
			hotWant = jitOut
		}

		modes := []string{"sync", "async"}
		if row.name == "fibonacci" {
			modes = append(modes, "landed-mid-call")
		}
		for _, mode := range modes {
			async, midCall := mode != "sync", mode == "landed-mid-call"
			t.Run(row.name+"/"+mode, func(t *testing.T) {
				journal := telemetry.NewJournal(0)
				opts := core.Options{Tier: core.TierSpec, Journal: journal}
				var lib *core.Library
				if async {
					// One worker, so that holding it holds the replacement.
					lib = core.NewLibrary(core.LibraryOptions{AsyncCompile: true, CompileWorkers: 1, Journal: journal})
					defer lib.Close()
					opts.AsyncCompile, opts.Library = true, lib
				}
				e := hotEngine(t, opts, src)
				defer e.Close()
				entries := e.Repo().Entries(b.Fn)
				if len(entries) != 1 || !entries[0].Speculative {
					t.Fatalf("after Precompile: %v, want one speculative entry", entries)
				}
				spec := entries[0]
				before := e.Repo().Stats()

				for i := 1; i < threshold; i++ {
					if got := hotCall(t, e, b.Fn, args); !sameBits(got, want) {
						t.Fatalf("call %d: %v %v, interpreter %v %v", i, got.Kind(), got, want.Kind(), want)
					}
				}
				e.Drain()
				if entries := e.Repo().Entries(b.Fn); len(entries) != 1 || entries[0] != spec {
					t.Fatalf("below the threshold the entries moved: %v", entries)
				}
				if st := e.Repo().Stats(); st.Replaces != before.Replaces || st.Inserts != before.Inserts {
					t.Fatalf("below the threshold: %+v -> %+v", before, st)
				}

				// A background replacement waits for the held worker, so the
				// old entry serves the whole crossing call. Released from
				// inside the call, it lands before the call's first block
				// runs, and fibonacci's recursive calls, which go through the
				// repository, are served by it.
				var release func()
				crossWant := hotWant
				if async {
					release = lib.HoldPool()
					crossWant = want
				}
				landed := false
				if midCall {
					counter.OnNextBlock(func() {
						landed = true
						release()
						e.Drain()
					})
					crossWant = hotWant
				}
				got := hotCall(t, e, b.Fn, args)
				if async && !landed {
					release()
				}
				if midCall && !landed {
					t.Fatal("the crossing call ran no compiled block")
				}
				if !sameBits(got, crossWant) {
					t.Fatalf("the crossing call answered %v %v, want %v %v", got.Kind(), got, crossWant.Kind(), crossWant)
				}
				e.Drain()
				after := e.Repo().Stats()
				if after.Replaces != before.Replaces+1 || after.Inserts != before.Inserts {
					t.Fatalf("at the threshold: %+v -> %+v, want one replace and no insert", before, after)
				}
				entries = e.Repo().Entries(b.Fn)
				if len(entries) != 1 {
					t.Fatalf("%d entries after the replacement, want 1: %v", len(entries), entries)
				}
				served := entries[0]
				if served.Speculative || served.Quality != repo.QualityOpt || served.Sig.Key() != wantSig.Key() {
					t.Fatalf("served %v (speculative %v, quality %v), want the optimised %v", served.Sig, served.Speculative, served.Quality, wantSig)
				}
				if served.Hits() < spec.Hits() {
					t.Errorf("hits %d, the speculative entry had %d", served.Hits(), spec.Hits())
				}
				if n := e.ProfileStats().Promotions; n != 1 {
					t.Errorf("%d promotions counted, want 1", n)
				}
				var promoted []telemetry.Event
				for _, ev := range journal.Events() {
					if ev.Kind == telemetry.EventPromotion {
						promoted = append(promoted, ev)
					}
				}
				if len(promoted) != 1 || promoted[0].Func != b.Fn || promoted[0].Cause != "observed-classes" ||
					promoted[0].Sig != wantSig.Key() || !strings.Contains(promoted[0].Detail, spec.Sig.Key()) {
					t.Errorf("journaled promotions %+v, want one of %s with cause observed-classes naming %s", promoted, b.Fn, spec.Sig.Key())
				}

				// The replacement is this generation's optimised code: the
				// speculator is not asked again.
				e.Precompile()
				e.Drain()
				if entries := e.Repo().Entries(b.Fn); len(entries) != 1 || entries[0] != served || e.Repo().Stats().Inserts != after.Inserts {
					t.Fatalf("Precompile after the replacement: %v", entries)
				}

				counter.Reset()
				if got := hotCall(t, e, b.Fn, args); !sameBits(got, hotWant) {
					t.Fatalf("hot call: %v %v, want %v %v", got.Kind(), got, hotWant.Kind(), hotWant)
				}
				n := counter.N()
				t.Logf("hot %s/spec dispatches %d instructions, %s/jit %d", row.name, n, row.name, jitInstrs)
				if row.name == "ackermann" && n > jitInstrs {
					t.Errorf("hot ackermann/spec dispatches %d instructions, ackermann/jit %d", n, jitInstrs)
				}

				if row.name == "fibonacci" {
					// A fraction is no integer: it misses the replacement
					// and the JIT compiles for it.
					pre := e.Repo().Stats()
					got := hotCall(t, e, b.Fn, []*mat.Value{mat.Scalar(2.5)})
					e.Drain()
					if got.MustScalar() != 2 { // fibonacci(1.5) + fibonacci(0.5)
						t.Fatalf("fibonacci(2.5) = %v, want 2", got)
					}
					jitted := false
					for _, en := range e.Repo().Entries(b.Fn) {
						jitted = jitted || en.Quality == repo.QualityJIT && en.Sig[0].I == types.IReal
					}
					if post := e.Repo().Stats(); post.Misses == pre.Misses || post.Inserts == pre.Inserts || !jitted {
						t.Fatalf("fibonacci(2.5) was not JIT-compiled: %+v -> %+v, %v", pre, post, e.Repo().Entries(b.Fn))
					}
				}
			})
		}
	}

	// A redefinition landing while the replacement waits for a worker
	// drops it: the job publishes only over the entry it was for.
	t.Run("redefinition", func(t *testing.T) {
		lib := core.NewLibrary(core.LibraryOptions{AsyncCompile: true, CompileWorkers: 1})
		defer lib.Close()
		b := bench.ByName("fibonacci")
		args := b.Args(bench.Small)
		e := hotEngine(t, core.Options{Tier: core.TierSpec, AsyncCompile: true, Library: lib}, b.Source(bench.Small))
		release := lib.HoldPool()
		for i := 0; i < threshold; i++ {
			hotCall(t, e, b.Fn, args)
		}
		if err := e.Define("function f = fibonacci(n)\n  f = n * 2;\nend"); err != nil {
			t.Fatal(err)
		}
		release()
		lib.Drain()
		if st := e.Repo().Stats(); st.Replaces != 0 || e.ProfileStats().Promotions != 0 || len(e.Repo().Entries(b.Fn)) != 0 {
			t.Fatalf("the replacement landed over a redefinition: %+v, %v", st, e.Repo().Entries(b.Fn))
		}
		if got := hotCall(t, e, b.Fn, args); got.MustScalar() != 28 {
			t.Fatalf("fibonacci(14) = %v after the redefinition, want 28", got)
		}
	})

	// Counting is an atomic add: a boundary call below the threshold
	// allocates what the same code allocates as a non-speculative entry,
	// which nothing counts. The first call, AllocsPerRun's warm-up and its
	// runs stay below DefaultTierThreshold, so the counted entry serves
	// them all.
	t.Run("allocations", func(t *testing.T) {
		for _, row := range hotSpecRows {
			b := bench.ByName(row.name)
			args := b.Args(bench.Small)
			var allocs [2]float64
			for k := range allocs {
				e := hotEngine(t, core.Options{Tier: core.TierSpec}, b.Source(bench.Small))
				if k == 1 {
					spec := e.Repo().Entries(b.Fn)[0]
					e.Repo().Replace(b.Fn, spec, &repo.Entry{Sig: spec.Sig, Code: spec.Code, Quality: spec.Quality, Ret: spec.Ret, Deps: spec.Deps})
				}
				hotCall(t, e, b.Fn, args)
				allocs[k] = testing.AllocsPerRun(core.DefaultTierThreshold-3, func() { hotCall(t, e, b.Fn, args) })
				e.Close()
			}
			t.Logf("%s/spec: %.0f allocations per boundary call", row.name, allocs[0])
			if allocs[0] != allocs[1] {
				t.Errorf("%s: %v allocations per counted call, %v uncounted", row.name, allocs[0], allocs[1])
			}
		}
	})
}

// guardedPair: r's speculative entry is compiled against q's speculative
// return summary, a real in an F register.
const guardedPair = `
function y = q(x)
  if x == 0
    y = 1;
  else
    y = x + 1;
  end
  return;
end
function y = r(x)
  if x == 0
    y = 0;
  else
    y = q(x) * 2;
  end
end`

// TestReturnGuardMissRespecialises: once q's hot integer calls have
// replaced its speculative entry, q answers r's compiled call in an I
// register, and r's F fetch misses. r's entry is speculative, so instead
// of being retired to the interpreter it is replaced, at once, by one
// compiled for the classes that call brought; the missing call itself
// re-runs interpreted, as every guard miss does.
func TestReturnGuardMissRespecialises(t *testing.T) {
	journal := telemetry.NewJournal(0)
	e := hotEngine(t, core.Options{Tier: core.TierSpec, Journal: journal}, guardedPair)
	defer e.Close()
	ref := hotEngine(t, core.Options{Tier: core.TierInterp}, guardedPair)
	defer ref.Close()
	args := []*mat.Value{mat.IntScalar(3)}
	for i := 0; i < core.DefaultTierThreshold; i++ {
		hotCall(t, e, "q", args)
	}
	spec := e.Repo().Entries("r")[0]
	if !spec.Speculative || e.Repo().Entries("q")[0].Speculative {
		t.Fatalf("want q replaced and r speculative: q %v, r %v", e.Repo().Entries("q"), e.Repo().Entries("r"))
	}
	want := hotCall(t, ref, "r", args)
	for i := 0; i < 3; i++ {
		if got := hotCall(t, e, "r", args); !sameBits(got, want) {
			t.Fatalf("call %d: r(3) = %v %v, interpreter %v %v", i, got.Kind(), got, want.Kind(), want)
		}
	}
	entries := e.Repo().Entries("r")
	if len(entries) != 1 || entries[0].Speculative || entries[0].Quality != repo.QualityOpt || entries[0].Sig[0].I != types.IInt {
		t.Fatalf("r after its guard missed: %v, want one optimised entry for an integer", entries)
	}
	var deopts, promotions int
	for _, ev := range journal.Events() {
		switch {
		case ev.Kind == telemetry.EventDeopt && ev.Func == "r" && ev.Cause == telemetry.CauseReturnGuard:
			deopts++
		case ev.Kind == telemetry.EventPromotion && ev.Func == "r":
			if ev.Cause != telemetry.CauseReturnGuard || !strings.Contains(ev.Detail, spec.Sig.Key()) {
				t.Errorf("r's promotion %+v, want cause %s naming %s", ev, telemetry.CauseReturnGuard, spec.Sig.Key())
			}
			promotions++
		}
	}
	if deopts != 1 || promotions != 1 {
		t.Fatalf("%d return-guard deopts and %d promotions of r, want one each: %v", deopts, promotions, journal.Events())
	}
	if n := e.ProfileStats().Promotions; n != 2 {
		t.Errorf("%d promotions counted, want q's and r's", n)
	}
}
