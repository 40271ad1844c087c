package core

import (
	"testing"

	"repro/internal/mat"
	"repro/internal/persist"
	"repro/internal/repo"
)

// The callers below reach g three ways: f inlines it, h inlines f (and
// with it g), and r — whose callee q is kept out of line by its return
// statement — takes q's return summary.
const (
	depCallersSrc = `
function y = f(x)
  y = g(x) + 1;
end
function y = h(x)
  y = f(x) * 2;
end`
	depGOld = "function y = g(x)\n  y = x * 2;\nend"
	depGNew = "function y = g(x)\n  y = x * 100;\nend"
	depRSrc = `
function y = r(x)
  y = q(x) + 1;
end`
	depQOld = "function y = q(x)\n  y = x * 2;\n  return;\nend"
	depQNew = "function y = q(x)\n  y = x * 100;\n  return;\nend"
)

func callNum(t *testing.T, e *Engine, fn string, x float64) float64 {
	t.Helper()
	outs, err := e.Call(fn, []*mat.Value{mat.Scalar(x)}, 1)
	if err != nil {
		t.Fatalf("%s(%g): %v", fn, x, err)
	}
	return outs[0].MustScalar()
}

// warm calls fn until every tier has compiled it (tiered execution
// promotes after DefaultTierThreshold calls).
func warm(t *testing.T, e *Engine, fn string, x, want float64) {
	t.Helper()
	e.Precompile()
	for i := 0; i < 2*DefaultTierThreshold; i++ {
		if got := callNum(t, e, fn, x); got != want {
			t.Fatalf("%s(%g) = %g, want %g", fn, x, got, want)
		}
		e.Drain()
	}
}

// TestRedefiningCalleeInvalidatesCallers is the regression test for
// stale callers: f(x) = g(x)+1 compiled with g inlined kept returning 7
// for f(3) after g was redefined, under jit and spec, because only g's
// own entries were invalidated. Every tier must follow the interpreter,
// for a caller that inlined the callee, for a caller of that caller, and
// for a caller that only took the callee's return summary.
func TestRedefiningCalleeInvalidatesCallers(t *testing.T) {
	tiers := []struct {
		name string
		opts Options
	}{
		{"interp", Options{Tier: TierInterp}},
		{"jit", Options{Tier: TierJIT}},
		{"spec", Options{Tier: TierSpec}},
		{"tiered", Options{Tier: TierJIT, Tiered: true}},
	}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			e := New(tier.opts)
			defer e.Close()
			for _, src := range []string{depCallersSrc, depGOld, depRSrc, depQOld} {
				if err := e.Define(src); err != nil {
					t.Fatal(err)
				}
			}
			// q first, so r is compiled against q's summary.
			warm(t, e, "q", 3, 6)
			warm(t, e, "f", 3, 7)
			warm(t, e, "h", 3, 14)
			warm(t, e, "r", 3, 7)
			if tier.name == "jit" {
				if !hasDep(e.Repo().Entries("f"), "g") || !hasDep(e.Repo().Entries("h"), "g") {
					t.Fatal("callers did not record the inlined callee as a dependency")
				}
				if !hasDep(e.Repo().Entries("r"), "q") {
					t.Fatal("caller did not record the summarised callee as a dependency")
				}
			}

			for _, src := range []string{depGNew, depQNew} {
				if err := e.Define(src); err != nil {
					t.Fatal(err)
				}
			}
			for _, fn := range []string{"f", "h", "r"} {
				if n := len(e.Repo().Entries(fn)); n != 0 {
					t.Errorf("%d entries of %s survived the redefinition of its callee", n, fn)
				}
			}
			warm(t, e, "f", 3, 301)
			warm(t, e, "h", 3, 602)
			warm(t, e, "r", 3, 301)
		})
	}
}

func hasDep(entries []*repo.Entry, name string) bool {
	for _, e := range entries {
		for _, d := range e.Deps {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}

// TestRedefiningCalleeAcrossSessions: with a shared library the
// redefinition comes from another session, and the first session's next
// call must see it.
func TestRedefiningCalleeAcrossSessions(t *testing.T) {
	lib := NewLibrary(LibraryOptions{})
	defer lib.Close()
	a := New(Options{Tier: TierJIT, Library: lib})
	b := New(Options{Tier: TierJIT, Library: lib})
	for _, src := range []string{depCallersSrc, depGOld} {
		if err := a.Define(src); err != nil {
			t.Fatal(err)
		}
	}
	warm(t, a, "h", 3, 14)
	warm(t, b, "f", 3, 7)
	if err := b.Define(depGNew); err != nil {
		t.Fatal(err)
	}
	if got := callNum(t, a, "h", 3); got != 602 {
		t.Fatalf("session a still runs the old callee: h(3) = %g, want 602", got)
	}
	if got := callNum(t, b, "f", 3); got != 301 {
		t.Fatalf("f(3) = %g, want 301", got)
	}
}

// TestSnapshotCannotResurrectStaleCallers: a snapshot taken before the
// callee changed carries f's code with g inlined. Loaded into a library
// that already has the new g — and, the other way round, loaded whole and
// then followed by the redefinition — f must never answer from it.
func TestSnapshotCannotResurrectStaleCallers(t *testing.T) {
	old := New(Options{Tier: TierJIT})
	for _, src := range []string{depCallersSrc, depGOld} {
		if err := old.Define(src); err != nil {
			t.Fatal(err)
		}
	}
	warm(t, old, "h", 3, 14)
	snap, err := persist.Decode(persist.Encode(old.Library().ExportSnapshot()))
	if err != nil {
		t.Fatal(err)
	}
	old.Close()

	t.Run("live-definition-wins", func(t *testing.T) {
		lib := NewLibrary(LibraryOptions{})
		defer lib.Close()
		e := New(Options{Tier: TierJIT, Library: lib})
		if err := e.Define(depGNew); err != nil {
			t.Fatal(err)
		}
		st := lib.LoadSnapshot(snap)
		if st.LoadedFunctions != 2 { // f and h; g is rejected for the live one
			t.Fatalf("load stats %+v", st)
		}
		for _, fn := range []string{"f", "h"} {
			if n := len(lib.Repo().Entries(fn)); n != 0 {
				t.Errorf("%d entries of %s compiled against the old g were loaded", n, fn)
			}
		}
		if got := callNum(t, e, "h", 3); got != 602 {
			t.Fatalf("h(3) = %g, want 602", got)
		}
	})

	t.Run("redefine-after-load", func(t *testing.T) {
		lib := NewLibrary(LibraryOptions{})
		defer lib.Close()
		e := New(Options{Tier: TierJIT, Library: lib})
		st := lib.LoadSnapshot(snap)
		if st.LoadedEntries == 0 || st.RejectedEntries != 0 {
			t.Fatalf("load stats %+v", st)
		}
		if got := callNum(t, e, "h", 3); got != 14 {
			t.Fatalf("warm h(3) = %g, want 14", got)
		}
		if lib.Repo().Stats().Inserts != 0 {
			t.Fatal("the warm call compiled")
		}
		if err := e.Define(depGNew); err != nil {
			t.Fatal(err)
		}
		if got := callNum(t, e, "h", 3); got != 602 {
			t.Fatalf("h(3) = %g after redefining g, want 602", got)
		}
	})
}

// TestReplicationCannotResurrectStaleCallers: a peer's record of f,
// compiled against the old g, arrives at a node whose g has moved on.
func TestReplicationCannotResurrectStaleCallers(t *testing.T) {
	origin := New(Options{Tier: TierJIT})
	defer origin.Close()
	for _, src := range []string{depCallersSrc, depGOld} {
		if err := origin.Define(src); err != nil {
			t.Fatal(err)
		}
	}
	warm(t, origin, "f", 3, 7)
	var fRec *persist.EntryRecord
	for _, rec := range origin.Library().ExportRecords("n1", false) {
		if rec.Func == "f" && rec.Entry != nil {
			var err error
			if fRec, err = persist.DecodeRecord(persist.EncodeRecord(&rec)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if fRec == nil || len(fRec.Entry.Deps) == 0 {
		t.Fatalf("no replication record of f with dependencies: %+v", fRec)
	}

	lib := NewLibrary(LibraryOptions{})
	defer lib.Close()
	e := New(Options{Tier: TierJIT, Library: lib})
	for _, src := range []string{depCallersSrc, depGNew} {
		if err := e.Define(src); err != nil {
			t.Fatal(err)
		}
	}
	if ok, why := lib.ApplyReplicated(fRec); ok || why != "stale-dependency" {
		t.Fatalf("a record compiled against another g: applied=%v (%s), want refused as stale-dependency", ok, why)
	}
	if got := callNum(t, e, "f", 3); got != 301 {
		t.Fatalf("f(3) = %g, want 301", got)
	}
	if s := lib.Repo().Stats(); s.Replicated != 0 {
		t.Fatalf("stats %+v", s)
	}
}
