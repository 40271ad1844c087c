package repo

import (
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/types"
)

func define(r *Repository, name string, hash uint64) {
	r.Define(&ast.Function{Name: name}, hash)
}

func dependent(sig types.Signature, deps ...Dep) *Entry {
	return &Entry{Sig: sig, Quality: QualityJIT, Deps: deps}
}

// TestDefinePublishesOneState: definition, generation and entry list
// change together, and readers reach all three through one load.
func TestDefinePublishesOneState(t *testing.T) {
	r := New()
	if st := r.State("f"); st.Fn != nil || st.Gen != 0 || len(st.Entries) != 0 {
		t.Fatalf("unknown name: %+v", st)
	}
	define(r, "f", 11)
	sig := types.Signature{intScalar(1)}
	r.Insert("f", &Entry{Sig: sig, Quality: QualityJIT})
	before := r.State("f")
	if before.Fn == nil || before.SrcHash != 11 || before.Gen != 1 || len(before.Entries) != 1 {
		t.Fatalf("state after define+insert: %+v", before)
	}
	define(r, "f", 12)
	after := r.State("f")
	if after.SrcHash != 12 || after.Gen != 2 || len(after.Entries) != 0 {
		t.Fatalf("state after redefinition: %+v", after)
	}
	// The state a reader already holds is never modified.
	if before.SrcHash != 11 || before.Gen != 1 || len(before.Entries) != 1 {
		t.Fatalf("a published state changed under its reader: %+v", before)
	}
	// An insert for the old generation is dropped.
	if r.InsertAt("f", &Entry{Sig: sig, Quality: QualityJIT}, before.Gen) {
		t.Fatal("stale-generation insert was accepted")
	}
}

// TestInvalidateReachesDependentsTransitively: h inlined f inlined g.
func TestInvalidateReachesDependentsTransitively(t *testing.T) {
	r := New()
	for i, name := range []string{"g", "f", "h", "other"} {
		define(r, name, uint64(100+i))
	}
	sig := types.Signature{intScalar(1)}
	r.Insert("g", dependent(sig))
	r.Insert("f", dependent(sig, Dep{"g", 100}))
	r.Insert("h", dependent(sig, Dep{"f", 101}))
	r.Insert("other", dependent(sig))
	gens := map[string]uint64{}
	for _, name := range []string{"g", "f", "h", "other"} {
		gens[name] = r.Generation(name)
	}

	define(r, "g", 200)
	for _, name := range []string{"g", "f", "h"} {
		if n := len(r.Entries(name)); n != 0 {
			t.Errorf("%s keeps %d entries after g was redefined", name, n)
		}
		if r.Generation(name) == gens[name] {
			t.Errorf("%s's generation did not advance: an in-flight compile against the old g could still publish", name)
		}
	}
	if len(r.Entries("other")) != 1 || r.Generation("other") != gens["other"] {
		t.Error("an unrelated function was invalidated")
	}
	if s := r.Stats(); s.Invalidation != 3 {
		t.Errorf("invalidations = %d, want 3", s.Invalidation)
	}
}

// TestPublishChecksDependencies: every way an entry gets in refuses code
// compiled against a definition that is no longer the registered one.
func TestPublishChecksDependencies(t *testing.T) {
	r := New()
	define(r, "f", 1)
	define(r, "g", 2)
	sig := types.Signature{intScalar(1)}
	stale := func() *Entry { return dependent(sig, Dep{"g", 99}) }
	unknown := func() *Entry { return dependent(sig, Dep{"nowhere", 1}) }

	if r.InsertAt("f", stale(), r.Generation("f")) || r.InsertAt("f", unknown(), r.Generation("f")) {
		t.Error("InsertAt accepted a stale dependency")
	}
	if r.InsertLoaded("f", stale()) {
		t.Error("InsertLoaded accepted a stale dependency")
	}
	if r.InsertReplicated("f", stale(), r.Generation("f"), "peer") {
		t.Error("InsertReplicated accepted a stale dependency")
	}
	good := dependent(sig, Dep{"g", 2})
	if !r.InsertAt("f", good, r.Generation("f")) {
		t.Fatal("a current dependency was refused")
	}
	if r.Replace("f", good, stale()) {
		t.Error("Replace accepted a stale dependency")
	}
	if n := len(r.Entries("f")); n != 1 {
		t.Fatalf("%d entries, want 1", n)
	}
	if s := r.Stats(); s.StaleDrops != 4 || s.ReplicatedDrops != 1 {
		t.Errorf("stats %+v", s)
	}
}

// TestLookupNeverSeesATornState: readers run the lock-free locator while
// a writer redefines and republishes. Every entry is stamped with the
// generation it was inserted at; a reader must never find an entry of
// another generation in the state it loaded. Run with -race.
func TestLookupNeverSeesATornState(t *testing.T) {
	r := New()
	define(r, "f", 0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := r.State("f")
				for _, e := range st.Entries {
					if e.Sig[0].R.Lo != float64(st.Gen) {
						t.Errorf("generation %d serves an entry inserted at generation %g", st.Gen, e.Sig[0].R.Lo)
						return
					}
				}
				if e := r.LookupIn(st, types.Signature{intScalar(float64(st.Gen))}); e != nil && e.Sig[0].R.Lo != float64(st.Gen) {
					t.Errorf("lookup at generation %d hit generation %g", st.Gen, e.Sig[0].R.Lo)
					return
				}
			}
		}()
	}
	for i := 1; i <= 2000; i++ {
		define(r, "f", uint64(i))
		gen := r.Generation("f")
		r.InsertAt("f", &Entry{Sig: types.Signature{intScalar(float64(gen))}, Quality: QualityJIT}, gen)
	}
	close(stop)
	wg.Wait()
	if s := r.Stats(); s.Lookups != s.Hits+s.Misses {
		t.Errorf("lock-free counters disagree: %+v", s)
	}
}

// TestLookupIsAllocationFree pins the hit path's cost.
func TestLookupIsAllocationFree(t *testing.T) {
	r := New()
	sig := types.Signature{intScalar(1), types.ScalarOf(types.IReal, types.RangeTop)}
	r.Insert("f", &Entry{Sig: sig, Quality: QualityJIT})
	if n := testing.AllocsPerRun(100, func() {
		if r.Lookup("f", sig) == nil {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Errorf("Lookup allocates %.1f times per hit", n)
	}
}
