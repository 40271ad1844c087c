package repo

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/types"
)

func intScalar(v float64) types.Type { return types.ScalarOf(types.IInt, types.Const(v)) }

func TestLookupSafety(t *testing.T) {
	r := New()
	exact := types.Signature{intScalar(20)}
	r.Insert("f", &Entry{Sig: exact, Quality: QualityJIT})

	// exact hit
	if e := r.Lookup("f", types.Signature{intScalar(20)}); e == nil {
		t.Fatal("exact signature must hit")
	}
	// different constant: unsafe, miss
	if e := r.Lookup("f", types.Signature{intScalar(19)}); e != nil {
		t.Fatal("f(19) must not match code specialized for 20")
	}
	// arity mismatch: miss
	if e := r.Lookup("f", types.Signature{intScalar(20), intScalar(1)}); e != nil {
		t.Fatal("arity mismatch must miss")
	}
	// unknown function: miss
	if e := r.Lookup("g", types.Signature{intScalar(20)}); e != nil {
		t.Fatal("unknown function must miss")
	}
}

func TestLocatorPrefersClosest(t *testing.T) {
	r := New()
	widened := types.Signature{types.ScalarOf(types.IInt, types.RangeTop)}
	generic := types.Signature{types.Top}
	exact := types.Signature{intScalar(20)}
	r.Insert("f", &Entry{Sig: generic, Quality: QualityJIT})
	r.Insert("f", &Entry{Sig: widened, Quality: QualityJIT})
	r.Insert("f", &Entry{Sig: exact, Quality: QualityJIT})

	got := r.Lookup("f", types.Signature{intScalar(20)})
	if got == nil || !got.Sig.Safe(types.Signature{intScalar(20)}) {
		t.Fatal("lookup failed")
	}
	if got.Sig.Key() != exact.Key() {
		t.Errorf("locator picked %s, want the exact entry", got.Sig)
	}
	// a different constant should pick the widened version over generic
	got = r.Lookup("f", types.Signature{intScalar(7)})
	if got == nil || got.Sig.Key() != widened.Key() {
		t.Errorf("locator picked %v, want widened int entry", got)
	}
	// a matrix argument only fits the generic entry
	got = r.Lookup("f", types.Signature{types.OfValue(mat.New(3, 3))})
	if got == nil || got.Sig.Key() != generic.Key() {
		t.Errorf("locator picked %v, want generic entry", got)
	}
}

func TestQualityBreaksTies(t *testing.T) {
	r := New()
	sig := types.Signature{types.ScalarOf(types.IInt, types.RangeTop)}
	r.Insert("f", &Entry{Sig: sig, Quality: QualityJIT})
	r.Insert("f", &Entry{Sig: sig, Quality: QualityOpt})
	got := r.Lookup("f", types.Signature{intScalar(5)})
	if got == nil || got.Quality != QualityOpt {
		t.Errorf("locator must prefer optimized code on signature ties, got %v", got)
	}
}

func TestInvalidate(t *testing.T) {
	r := New()
	sig := types.Signature{types.Top}
	r.Insert("f", &Entry{Sig: sig, Quality: QualityJIT})
	r.Invalidate("f")
	if e := r.Lookup("f", types.Signature{intScalar(1)}); e != nil {
		t.Fatal("entries must be dropped after invalidation")
	}
	st := r.Stats()
	if st.Invalidation != 1 {
		t.Errorf("invalidation count %d", st.Invalidation)
	}
}

func TestWideningTrigger(t *testing.T) {
	r := New()
	r.Insert("f", &Entry{Sig: types.Signature{intScalar(20)}, Quality: QualityJIT})
	if !r.SameKindsDifferentDetail("f", types.Signature{intScalar(19)}) {
		t.Error("same kinds, different constants must trigger widening")
	}
	if r.SameKindsDifferentDetail("f", types.Signature{types.ScalarOf(types.IReal, types.Const(19))}) {
		t.Error("different intrinsic kind must not trigger widening")
	}
	if r.SameKindsDifferentDetail("g", types.Signature{intScalar(19)}) {
		t.Error("unknown function must not trigger widening")
	}
}

func TestStatsCounting(t *testing.T) {
	r := New()
	sig := types.Signature{types.ScalarOf(types.IInt, types.RangeTop)}
	r.Insert("f", &Entry{Sig: sig, Quality: QualityOpt, Speculative: true})
	r.Lookup("f", types.Signature{intScalar(3)}) // hit, speculative
	r.Lookup("g", types.Signature{intScalar(3)}) // miss
	st := r.Stats()
	if st.Lookups != 2 || st.Hits != 1 || st.Misses != 1 || st.SpecHits != 1 || st.Inserts != 1 {
		t.Errorf("stats: %+v", st)
	}
	r.ResetStats()
	if r.Stats().Lookups != 0 {
		t.Error("ResetStats")
	}
}

// TestGenerationDropsStaleInsert models the invalidation-vs-in-flight
// race of the async compilation service: a compile job that captured
// its generation before Invalidate must not resurrect old code by
// publishing after it.
func TestGenerationDropsStaleInsert(t *testing.T) {
	r := New()
	sig := types.Signature{intScalar(20)}
	gen := r.Generation("f")

	// Source changes while the job is (conceptually) compiling.
	r.Invalidate("f")

	if ok := r.InsertAt("f", &Entry{Sig: sig, Quality: QualityJIT}, gen); ok {
		t.Fatal("stale job publish must be dropped after Invalidate")
	}
	if e := r.Lookup("f", sig); e != nil {
		t.Fatal("stale entry resurrected")
	}
	st := r.Stats()
	if st.StaleDrops != 1 || st.Inserts != 0 {
		t.Errorf("stats: %+v, want StaleDrops=1 Inserts=0", st)
	}

	// A job enqueued at the new generation publishes normally.
	gen2 := r.Generation("f")
	if gen2 == gen {
		t.Fatal("Invalidate must advance the generation")
	}
	if ok := r.InsertAt("f", &Entry{Sig: sig, Quality: QualityJIT}, gen2); !ok {
		t.Fatal("current-generation publish must land")
	}
	if e := r.Lookup("f", sig); e == nil {
		t.Fatal("fresh entry missing")
	}
}

// TestInvalidateAdvancesGenerationWithoutEntries: the generation must
// move even before any entry exists — a job can be in flight for a
// function that was never compiled yet.
func TestInvalidateAdvancesGenerationWithoutEntries(t *testing.T) {
	r := New()
	gen := r.Generation("f")
	r.Invalidate("f")
	if r.Generation("f") == gen {
		t.Fatal("Invalidate on an empty function must still advance the generation")
	}
	if st := r.Stats(); st.Invalidation != 0 {
		t.Errorf("empty invalidate must not count as Invalidation: %+v", st)
	}
}

// TestReplace: the upgrade path swaps entries, carries hits over, and
// refuses to resurrect after invalidation.
func TestReplace(t *testing.T) {
	r := New()
	sig := types.Signature{types.ScalarOf(types.IInt, types.RangeTop)}
	old := &Entry{Sig: sig, Quality: QualityJIT}
	r.Insert("f", old)
	r.Lookup("f", types.Signature{intScalar(1)})
	r.Lookup("f", types.Signature{intScalar(2)})

	repl := &Entry{Sig: sig, Quality: QualityOpt}
	if !r.Replace("f", old, repl) {
		t.Fatal("Replace of a live entry must succeed")
	}
	got := r.Lookup("f", types.Signature{intScalar(3)})
	if got != repl || got.Quality != QualityOpt {
		t.Fatalf("lookup after Replace returned %+v", got)
	}
	if got.Hits() != 3 { // 2 carried over + this lookup
		t.Errorf("hits not carried over: %d", got.Hits())
	}
	if st := r.Stats(); st.Inserts != 1 || st.Replaces != 1 {
		t.Errorf("Replace must count under Replaces, not Inserts: %+v", st)
	}

	// Invalidation wins over a racing upgrade.
	r.Invalidate("f")
	if r.Replace("f", repl, &Entry{Sig: sig, Quality: QualityOpt}) {
		t.Fatal("Replace after Invalidate must fail")
	}
	if e := r.Lookup("f", types.Signature{intScalar(4)}); e != nil {
		t.Fatal("Replace resurrected an invalidated entry")
	}
	if st := r.Stats(); st.Replaces != 1 {
		t.Errorf("failed Replace must not count: %+v", st)
	}
}

// TestConcurrentLookupEntriesHits is the regression test for the latent
// race where Lookup mutated Entry.Hits under the repository lock while
// Entries handed out the same pointers to lock-free readers. Run with
// -race.
func TestConcurrentLookupEntriesHits(t *testing.T) {
	r := New()
	sig := types.Signature{types.ScalarOf(types.IInt, types.RangeTop)}
	r.Insert("f", &Entry{Sig: sig, Quality: QualityJIT})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Lookup("f", types.Signature{intScalar(float64(i))})
				for _, e := range r.Entries("f") {
					_ = e.Hits()
					_ = e.Quality
				}
			}
		}()
	}
	wg.Wait()
	entries := r.Entries("f")
	if len(entries) != 1 || entries[0].Hits() != 8*200 {
		t.Fatalf("hits = %d, want %d", entries[0].Hits(), 8*200)
	}
}

// TestBoundedEviction pins the daemon-safety cap: a bounded repository
// never holds more than maxPerFunc entries per function, evicting the
// least-hit entry (oldest on ties), and counts evictions.
func TestBoundedEviction(t *testing.T) {
	r := NewBounded(3)
	mk := func(v float64) *Entry {
		return &Entry{Sig: types.Signature{intScalar(v)}, Quality: QualityJIT}
	}
	hot := mk(1)
	r.Insert("f", hot)
	// Serve hits so the first entry is the most valuable.
	for i := 0; i < 5; i++ {
		if e := r.Lookup("f", types.Signature{intScalar(1)}); e != hot {
			t.Fatal("expected hit on the hot entry")
		}
	}
	warm := mk(2)
	r.Insert("f", warm)
	r.Lookup("f", types.Signature{intScalar(2)})
	cold := mk(3)
	r.Insert("f", cold) // at cap, zero hits
	// Next insert must evict cold (least hits), not the fresh entry.
	fresh := mk(4)
	r.Insert("f", fresh)
	entries := r.Entries("f")
	if len(entries) != 3 {
		t.Fatalf("want 3 entries at cap, got %d", len(entries))
	}
	for _, e := range entries {
		if e == cold {
			t.Fatal("least-hit entry survived eviction")
		}
	}
	for _, want := range []*Entry{hot, warm, fresh} {
		found := false
		for _, e := range entries {
			if e == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("entry %v missing after eviction", want.Sig)
		}
	}
	st := r.Stats()
	if st.Evictions != 1 || st.Entries != 3 || st.Functions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Unbounded repositories never evict.
	u := New()
	for i := 0; i < 10; i++ {
		u.Insert("g", mk(float64(i)))
	}
	if st := u.Stats(); st.Evictions != 0 || st.Entries != 10 {
		t.Fatalf("unbounded stats = %+v", st)
	}
}

// TestEvictionPrefersInterpEntries pins the tiering-aware tie-break: at
// equal hit counts, a QualityInterp placeholder (an uncompilable
// signature the tiering pipeline parked) is evicted before compiled
// code — compiled entries are expensive to rebuild, placeholders are
// free.
func TestEvictionPrefersInterpEntries(t *testing.T) {
	r := NewBounded(3)
	mk := func(v float64, q Quality) *Entry {
		return &Entry{Sig: types.Signature{intScalar(v)}, Quality: q}
	}
	opt := mk(1, QualityOpt)
	interp := mk(2, QualityInterp)
	jit := mk(3, QualityJIT)
	r.Insert("f", opt)    // oldest
	r.Insert("f", interp) // same hits (zero) as its neighbours
	r.Insert("f", jit)
	r.Insert("f", mk(4, QualityOpt)) // forces one eviction
	for _, e := range r.Entries("f") {
		if e == interp {
			t.Fatal("QualityInterp entry survived over compiled code at equal hits")
		}
	}
	for _, want := range []*Entry{opt, jit} {
		found := false
		for _, e := range r.Entries("f") {
			if e == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("compiled entry %v was evicted instead of the placeholder", want.Sig)
		}
	}

	// Hit counts still dominate: a hot placeholder outlives cold
	// compiled code.
	r2 := NewBounded(2)
	hotInterp := mk(1, QualityInterp)
	r2.Insert("g", hotInterp)
	for i := 0; i < 5; i++ {
		r2.Lookup("g", types.Signature{intScalar(1)})
	}
	coldOpt := mk(2, QualityOpt)
	r2.Insert("g", coldOpt)
	r2.Insert("g", mk(3, QualityJIT))
	for _, e := range r2.Entries("g") {
		if e == coldOpt {
			t.Fatal("cold compiled entry survived over a hot placeholder")
		}
	}
}

// TestInsertLoadedCountsSeparately pins the stats contract the
// warm-start CI gate depends on: warm restores count under Loaded,
// never Inserts.
func TestInsertLoadedCountsSeparately(t *testing.T) {
	r := New()
	r.InsertLoaded("f", Restored(types.Signature{intScalar(1)}, nil, QualityJIT, false, 5))
	r.Insert("f", &Entry{Sig: types.Signature{intScalar(2)}, Quality: QualityJIT})
	st := r.Stats()
	if st.Loaded != 1 || st.Inserts != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// The restored hit count carries over for least-hit eviction.
	es := r.Entries("f")
	if len(es) != 2 || es[0].Hits() != 5 {
		t.Fatalf("restored hits lost: %+v", es)
	}
	// Loaded entries are live lookup targets.
	if e := r.Lookup("f", types.Signature{intScalar(1)}); e == nil {
		t.Fatal("loaded entry must hit")
	}
}

// TestInsertLoadedHonorsCap verifies warm loading cannot blow past the
// per-function entry cap.
func TestInsertLoadedHonorsCap(t *testing.T) {
	r := NewBounded(2)
	for i := 0; i < 5; i++ {
		r.InsertLoaded("f", Restored(types.Signature{intScalar(float64(i))}, nil, QualityJIT, false, int64(i)))
	}
	st := r.Stats()
	if st.Entries != 2 || st.Loaded != 5 || st.Evictions != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestOnChangeFiresOutsideLock verifies the snapshot-dirtying callback
// fires on insert, replace, and invalidate — and that it can reenter
// read methods, proving it runs outside the repository lock.
func TestOnChangeFiresOutsideLock(t *testing.T) {
	r := New()
	var fired int
	r.SetOnChange(func() {
		fired++
		r.Stats()         // would deadlock if called under r.mu
		r.FunctionNames() // ditto
	})
	e := &Entry{Sig: types.Signature{intScalar(1)}, Quality: QualityJIT}
	r.Insert("f", e)
	if fired != 1 {
		t.Fatalf("insert: fired %d", fired)
	}
	r.InsertAt("f", &Entry{Sig: types.Signature{intScalar(2)}, Quality: QualityJIT}, r.Generation("f"))
	if fired != 2 {
		t.Fatalf("insertAt: fired %d", fired)
	}
	r.Replace("f", e, &Entry{Sig: e.Sig, Quality: QualityOpt})
	if fired != 3 {
		t.Fatalf("replace: fired %d", fired)
	}
	r.Invalidate("f")
	if fired != 4 {
		t.Fatalf("invalidate: fired %d", fired)
	}
	// A stale InsertAt publishes nothing — and must not dirty.
	if r.InsertAt("f", &Entry{Sig: e.Sig, Quality: QualityJIT}, 0) {
		t.Fatal("stale insert published")
	}
	if fired != 4 {
		t.Fatalf("stale insertAt dirtied the snapshot: fired %d", fired)
	}
	// Invalidating a function with no entries still notifies: source
	// changed, so a persisted snapshot of it is stale.
	r.Invalidate("never-compiled")
	if fired != 5 {
		t.Fatalf("empty invalidate: fired %d", fired)
	}
}

// BenchmarkLookupIn times the function locator's hit path — the layer
// every call crosses — by how many entries the function has (the locator
// tests each for safety and ranks the safe ones by distance) and by what
// the signature holds: two integer scalars, as a recursive call passes,
// or a scalar and a matrix. The invocation always lands on the last
// entry, so every entry before it is tested and rejected.
func BenchmarkLookupIn(b *testing.B) {
	sigs := map[string]func(k float64) types.Signature{
		"scalar": func(k float64) types.Signature {
			return types.Signature{intScalar(k), intScalar(k + 1)}
		},
		"matrix": func(k float64) types.Signature {
			return types.Signature{intScalar(k), types.OfValue(mat.New(int(k)+2, int(k)+2))}
		},
	}
	for _, kind := range []string{"scalar", "matrix"} {
		for _, n := range []int{1, 3, 8} {
			b.Run(fmt.Sprintf("%s/entries=%d", kind, n), func(b *testing.B) {
				r := New()
				for k := 0; k < n; k++ {
					r.Insert("f", &Entry{Sig: sigs[kind](float64(k)), Quality: QualityJIT})
				}
				st := r.State("f")
				q := sigs[kind](float64(n - 1))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if r.LookupIn(st, q) == nil {
						b.Fatal("miss")
					}
				}
			})
		}
	}
}
