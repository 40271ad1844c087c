package repo

import (
	"sync"
	"testing"

	"repro/internal/types"
)

// TestInsertReplicatedCounts pins the stats contract: replicated
// applies count under Replicated — never Inserts or Loaded — and
// guard rejections count under ReplicatedDrops.
func TestInsertReplicatedCounts(t *testing.T) {
	r := New()
	sig := types.Signature{intScalar(20)}
	if !r.InsertReplicated("f", &Entry{Sig: sig, Quality: QualityJIT}, 0, "node-a") {
		t.Fatal("first replicated apply must succeed")
	}
	st := r.Stats()
	if st.Replicated != 1 || st.Inserts != 0 || st.Loaded != 0 {
		t.Fatalf("replicated apply miscounted: %+v", st)
	}
	es := r.Entries("f")
	if len(es) != 1 || !es[0].Replicated {
		t.Fatalf("entry not marked replicated: %+v", es)
	}

	// A duplicate at equal quality is dropped.
	if r.InsertReplicated("f", &Entry{Sig: sig, Quality: QualityJIT}, 0, "node-b") {
		t.Fatal("equal-quality duplicate must be dropped")
	}
	// A better-quality replica upgrades in place.
	if !r.InsertReplicated("f", &Entry{Sig: sig, Quality: QualityOpt}, 0, "node-b") {
		t.Fatal("better-quality replica must upgrade")
	}
	st = r.Stats()
	if st.Replicated != 2 || st.ReplicatedDrops != 1 || st.Entries != 1 {
		t.Fatalf("dedup accounting wrong: %+v", st)
	}
}

// TestInsertReplicatedGenerationGuard: a replicated entry captured
// against an old generation must not resurrect code for dead source.
func TestInsertReplicatedGenerationGuard(t *testing.T) {
	r := New()
	sig := types.Signature{intScalar(20)}
	gen := r.Generation("f")
	r.Invalidate("f") // a local redefinition lands meanwhile
	if r.InsertReplicated("f", &Entry{Sig: sig, Quality: QualityJIT}, gen, "node-a") {
		t.Fatal("stale-generation replica must be dropped")
	}
	if st := r.Stats(); st.ReplicatedDrops != 1 || st.Replicated != 0 || len(r.Entries("f")) != 0 {
		t.Fatalf("stale drop miscounted: %+v", st)
	}
}

// TestLocalCompileReplacesReplicated: a local compile publishing the
// exact signature a replicated entry serves replaces it in place —
// local code wins, and the repository never holds two entries for one
// exact signature across the replication-vs-JIT race.
func TestLocalCompileReplacesReplicated(t *testing.T) {
	r := New()
	sig := types.Signature{intScalar(20)}
	r.InsertReplicated("f", &Entry{Sig: sig, Quality: QualityJIT}, 0, "node-a")
	r.Entries("f")[0].hits.Add(1)
	local := &Entry{Sig: sig, Quality: QualityJIT}
	r.Insert("f", local)
	es := r.Entries("f")
	if len(es) != 1 || es[0] != local || es[0].Replicated {
		t.Fatalf("local compile must replace the replicated entry: %+v", es)
	}
	if es[0].Hits() != 1 {
		t.Fatalf("hit count must carry over the swap, got %d", es[0].Hits())
	}
}

// TestReplicatedVsLocalCompileRace is the exactly-one-winner invariant
// under -race: a peer apply and a local compile publish racing on the
// same (function, exact signature) leave exactly one live entry, in
// either arrival order, and a racing invalidation never lets the
// replica resurrect.
func TestReplicatedVsLocalCompileRace(t *testing.T) {
	sig := types.Signature{intScalar(20)}
	for i := 0; i < 200; i++ {
		r := New()
		gen := r.Generation("f")
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			r.Insert("f", &Entry{Sig: sig, Quality: QualityJIT})
		}()
		go func() {
			defer wg.Done()
			r.InsertReplicated("f", &Entry{Sig: sig, Quality: QualityJIT}, gen, "node-a")
		}()
		wg.Wait()
		n := 0
		for _, e := range r.Entries("f") {
			if e.Sig.Key() == sig.Key() {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("round %d: %d entries for one exact signature, want exactly 1", i, n)
		}
		st := r.Stats()
		if st.Inserts != 1 || st.Replicated+st.ReplicatedDrops != 1 {
			t.Fatalf("round %d: accounting lost an outcome: %+v", i, st)
		}
	}

	// With a redefinition in the race: the replica (captured at the old
	// generation) must either land before the invalidation (and be
	// dropped by it) or be rejected by the generation guard — the final
	// state never contains old-generation code.
	for i := 0; i < 200; i++ {
		r := New()
		gen := r.Generation("f")
		fresh := &Entry{Sig: sig, Quality: QualityJIT}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			r.Invalidate("f")
			r.InsertAt("f", fresh, gen+1)
		}()
		go func() {
			defer wg.Done()
			r.InsertReplicated("f", &Entry{Sig: sig, Quality: QualityOpt}, gen, "node-a")
		}()
		wg.Wait()
		es := r.Entries("f")
		if len(es) != 1 || es[0] != fresh {
			t.Fatalf("round %d: old-generation replica survived a redefinition: %+v", i, es)
		}
	}
}
