package cluster

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/persist"
)

// nodeCreate opens a session directly on one daemon (no gateway).
func nodeCreate(t *testing.T, base string) string {
	t.Helper()
	code, raw := gwDo(t, "POST", base+"/sessions", nil)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &v); err != nil || v.ID == "" {
		t.Fatalf("create body: %s (%v)", raw, err)
	}
	return v.ID
}

func waitReplicated(t *testing.T, n gwTestNode, want int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if st := n.srv.Metrics().Repo; st.Replicated >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %s never reached %d replicated entries: %+v",
				n.n.ID, want, n.srv.Metrics().Repo)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReplicatorPushWarmsPeer is the fleet warm-up path over real HTTP:
// a compile on node A is pushed to node B, which ends up with a
// replicated entry and zero local compiles — then serves its own
// session's first call as a warm hit.
func TestReplicatorPushWarmsPeer(t *testing.T) {
	fleet := startNodes(t, "node-a", "node-b")
	a, b := fleet[0], fleet[1]

	repl := NewReplicator(ReplicatorOptions{
		NodeID: a.n.ID,
		Lib:    a.srv.Library(),
		Peers:  []Node{b.n},
		// Anti-entropy parked out of the way: this test pins the push
		// path alone.
		Interval: time.Hour,
		Client:   &http.Client{Timeout: 5 * time.Second},
	})
	repl.Start()
	defer repl.Close()

	// Compile on A through its public API, as a session would.
	id := nodeCreate(t, a.hs.URL)
	if code, _ := gwEval(t, a.hs.URL, id, "function y = add2(x)\ny = x + 2;\n"); code != http.StatusOK {
		t.Fatal("define failed")
	}
	if code, _ := gwEval(t, a.hs.URL, id, "y = add2(1)"); code != http.StatusOK {
		t.Fatal("call failed")
	}

	waitReplicated(t, b, 1, 10*time.Second)
	bm := b.srv.Metrics()
	if bm.Repo.Inserts != 0 {
		t.Fatalf("peer must not compile locally: %+v", bm.Repo)
	}
	if bm.Ingest.Applied == 0 {
		t.Fatalf("ingest counter not advanced: %+v", bm.Ingest)
	}
	// A counts the push when it reads B's answer, which can land after B
	// has applied the record.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		st := repl.Stats()
		if st.Pushed > 0 && st.PushApplied > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("push not recorded: %+v", st)
		}
	}

	// B's first call for the signature is a warm hit on the replica.
	bid := nodeCreate(t, b.hs.URL)
	if code, out := gwEval(t, b.hs.URL, bid, "y = add2(1)"); code != http.StatusOK || out == "" {
		t.Fatalf("cold call on peer: %d %q", code, out)
	}
	bm = b.srv.Metrics()
	if bm.Repo.Inserts != 0 || bm.Repo.Hits < 1 {
		t.Fatalf("peer call should hit the replica: %+v", bm.Repo)
	}
}

// TestReplicatorAntiEntropyBreaksDefTimeTies: two nodes holding
// different sources with identical DefTime stamps must not sit in a
// silent stalemate (each refusing to push a not-strictly-newer record)
// — the source-hash tie-break makes one definition win fleet-wide.
func TestReplicatorAntiEntropyBreaksDefTimeTies(t *testing.T) {
	fleet := startNodes(t, "node-a", "node-b")
	a, b := fleet[0], fleet[1]

	srcA := "function y = f(x)\ny = x + 1;\n"
	srcB := "function y = f(x)\ny = x + 2;\n"
	mkRec := func(src string) persist.EntryRecord {
		return persist.EntryRecord{
			Origin: "tie", Func: "f", Source: src,
			SrcHash: persist.HashSource(src), DefTime: 42,
		}
	}
	recA, recB := mkRec(srcA), mkRec(srcB)
	if ok, why := a.srv.Library().ApplyReplicated(&recA); !ok {
		t.Fatalf("seed node-a: %s", why)
	}
	if ok, why := b.srv.Library().ApplyReplicated(&recB); !ok {
		t.Fatalf("seed node-b: %s", why)
	}
	winHash := persist.HashSource(srcA)
	if persist.HashSource(srcB) > winHash {
		winHash = persist.HashSource(srcB)
	}

	for _, pair := range []struct{ self, peer gwTestNode }{{a, b}, {b, a}} {
		repl := NewReplicator(ReplicatorOptions{
			NodeID:   pair.self.n.ID,
			Lib:      pair.self.srv.Library(),
			Peers:    []Node{pair.peer.n},
			Interval: 100 * time.Millisecond,
			Client:   &http.Client{Timeout: 5 * time.Second},
		})
		repl.Start()
		defer repl.Close()
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		da := a.srv.Library().ExportDigest()["f"]
		db := b.srv.Library().ExportDigest()["f"]
		if da.SrcHash == winHash && db.SrcHash == winHash {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("tie never resolved: node-a %x node-b %x want %x",
				da.SrcHash, db.SrcHash, winHash)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReplicatorAntiEntropyRepairs covers the entries the push path can
// never see: code compiled *before* the replicator attached (or lost to
// a queue overflow) reaches the peer through digest reconciliation.
func TestReplicatorAntiEntropyRepairs(t *testing.T) {
	fleet := startNodes(t, "node-a", "node-b")
	a, b := fleet[0], fleet[1]

	// Compile first — no replicator exists yet, so no change
	// notification will ever fire for this entry.
	id := nodeCreate(t, a.hs.URL)
	if code, _ := gwEval(t, a.hs.URL, id, "function y = add2(x)\ny = x + 2;\n"); code != http.StatusOK {
		t.Fatal("define failed")
	}
	if code, _ := gwEval(t, a.hs.URL, id, "y = add2(1)"); code != http.StatusOK {
		t.Fatal("call failed")
	}

	repl := NewReplicator(ReplicatorOptions{
		NodeID:   a.n.ID,
		Lib:      a.srv.Library(),
		Peers:    []Node{b.n},
		Interval: 100 * time.Millisecond,
		Client:   &http.Client{Timeout: 5 * time.Second},
	})
	repl.Start()
	defer repl.Close()

	waitReplicated(t, b, 1, 10*time.Second)
	if st := repl.Stats(); st.AERounds == 0 || st.AERepairs == 0 {
		t.Fatalf("anti-entropy not recorded: %+v", st)
	}
	if bm := b.srv.Metrics(); bm.Repo.Inserts != 0 {
		t.Fatalf("peer must not compile locally: %+v", bm.Repo)
	}
}
