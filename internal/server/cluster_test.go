package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/persist"
)

// donorRecord compiles src on a scratch library and returns the wire
// bytes of its compiled-entry record — exactly what a peer would push.
func donorRecord(t *testing.T, src, fn string) []byte {
	t.Helper()
	lib := core.NewLibrary(core.LibraryOptions{})
	defer lib.Close()
	eng := core.New(core.Options{Tier: core.TierJIT, Library: lib})
	if err := eng.Define(src); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Call(fn, []*mat.Value{mat.Scalar(1)}, 1); err != nil {
		t.Fatal(err)
	}
	for _, rec := range lib.ExportRecords("donor", false) {
		if rec.Entry != nil {
			return persist.EncodeRecord(&rec)
		}
	}
	t.Fatal("donor produced no compiled entry")
	return nil
}

func TestClusterIngest(t *testing.T) {
	wire := donorRecord(t, "function y = add2(x)\ny = x + 2;\n", "add2")
	srv, tc := startServer(t, Options{Engine: core.Options{Tier: core.TierJIT}, NodeID: "node-b"})

	post := func(body []byte) (int, ingestResponse, []byte) {
		t.Helper()
		resp, err := http.Post(tc.base+"/cluster/ingest", "application/octet-stream", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ir ingestResponse
		raw := make([]byte, 0)
		dec := json.NewDecoder(resp.Body)
		_ = dec.Decode(&ir)
		return resp.StatusCode, ir, raw
	}

	if code, ir, _ := post(wire); code != http.StatusOK || !ir.Applied || ir.Outcome != "applied" {
		t.Fatalf("ingest: %d %+v", code, ir)
	}
	// The same record again is a normal race outcome, not an error.
	if code, ir, _ := post(wire); code != http.StatusOK || ir.Applied || ir.Outcome != "duplicate" {
		t.Fatalf("duplicate ingest: %d %+v", code, ir)
	}
	// Undecodable bytes are rejected outright.
	if code, _, _ := post([]byte("not a record")); code != http.StatusBadRequest {
		t.Fatalf("garbage ingest must 400, got %d", code)
	}

	m := srv.Metrics()
	if m.Ingest.Applied != 1 || m.Ingest.Dropped != 1 || m.Ingest.Rejected != 1 {
		t.Fatalf("ingest counters: %+v", m.Ingest)
	}
	if m.Repo.Replicated != 1 || m.Repo.Inserts != 0 {
		t.Fatalf("repo counters after ingest: %+v", m.Repo)
	}

	// The replicated entry serves a live session's call with no local
	// compile — the cross-node warm hit the cluster exists for.
	id := tc.createSession()
	if code, ev, eb := tc.eval(id, "y = add2(1);"); code != http.StatusOK {
		t.Fatalf("eval after ingest: %d %+v %+v", code, ev, eb)
	}
	m = srv.Metrics()
	if m.Repo.Inserts != 0 || m.Repo.Hits < 1 {
		t.Fatalf("eval should hit the replica: %+v", m.Repo)
	}
}

func TestClusterDigest(t *testing.T) {
	wire := donorRecord(t, "function y = add2(x)\ny = x + 2;\n", "add2")
	_, tc := startServer(t, Options{Engine: core.Options{Tier: core.TierJIT}, NodeID: "node-b"})
	if resp, err := http.Post(tc.base+"/cluster/ingest", "application/octet-stream", strings.NewReader(string(wire))); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	code, body := tc.do("GET", "/cluster/digest", nil)
	if code != http.StatusOK {
		t.Fatalf("digest: %d %s", code, body)
	}
	var dr digestResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	d, ok := dr.Funcs["add2"]
	if dr.Node != "node-b" || !ok || len(d.Entries) != 1 {
		t.Fatalf("digest body: %s", body)
	}
}
