package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
)

// The request-body fuzz targets drive Server.Handler() in process: every
// body must get an answer below 500, never a panic.

// fuzzServer is a daemon with one session for a fuzz target's inputs.
func fuzzServer(f *testing.F) (*Server, string) {
	srv := New(Options{Engine: core.Options{Tier: core.TierJIT}, MaxDeadline: 100 * time.Millisecond})
	f.Cleanup(func() { srv.Shutdown(context.Background()) })
	rec := serve(f, srv, "POST", "/sessions", nil)
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || rec.Code != http.StatusCreated {
		f.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	return srv, v.ID
}

// serve runs one request through the daemon's handler.
func serve(tb testing.TB, srv *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	tb.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code >= 500 {
		tb.Fatalf("%s %s %q: %d %s", method, path, body, rec.Code, rec.Body)
	}
	return rec
}

// evalSeeds are the programs of the server tests' eval bodies.
var evalSeeds = []string{
	"x = 6 * 7",
	"y = undefined_thing(3)",
	"function y = dc(x)\ny = x + 1;\n",
	"v = dc(1);",
	"w = dc(v)",
	"b = 2 + 2;",
	"while 1; end",
	"",
}

// FuzzEvalRequest fuzzes the body of POST /sessions/{id}/eval: its
// encoding, its deadline and its shape, not the language. A body that
// decodes is sent only when its program is one of the seeds': a mutated
// program may ask for more memory than the machine has (x(intmax) = 1),
// which no status answers. A body that does not decode is always sent.
func FuzzEvalRequest(f *testing.F) {
	for _, src := range evalSeeds {
		body, _ := json.Marshal(evalRequest{Src: src})
		f.Add(body)
	}
	f.Add([]byte(`{"src":"while 1; end","deadline_ms":50}`))
	f.Add([]byte(`{"src":"x = 6 * 7","deadline_ms":-1}`))
	f.Add([]byte(`{"src":"b = 2 + 2;","deadline_ms":9223372036854775807}`))
	f.Add([]byte(`{"src":"x = 6 * 7","extra":[1,{"a":null}]}`))
	f.Add([]byte(`{"src":12}`))
	f.Add([]byte(`{"src":"x = 6 * 7"} trailing`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{`))
	srv, id := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req evalRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil && !isEvalSeed(req.Src) {
			return
		}
		serve(t, srv, "POST", "/sessions/"+id+"/eval", body)
	})
}

func isEvalSeed(src string) bool {
	for _, s := range evalSeeds {
		if src == s {
			return true
		}
	}
	return false
}

// FuzzWorkspaceSet fuzzes the body of PUT /sessions/{id}/workspace/x. A
// value it binds must be what encoding/json decodes the body into, bit
// for bit; it is then read back and used by a program, whose sparse copy
// of it is read back too.
func FuzzWorkspaceSet(f *testing.F) {
	for _, wv := range []workspaceValue{
		{Name: "x", Rows: 2, Cols: 2, Kind: "double", Re: []float64{1, 2, 3, 4}},
		{Name: "x", Rows: 1, Cols: 2, Kind: "complex", Re: []float64{1, 2}, Im: []float64{0, -1}},
		{Name: "x", Rows: 1, Cols: 5, Kind: "char", Text: "hello"},
		{Name: "x", Rows: 0, Cols: 0, Kind: "double"},
	} {
		body, _ := json.Marshal(wv)
		f.Add(body)
	}
	f.Add([]byte(`{"rows":4294967296,"cols":4294967296,"kind":"double","re":[]}`))
	f.Add([]byte(`{"rows":-1,"cols":-1,"kind":"double","re":[1]}`))
	f.Add([]byte(`{"rows":1,"cols":2,"kind":"double","re":[1,2],"im":[3]}`))
	f.Add([]byte(`{"rows":1e30,"cols":1}`))
	f.Add(bytes.Repeat([]byte{' '}, maxWorkspaceBytes+1)) // 413 before it is read
	f.Add([]byte(`{"rows":1,"cols":3,"re":[-0,null,5e-324],"RE":[1e21,null],"im":null}`))
	f.Add([]byte(`{"rows":1,"cols":2,"re":[1,1e400]}`))
	// The eval makes s = sparse(x), whose GET is a 422 of kind sparse.
	f.Add([]byte(`{"rows":3,"cols":3,"kind":"double","re":[0,0,0,0,5,0,0,-0,5e-324]}`))
	srv, id := fuzzServer(f)
	path := "/sessions/" + id + "/workspace/x"
	f.Fuzz(func(t *testing.T, body []byte) {
		if serve(t, srv, "PUT", path, body).Code != http.StatusNoContent {
			return
		}
		if d := boundAs(srv, id, "x", body); d != "" {
			t.Fatalf("PUT %q: %s", body, d)
		}
		serve(t, srv, "GET", path, nil)
		// sparse(x) of an empty x is skipped: a 2^32-by-0 one would
		// allocate 2^32 row pointers.
		prog, _ := json.Marshal(evalRequest{Src: "y = size(x,1); z = x'; n = numel(z); if n > 0, s = sparse(x); end"})
		serve(t, srv, "POST", "/sessions/"+id+"/eval", prog)
		serve(t, srv, "GET", "/sessions/"+id+"/workspace/s", nil)
	})
}
