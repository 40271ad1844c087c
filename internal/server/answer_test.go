package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestWorkspaceGetSparse: the workspace wire has no sparse form, so a GET
// of a sparse value is a 422 of kind sparse, never a dropped connection,
// and the session answers the next GET.
func TestWorkspaceGetSparse(t *testing.T) {
	_, tc := startServer(t, Options{Engine: core.Options{Tier: core.TierJIT}})
	id := tc.createSession()
	if code, _, eb := tc.eval(id, "s = sparse(1, 2, 5, 3, 3); d = full(s);"); code != http.StatusOK {
		t.Fatalf("eval: %d %+v", code, eb)
	}
	code, body := tc.do("GET", "/sessions/"+id+"/workspace/s", nil)
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || code != http.StatusUnprocessableEntity || eb.Kind != "sparse" || !strings.Contains(eb.Error, "full(s)") {
		t.Fatalf("GET of a sparse value: %d %s, want 422 sparse", code, body)
	}
	if code, body := tc.do("GET", "/sessions/"+id+"/workspace/d", nil); code != http.StatusOK || !strings.Contains(string(body), `"re":[0,0,0,5,0,0,0,0,0]`) {
		t.Fatalf("GET of full(s): %d %s", code, body)
	}
}

// get GETs path and reports whether the request went out on a
// connection an earlier request had used.
func (tc *testClient) get(path string) (code int, body []byte, reused bool) {
	tc.t.Helper()
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused }}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace), "GET", tc.base+path, nil)
	if err != nil {
		tc.t.Fatal(err)
	}
	resp, err := tc.c.Do(req)
	if err != nil {
		tc.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if body, err = io.ReadAll(resp.Body); err != nil {
		tc.t.Fatal(err)
	}
	return resp.StatusCode, body, reused
}

// TestWorkspaceGetEveryKind: a GET of a workspace value returns its
// shape and bits exactly, under its kind, for every kind an eval makes,
// or a 422 that names why the wire cannot carry it; a value the engine
// holds as an integer is a double, whichever tier made it. Every
// request is answered, and the next goes out on the same connection.
func TestWorkspaceGetEveryKind(t *testing.T) {
	for _, engine := range []struct {
		name string
		opts core.Options
	}{
		{"interp", core.Options{Tier: core.TierInterp}},
		{"jit", core.Options{Tier: core.TierJIT}},
		{"prod", core.Production()},
	} {
		t.Run(engine.name, func(t *testing.T) {
			_, tc := startServer(t, Options{Engine: engine.opts})
			id := tc.createSession()
			// ints runs compiled under jit and prod, where its results
			// live in integer registers until they return.
			const src = `r = [1.5 -2.25; 1/3 pi];
[k, kz] = ints(7);
b = [3 1] > 2;
c = 'it''s';
z = [1+2i, -3.5i];
e = [];
s = sparse(1, 2, 5, 3, 3);
nan = NaN; inf = Inf; ninf = -Inf; cnan = 1 + NaN*1i;
mz = -0; mzs = [1 -0];
sub = 2^-1074; subs = [2.5e-310 -4.9e-324];
function [k, z] = ints(n)
  k = 0;
  for i = 1:n
    k = k + i;
  end
  z = -0;
end`
			if code, _, eb := tc.eval(id, src); code != http.StatusOK {
				t.Fatalf("eval: %d %+v", code, eb)
			}
			negZero := math.Copysign(0, -1)
			for _, want := range []struct {
				name, kind string
				rows, cols int
				re, im     []float64
				text       string
				refused    string // the 422's kind
			}{
				{name: "r", kind: "double", rows: 2, cols: 2, re: []float64{1.5, 1.0 / 3, -2.25, math.Pi}},
				{name: "k", kind: "double", rows: 1, cols: 1, re: []float64{28}},
				{name: "kz", kind: "double", rows: 1, cols: 1, re: []float64{negZero}},
				{name: "b", kind: "logical", rows: 1, cols: 2, re: []float64{1, 0}},
				{name: "c", kind: "char", rows: 1, cols: 4, text: "it's"},
				{name: "z", kind: "complex", rows: 1, cols: 2, re: []float64{1, negZero}, im: []float64{2, -3.5}}, // -(0+3.5i)
				{name: "e", kind: "double"},
				{name: "s", refused: "sparse"},
				{name: "nan", refused: "non_finite"},
				{name: "inf", refused: "non_finite"},
				{name: "ninf", refused: "non_finite"},
				{name: "cnan", refused: "non_finite"},
				{name: "mz", kind: "double", rows: 1, cols: 1, re: []float64{negZero}},
				{name: "mzs", kind: "double", rows: 1, cols: 2, re: []float64{1, negZero}},
				{name: "sub", kind: "double", rows: 1, cols: 1, re: []float64{5e-324}},
				{name: "subs", kind: "double", rows: 1, cols: 2, re: []float64{2.5e-310, -4.9e-324}},
			} {
				code, body, reused := tc.get("/sessions/" + id + "/workspace/" + want.name)
				if !reused {
					t.Errorf("GET %s went out on a new connection", want.name)
				}
				if want.refused != "" {
					var eb errorBody
					if err := json.Unmarshal(body, &eb); err != nil || code != http.StatusUnprocessableEntity || eb.Kind != want.refused {
						t.Errorf("GET %s: %d %s, want 422 %s", want.name, code, body, want.refused)
					}
					continue
				}
				var got workspaceValue
				if err := json.Unmarshal(body, &got); err != nil || code != http.StatusOK {
					t.Errorf("GET %s: %d %s", want.name, code, body)
					continue
				}
				d := cmp.Or(sameBits("re", got.Re, want.re), sameBits("im", got.Im, want.im))
				if d != "" || got.Kind != want.kind || got.Rows != want.rows || got.Cols != want.cols || got.Text != want.text {
					t.Errorf("GET %s: %s, want kind %s, %dx%d, text %q; %s", want.name, body, want.kind, want.rows, want.cols, want.text, d)
				}
			}
		})
	}
}

// panicking mounts a route on srv that panics, behind timed as every
// route is.
func panicking(srv *Server) string {
	const path = "/test/panic"
	srv.mux.HandleFunc("GET "+path, srv.timed("eval", func(http.ResponseWriter, *http.Request) {
		panic("forced by the test")
	}))
	return path
}

// TestHandlerPanicAnswers500: a handler that panics answers a 500 of
// kind internal and counts in /metrics, and the client's connection
// carries its next request.
func TestHandlerPanicAnswers500(t *testing.T) {
	srv, tc := startServer(t, Options{Engine: core.Options{Tier: core.TierJIT}})
	path := panicking(srv)
	var reused []bool
	get := func(path string) (int, []byte) {
		code, body, again := tc.get(path)
		reused = append(reused, again)
		return code, body
	}
	code, body := get(path)
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || code != http.StatusInternalServerError || eb.Kind != "internal" {
		t.Fatalf("GET of a panicking route: %d %s, want 500 internal", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("GET /healthz after the panic: %d", code)
	}
	if len(reused) != 2 || !reused[1] {
		t.Errorf("connections reused per request: %v, want the second on the first's connection", reused)
	}
	if m := tc.metrics(); m.Panics != 1 {
		t.Errorf("panics in /metrics: %d, want 1", m.Panics)
	}
}

// TestRequestLogLevels: the per-request record is at Debug, so a server
// logging at Info writes none for a 2xx, and one for a 5xx (Warn) or a
// panic (Error); a server logging at Debug writes one per request.
func TestRequestLogLevels(t *testing.T) {
	// records serves each request in turn on a fresh server logging at
	// level, and returns the level of each request record it wrote.
	records := func(level slog.Level, reqs func(srv *Server) []*http.Request) []string {
		var out bytes.Buffer
		srv := New(Options{
			Engine: core.Options{Tier: core.TierJIT},
			Logger: slog.New(slog.NewJSONHandler(&out, &slog.HandlerOptions{Level: level})),
		})
		defer srv.Shutdown(context.Background())
		for _, req := range reqs(srv) {
			srv.Handler().ServeHTTP(httptest.NewRecorder(), req)
		}
		var levels []string
		for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
			var rec struct{ Level, Msg string }
			if line == "" || json.Unmarshal([]byte(line), &rec) != nil || rec.Msg != "request" {
				continue
			}
			levels = append(levels, rec.Level)
		}
		return levels
	}
	ok := func(*Server) []*http.Request {
		return []*http.Request{httptest.NewRequest("POST", "/sessions", nil), httptest.NewRequest("GET", "/sessions/none/workspace/x", nil)}
	}
	failing := func(srv *Server) []*http.Request {
		path := panicking(srv)
		srv.StartDraining()
		return []*http.Request{httptest.NewRequest("POST", "/sessions", nil), httptest.NewRequest("GET", path, nil)}
	}
	if got := records(slog.LevelInfo, ok); len(got) != 0 {
		t.Errorf("at Info, a 201 and a 404 logged %v, want no record", got)
	}
	if got := strings.Join(records(slog.LevelInfo, failing), " "); got != "WARN ERROR" {
		t.Errorf("at Info, a 503 and a panic logged %q, want WARN ERROR", got)
	}
	if got := strings.Join(records(slog.LevelDebug, ok), " "); got != "DEBUG DEBUG" {
		t.Errorf("at Debug, two requests logged %q, want DEBUG DEBUG", got)
	}
}

// TestWorkspacePutEveryKind is the PUT half of the kind table: an
// integral value, a logical, an empty, −0 and subnormals go in through
// PUT, and each GET answers it bit for bit under its kind: a logical is
// bound as one. A logical element that is not 0 or 1 (−0 included), or a
// logical's imaginary part, is a 400 that binds nothing.
func TestWorkspacePutEveryKind(t *testing.T) {
	_, tc := startServer(t, Options{Engine: core.Options{Tier: core.TierJIT}})
	id := tc.createSession()
	negZero := math.Copysign(0, -1)
	for _, wv := range []workspaceValue{
		{Name: "k", Kind: "double", Rows: 1, Cols: 1, Re: []float64{28}},
		{Name: "b", Kind: "logical", Rows: 1, Cols: 2, Re: []float64{1, 0}},
		{Name: "e", Kind: "double"},
		{Name: "mz", Kind: "double", Rows: 1, Cols: 1, Re: []float64{negZero}},
		{Name: "mzs", Kind: "double", Rows: 1, Cols: 2, Re: []float64{1, negZero}},
		{Name: "sub", Kind: "double", Rows: 1, Cols: 1, Re: []float64{5e-324}},
		{Name: "subs", Kind: "double", Rows: 2, Cols: 1, Re: []float64{2.5e-310, -4.9e-324}},
	} {
		path := "/sessions/" + id + "/workspace/" + wv.Name
		if code, body := tc.do("PUT", path, wv); code != http.StatusNoContent {
			t.Fatalf("PUT %s: %d %s", wv.Name, code, body)
		}
		code, body, _ := tc.get(path)
		var got workspaceValue
		if err := json.Unmarshal(body, &got); err != nil || code != http.StatusOK {
			t.Errorf("GET %s: %d %s", wv.Name, code, body)
			continue
		}
		d := cmp.Or(sameBits("re", got.Re, wv.Re), sameBits("im", got.Im, wv.Im))
		if d != "" || got.Kind != wv.Kind || got.Rows != wv.Rows || got.Cols != wv.Cols {
			t.Errorf("GET %s: %s, want kind %s, %dx%d; %s", wv.Name, body, wv.Kind, wv.Rows, wv.Cols, d)
		}
	}
	for _, bad := range []workspaceValue{
		{Kind: "logical", Rows: 1, Cols: 2, Re: []float64{1, 2}},
		{Kind: "logical", Rows: 1, Cols: 1, Re: []float64{negZero}},
		{Kind: "logical", Rows: 1, Cols: 1, Re: []float64{1}, Im: []float64{0}},
	} {
		if code, body := tc.do("PUT", "/sessions/"+id+"/workspace/bad", bad); code != http.StatusBadRequest {
			t.Errorf("PUT of %+v: %d %s, want 400", bad, code, body)
		}
		if code, _, _ := tc.get("/sessions/" + id + "/workspace/bad"); code != http.StatusNotFound {
			t.Errorf("GET after a refused PUT of %+v: %d, want 404", bad, code)
		}
	}
}
