package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
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
		trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) { reused = append(reused, info.Reused) }}
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace), "GET", tc.base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := tc.c.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
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
