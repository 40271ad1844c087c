package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// testClient wraps an httptest server with the daemon's JSON protocol.
type testClient struct {
	t    *testing.T
	base string
	c    *http.Client
}

func startServer(t *testing.T, opts Options) (*Server, *testClient) {
	t.Helper()
	srv := New(opts)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, &testClient{t: t, base: hs.URL, c: hs.Client()}
}

func (tc *testClient) do(method, path string, body any) (int, []byte) {
	tc.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			tc.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, tc.base+path, rd)
	if err != nil {
		tc.t.Fatal(err)
	}
	resp, err := tc.c.Do(req)
	if err != nil {
		tc.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		tc.t.Fatal(err)
	}
	return resp.StatusCode, out
}

func (tc *testClient) createSession() string {
	tc.t.Helper()
	code, body := tc.do("POST", "/sessions", nil)
	if code != http.StatusCreated {
		tc.t.Fatalf("create: %d %s", code, body)
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		tc.t.Fatal(err)
	}
	return v.ID
}

func (tc *testClient) eval(id, src string) (int, evalResponse, errorBody) {
	tc.t.Helper()
	code, body := tc.do("POST", "/sessions/"+id+"/eval", evalRequest{Src: src})
	var ok evalResponse
	var bad errorBody
	json.Unmarshal(body, &ok)
	json.Unmarshal(body, &bad)
	return code, ok, bad
}

func (tc *testClient) metrics() MetricsSnapshot {
	tc.t.Helper()
	code, body := tc.do("GET", "/metrics", nil)
	if code != http.StatusOK {
		tc.t.Fatalf("metrics: %d %s", code, body)
	}
	var m MetricsSnapshot
	if err := json.Unmarshal(body, &m); err != nil {
		tc.t.Fatal(err)
	}
	return m
}

func TestSessionLifecycle(t *testing.T) {
	_, tc := startServer(t, Options{Engine: core.Options{Tier: core.TierJIT}})
	id := tc.createSession()

	code, ok, _ := tc.eval(id, "x = 6 * 7")
	if code != http.StatusOK {
		t.Fatalf("eval: %d", code)
	}
	if !strings.Contains(ok.Output, "42") {
		t.Fatalf("output %q does not echo x = 42", ok.Output)
	}

	// Workspace get sees the binding.
	code, body := tc.do("GET", "/sessions/"+id+"/workspace/x", nil)
	if code != http.StatusOK {
		t.Fatalf("workspace: %d %s", code, body)
	}
	var wv workspaceValue
	if err := json.Unmarshal(body, &wv); err != nil {
		t.Fatal(err)
	}
	if wv.Rows != 1 || wv.Cols != 1 || len(wv.Re) != 1 || wv.Re[0] != 42 {
		t.Fatalf("workspace value = %+v", wv)
	}

	// Program errors are 422 with the message, not 500.
	code, _, bad := tc.eval(id, "y = undefined_thing(3)")
	if code != http.StatusUnprocessableEntity || bad.Error == "" {
		t.Fatalf("error eval: %d %+v", code, bad)
	}

	// Destroy; the session is gone.
	if code, body := tc.do("DELETE", "/sessions/"+id, nil); code != http.StatusNoContent {
		t.Fatalf("destroy: %d %s", code, body)
	}
	if code, _, _ := tc.eval(id, "x"); code != http.StatusNotFound {
		t.Fatalf("eval after destroy: %d", code)
	}
}

// TestDeadlineKillsInfiniteLoop pins the acceptance criterion: a 500ms
// deadline against `while 1; end` returns a timeout error quickly and
// the daemon keeps serving other sessions.
func TestDeadlineKillsInfiniteLoop(t *testing.T) {
	_, tc := startServer(t, Options{Engine: core.Options{Tier: core.TierJIT}})
	spinner := tc.createSession()
	other := tc.createSession()

	t0 := time.Now()
	code, body := tc.do("POST", "/sessions/"+spinner+"/eval",
		evalRequest{Src: "while 1; end", DeadlineMS: 500})
	elapsed := time.Since(t0)
	if code != http.StatusRequestTimeout {
		t.Fatalf("want 408, got %d %s", code, body)
	}
	var bad errorBody
	json.Unmarshal(body, &bad)
	if bad.Kind != "timeout" {
		t.Fatalf("want timeout kind, got %+v", bad)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}

	// The daemon still serves: the other session and the killed one.
	if code, ok, _ := tc.eval(other, "a = 1 + 1"); code != http.StatusOK || !strings.Contains(ok.Output, "2") {
		t.Fatalf("other session broken after kill: %d %+v", code, ok)
	}
	if code, _, _ := tc.eval(spinner, "b = 2 + 2;"); code != http.StatusOK {
		t.Fatalf("killed session cannot eval again: %d", code)
	}
	if m := tc.metrics(); m.Evals.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", m.Evals.Timeouts)
	}
}

// TestSharedRepositoryAcrossSessions: one session defines and JIT-
// compiles a function; a second session's call hits the shared entry
// without recompiling.
func TestSharedRepositoryAcrossSessions(t *testing.T) {
	t.Run("shared", func(t *testing.T) {
		_, tc := startServer(t, Options{Engine: core.Options{Tier: core.TierJIT}})
		a := tc.createSession()
		b := tc.createSession()

		const cube = "function y = cube(x)\ny = x * x * x;\n"
		if code, _, bad := tc.eval(a, cube); code != http.StatusOK {
			t.Fatalf("define: %+v", bad)
		}
		if code, _, bad := tc.eval(a, "r = cube(3);"); code != http.StatusOK {
			t.Fatalf("a call: %+v", bad)
		}
		before := tc.metrics().Repo
		if before.Inserts == 0 {
			t.Fatal("no repository insert after first call")
		}
		// b calls the function it never defined; the shared library
		// resolves it, the shared repository serves the entry.
		code, _, bad := tc.eval(b, "r = cube(3);")
		if code != http.StatusOK {
			t.Fatalf("b call: %+v", bad)
		}
		m := tc.metrics()
		if m.Repo.Inserts != before.Inserts {
			t.Fatalf("second session recompiled: inserts %d -> %d", before.Inserts, m.Repo.Inserts)
		}
		if m.Repo.Hits == before.Hits {
			t.Fatal("second session's call did not hit the shared repository")
		}
		code, body := tc.do("GET", "/sessions/"+b+"/workspace/r", nil)
		var wv workspaceValue
		json.Unmarshal(body, &wv)
		if code != http.StatusOK || len(wv.Re) != 1 || wv.Re[0] != 27 {
			t.Fatalf("b result = %+v (%d)", wv, code)
		}
	})
}

// TestGenerationSafeRedefinition: session b redefines a function while
// session a uses it; a's next call must see the new semantics (shared
// source directory), never stale code.
func TestGenerationSafeRedefinition(t *testing.T) {
	_, tc := startServer(t, Options{Engine: core.Options{Tier: core.TierJIT}})
	a := tc.createSession()
	b := tc.createSession()

	tc.eval(a, "function y = g(x)\ny = x + 1;\n")
	if _, ok, _ := tc.eval(a, "r = g(1)"); !strings.Contains(ok.Output, "2") {
		t.Fatalf("old body: %q", ok.Output)
	}
	tc.eval(b, "function y = g(x)\ny = x + 100;\n")
	if _, ok, _ := tc.eval(a, "r = g(1)"); !strings.Contains(ok.Output, "101") {
		t.Fatalf("a did not see b's redefinition: %q", ok.Output)
	}
}

// TestConcurrentSessionLifecycle is the -race workout: goroutines
// create, eval against, and destroy sessions concurrently while two of
// them redefine a shared function.
func TestConcurrentSessionLifecycle(t *testing.T) {
	_, tc := startServer(t, Options{
		Engine:  core.Options{Tier: core.TierJIT, AsyncCompile: true},
		Library: core.LibraryOptions{CompileWorkers: 2, RepoMaxEntries: 8},
	})
	seed := tc.createSession()
	if code, _, bad := tc.eval(seed, "function y = inc(x)\ny = x + 1;\n"); code != http.StatusOK {
		t.Fatalf("seed define: %+v", bad)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				id := tc.createSession()
				if i%4 == 0 {
					// Redefiners: generation churn against in-flight
					// compiles (the body stays semantically identical
					// so other sessions' results stay stable).
					code, _, bad := tc.eval(id, "function y = inc(x)\ny = x + 1;\n")
					if code != http.StatusOK {
						errs[i] = fmt.Errorf("redefine: %+v", bad)
						return
					}
				}
				code, ok, bad := tc.eval(id, fmt.Sprintf("r = inc(%d)", k))
				if code != http.StatusOK {
					errs[i] = fmt.Errorf("eval: %d %+v", code, bad)
					return
				}
				if !strings.Contains(ok.Output, fmt.Sprintf("%d", k+1)) {
					errs[i] = fmt.Errorf("inc(%d) output %q", k, ok.Output)
					return
				}
				if code, _ := tc.do("DELETE", "/sessions/"+id, nil); code != http.StatusNoContent {
					errs[i] = fmt.Errorf("destroy: %d", code)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	m := tc.metrics()
	if m.Sessions.Active != 1 {
		t.Fatalf("active sessions = %d, want 1 (the seed)", m.Sessions.Active)
	}
	if m.Repo.Lookups == 0 || m.Evals.Total == 0 {
		t.Fatalf("metrics look dead: %+v", m)
	}
}

// TestSessionTableBound: creates beyond MaxSessions bounce with 503.
func TestSessionTableBound(t *testing.T) {
	_, tc := startServer(t, Options{
		Engine:      core.Options{Tier: core.TierJIT},
		MaxSessions: 2,
	})
	tc.createSession()
	tc.createSession()
	code, body := tc.do("POST", "/sessions", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("third create: %d %s", code, body)
	}
	if m := tc.metrics(); m.Sessions.Rejected != 1 {
		t.Fatalf("rejected = %d", m.Sessions.Rejected)
	}
}

// TestIdleTTLEviction: a session idle past the TTL is reaped.
func TestIdleTTLEviction(t *testing.T) {
	srv, tc := startServer(t, Options{
		Engine:  core.Options{Tier: core.TierJIT},
		IdleTTL: 50 * time.Millisecond,
	})
	id := tc.createSession()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if srv.Metrics().Sessions.Active == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session never evicted")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code, _, _ := tc.eval(id, "x = 1"); code != http.StatusNotFound {
		t.Fatalf("eval on evicted session: %d", code)
	}
	if m := tc.metrics(); m.Sessions.Evicted == 0 {
		t.Fatal("eviction not counted")
	}
}

// TestGracefulShutdown: Shutdown drains and returns nil with no evals
// in flight, and the shared queue closes without wedging.
func TestGracefulShutdown(t *testing.T) {
	srv, tc := startServer(t, Options{
		Engine: core.Options{Tier: core.TierJIT, AsyncCompile: true},
	})
	id := tc.createSession()
	tc.eval(id, "function y = s2(x)\ny = x * 2;\n")
	tc.eval(id, "r = s2(21);")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// After shutdown the handler refuses new sessions.
	code, _ := tc.do("POST", "/sessions", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("create after shutdown: %d", code)
	}
}

// TestShutdownInterruptsRunaway: a runaway eval with no deadline is
// force-interrupted when the drain grace expires, and Shutdown still
// completes.
func TestShutdownInterruptsRunaway(t *testing.T) {
	srv, tc := startServer(t, Options{
		Engine:      core.Options{Tier: core.TierJIT},
		MaxDeadline: -1, // no implicit deadline: the eval really runs away
	})
	id := tc.createSession()
	evalDone := make(chan int, 1)
	go func() {
		code, _, _ := tc.eval(id, "while 1; end")
		evalDone <- code
	}()
	// Wait until the eval is actually executing.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().Evals.Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("runaway eval never started")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not recover from runaway: %v", err)
	}
	select {
	case code := <-evalDone:
		if code != http.StatusUnprocessableEntity {
			t.Logf("runaway eval returned %d", code) // interrupted, not a timeout
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runaway eval never returned")
	}
}

// TestReadyzSplitsFromHealthz pins the liveness/readiness split: a
// draining daemon keeps answering /healthz 200 (the process is alive)
// while /readyz flips to 503 with the "draining" reason a load balancer
// keys on.
func TestReadyzSplitsFromHealthz(t *testing.T) {
	srv, tc := startServer(t, Options{Engine: core.Options{Tier: core.TierJIT}, NodeID: "node-a"})
	code, body := tc.do("GET", "/readyz", nil)
	if code != http.StatusOK {
		t.Fatalf("ready node: /readyz = %d %s", code, body)
	}
	var rr readyResponse
	if err := json.Unmarshal(body, &rr); err != nil || !rr.Ready || rr.Node != "node-a" {
		t.Fatalf("readyz body: %s (%v)", body, err)
	}

	srv.StartDraining()
	code, body = tc.do("GET", "/readyz", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining node: /readyz = %d %s", code, body)
	}
	if err := json.Unmarshal(body, &rr); err != nil || rr.Ready || rr.Reason != "draining" {
		t.Fatalf("draining readyz body: %s (%v)", body, err)
	}
	if code, _ = tc.do("GET", "/healthz", nil); code != http.StatusOK {
		t.Fatalf("draining node must stay live: /healthz = %d", code)
	}
}

// TestDrainContract pins what a client keeps across a drain of the one
// daemon: between StartDraining and Shutdown a create answers 503
// "draining" while a live session is still served, and after Shutdown
// the old session id answers 404 "no_session" — the workspace is gone.
// So it does after a restart on the same RepoPath, once the new daemon
// has made sessions of its own: ids are never reused across lifetimes.
func TestDrainContract(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repo.snap")
	srv, tc := startServer(t, Options{Engine: core.Options{Tier: core.TierJIT}, RepoPath: path})
	id := tc.createSession()
	if code, _, eb := tc.eval(id, "function y = dc(x)\ny = x + 1;\n"); code != http.StatusOK {
		t.Fatalf("define: %d %+v", code, eb)
	}
	if code, _, eb := tc.eval(id, "v = dc(1);"); code != http.StatusOK {
		t.Fatalf("eval before drain: %d %+v", code, eb)
	}

	srv.StartDraining()
	code, body := tc.do("POST", "/sessions", nil)
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || code != http.StatusServiceUnavailable || eb.Kind != "draining" {
		t.Fatalf("create while draining: %d %s (%v), want 503 draining", code, body, err)
	}
	code, ev, eb := tc.eval(id, "w = dc(v)")
	if code != http.StatusOK || !strings.Contains(ev.Output, "3") {
		t.Fatalf("eval on a live session while draining: %d %+v %+v", code, ev, eb)
	}
	if code, body := tc.do("GET", "/sessions/"+id+"/workspace/w", nil); code != http.StatusOK {
		t.Fatalf("workspace read while draining: %d %s", code, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code, _, eb := tc.eval(id, "w = dc(v)"); code != http.StatusNotFound || eb.Kind != "no_session" {
		t.Fatalf("eval on an old session after shutdown: %d %+v, want 404 no_session", code, eb)
	}
	code, body = tc.do("GET", "/sessions/"+id+"/workspace/w", nil)
	if err := json.Unmarshal(body, &eb); err != nil || code != http.StatusNotFound || eb.Kind != "no_session" {
		t.Fatalf("workspace after shutdown: %d %s (%v), want 404 no_session", code, body, err)
	}

	_, tc = startServer(t, Options{Engine: core.Options{Tier: core.TierJIT}, RepoPath: path})
	for range 3 {
		if fresh := tc.createSession(); fresh == id {
			t.Fatalf("the restarted daemon handed out the old id %s", id)
		}
	}
	if code, _, eb := tc.eval(id, "w = dc(v)"); code != http.StatusNotFound || eb.Kind != "no_session" {
		t.Fatalf("eval on an old session after a restart: %d %+v, want 404 no_session", code, eb)
	}
	code, body = tc.do("GET", "/sessions/"+id+"/workspace/w", nil)
	if err := json.Unmarshal(body, &eb); err != nil || code != http.StatusNotFound || eb.Kind != "no_session" {
		t.Fatalf("workspace after a restart: %d %s (%v), want 404 no_session", code, body, err)
	}
}

// TestWorkspaceSetRejectsBadShapes: a PUT whose shape is negative, whose
// element count overflows, or whose data disagrees with it is a 400 and
// binds nothing. A 2^32 x 2^32 value bound with no data would panic the
// next eval that reads it.
func TestWorkspaceSetRejectsBadShapes(t *testing.T) {
	_, tc := startServer(t, Options{Engine: core.Options{Tier: core.TierJIT}})
	id := tc.createSession()
	path := "/sessions/" + id + "/workspace/x"
	for _, body := range []string{
		`{"rows":4294967296,"cols":4294967296,"kind":"double","re":[]}`,
		`{"rows":3037000500,"cols":3037000500,"kind":"double","re":[]}`,
		`{"rows":-2,"cols":-3,"kind":"double","re":[1,2,3,4,5,6]}`,
		`{"rows":2,"cols":2,"kind":"double","re":[1,2,3]}`,
		`{"rows":1,"cols":2,"kind":"double","re":[1,2],"im":[1]}`,
	} {
		req, err := http.NewRequest("PUT", tc.base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := tc.c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("PUT %s: %d, want 400", body, resp.StatusCode)
		}
		code, raw := tc.do("GET", path, nil)
		var eb errorBody
		if err := json.Unmarshal(raw, &eb); err != nil || code != http.StatusNotFound || eb.Kind != "no_variable" {
			t.Fatalf("GET after PUT %s: %d %s, want 404 no_variable", body, code, raw)
		}
	}
	if code, _, eb := tc.eval(id, "y = size(x,1); z = x';"); code != http.StatusUnprocessableEntity {
		t.Fatalf("eval of an unbound x: %d %+v, want 422", code, eb)
	}
}

// panicOut is an engine's output that raises the engine's cancel flag
// and panics on the first write, as a deadline firing into an engine
// fault would leave them.
type panicOut struct {
	eng   *core.Engine
	armed bool
}

func (p *panicOut) Write(b []byte) (int, error) {
	if p.armed {
		p.armed = false
		p.eng.Interrupt()
		panic("engine fault")
	}
	return len(b), nil
}

// TestEvalEpilogueRunsOnPanic: an eval the engine panics out of answers
// a 500 of kind internal, and still ends its generation, lowers the
// cancel flag and the in-flight gauge, so the session's next eval runs.
func TestEvalEpilogueRunsOnPanic(t *testing.T) {
	srv, tc := startServer(t, Options{Engine: core.Options{Tier: core.TierJIT}})
	id := tc.createSession()
	sess := srv.lookup(id)
	out := &panicOut{armed: true}
	out.eng = core.New(core.Options{Tier: core.TierJIT, Out: out})
	sess.eng = out.eng
	gen := sess.gen

	body, _ := json.Marshal(evalRequest{Src: "x = 6 * 7"})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/sessions/"+id+"/eval", bytes.NewReader(body)))
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusInternalServerError || eb.Kind != "internal" {
		t.Fatalf("eval the engine panicked out of: %d %s, want 500 internal", rec.Code, rec.Body)
	}
	if m := srv.Metrics(); m.Evals.Inflight != 0 || m.Panics != 1 {
		t.Errorf("after the panic: in-flight gauge %d, panics %d, want 0 and 1", m.Evals.Inflight, m.Panics)
	}
	if sess.gen != gen+1 {
		t.Errorf("generation after the panic: %d, want %d", sess.gen, gen+1)
	}
	if code, _, eb := tc.eval(id, "y = 6 * 7;"); code != http.StatusOK {
		t.Fatalf("eval after the panic: %d %+v", code, eb)
	}
}

// TestFlightRecorderEndpoints drives a tiered session hot enough to
// promote, then checks the three flight-recorder surfaces: the
// Prometheus exposition parses and covers the library families, the
// Chrome trace has eval/exec spans, and the journal attributes events.
func TestFlightRecorderEndpoints(t *testing.T) {
	_, tc := startServer(t, Options{
		Engine: core.Options{Tier: core.TierJIT, Tiered: true},
	})
	id := tc.createSession()
	tc.eval(id, "function y = fr(x)\ny = x + 1;\n")
	for i := 0; i < core.DefaultTierThreshold+4; i++ {
		if code, _, bad := tc.eval(id, "r = fr(2);"); code != http.StatusOK {
			t.Fatalf("eval %d: %+v", i, bad)
		}
	}

	// Prometheus exposition: valid 0.0.4 text covering every subsystem.
	code, body := tc.do("GET", "/metrics.prom", nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics.prom: %d", code)
	}
	n, err := telemetry.ValidatePrometheus(string(body))
	if err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	if n == 0 {
		t.Fatal("empty exposition")
	}
	for _, want := range []string{
		"majic_repo_lookups_total", "majic_queue_submitted_total",
		"majic_profile_entries_total", "majic_tier_promotions_total",
		"majic_persist_enabled", "majic_evals_total",
		"majic_route_latency_seconds_bucket", "majic_sessions_active",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("exposition missing %s:\n%s", want, body)
		}
	}

	// Chrome trace: loadable JSON with at least eval and exec spans.
	code, body = tc.do("GET", "/debug/trace", nil)
	if code != http.StatusOK {
		t.Fatalf("/debug/trace: %d", code)
	}
	var trace struct {
		TraceEvents []telemetry.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &trace); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	cats := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		cats[ev.Cat] = true
	}
	if !cats[telemetry.CatEval] || !cats[telemetry.CatExec] {
		t.Fatalf("trace categories = %v, want eval and exec", cats)
	}

	// Journal: the hot function's promotion is recorded with its cause.
	code, body = tc.do("GET", "/debug/events", nil)
	if code != http.StatusOK {
		t.Fatalf("/debug/events: %d", code)
	}
	var ev struct {
		Total  uint64            `json:"total"`
		Events []telemetry.Event `json:"events"`
	}
	if err := json.Unmarshal(body, &ev); err != nil {
		t.Fatalf("events not JSON: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		promoted := false
		for _, e := range ev.Events {
			if e.Kind == telemetry.EventPromotion && e.Func == "fr" && e.Cause != "" {
				promoted = true
			}
		}
		if promoted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no promotion journaled for fr: %+v", ev.Events)
		}
		time.Sleep(20 * time.Millisecond)
		_, body = tc.do("GET", "/debug/events", nil)
		json.Unmarshal(body, &ev)
	}
}

// TestDefaultDaemonRunsProduction: a majicd started without -tier builds
// Options{Engine: core.Production()}. Its sessions start interpreted, and
// DefaultTierThreshold calls of a hot signature promote it with a job on
// the shared library's compile pool. The pool exists because the session
// configuration compiles in the background: -repo-max=1 keeps it (and
// evicts when a second signature is promoted), -tier=jit has none.
func TestDefaultDaemonRunsProduction(t *testing.T) {
	for _, row := range []struct {
		name          string
		opts          Options
		pooled, evict bool
	}{
		{"default", Options{Engine: core.Production()}, true, false},
		{"repo-max=1", Options{Engine: core.Production(), Library: core.LibraryOptions{RepoMaxEntries: 1}}, true, true},
		{"tier=jit", Options{Engine: core.Options{Tier: core.TierJIT}}, false, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			srv, tc := startServer(t, row.opts)
			id := tc.createSession()
			if code, _, bad := tc.eval(id, "function y = hot(x)\ny = x * 2 + 1;\n"); code != http.StatusOK {
				t.Fatalf("define: %+v", bad)
			}
			for _, call := range []string{"r = hot(3);", "r = hot([1 2 3]);"} {
				for i := 0; i < core.DefaultTierThreshold; i++ {
					if code, _, bad := tc.eval(id, call); code != http.StatusOK {
						t.Fatalf("%s %d: %+v", call, i, bad)
					}
				}
				srv.Library().Drain()
			}
			m := tc.metrics()
			if row.pooled && (m.Queue.Submitted < 1 || m.Profile.Promotions < 1) {
				t.Fatalf("queue %+v, profile %+v: want a promotion compiled on the pool", m.Queue, m.Profile)
			}
			if !row.pooled && m.Queue.Submitted != 0 {
				t.Fatalf("queue %+v: a daemon whose sessions compile inline started a pool", m.Queue)
			}
			if (m.Repo.Evictions >= 1) != row.evict {
				t.Fatalf("repo %+v: evictions under the cap = %v, want %v", m.Repo, m.Repo.Evictions >= 1, row.evict)
			}
		})
	}
}

// repeatByte reads as an endless run of one byte.
type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestRequestBodiesAreBounded: an eval body past maxEvalBytes and a
// workspace body past maxWorkspaceBytes get a 413 with an errorBody of
// kind too_large, whether the length is declared up front or the body
// streams past the limit, and the session evaluates on afterwards.
func TestRequestBodiesAreBounded(t *testing.T) {
	srv := New(Options{Engine: core.Options{Tier: core.TierJIT}})
	defer srv.Shutdown(context.Background())
	rec := serve(t, srv, "POST", "/sessions", nil)
	var sess struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sess); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method, path, prefix string
		limit                int64
	}{
		{"POST", "/sessions/" + sess.ID + "/eval", `{"src":"x = 1; % `, maxEvalBytes},
		{"PUT", "/sessions/" + sess.ID + "/workspace/w", `{"rows":1,"cols":1,"kind":"double","re":[1],"name":"`, maxWorkspaceBytes},
	} {
		for _, declared := range []bool{true, false} {
			n := int64(len(tc.prefix)) + tc.limit
			req := httptest.NewRequest(tc.method, tc.path, io.MultiReader(strings.NewReader(tc.prefix), io.LimitReader(repeatByte('a'), tc.limit)))
			if declared {
				req.ContentLength = n
			}
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusRequestEntityTooLarge || eb.Kind != "too_large" {
				t.Fatalf("%s %s, %d bytes (declared %v): %d %s, want 413 too_large", tc.method, tc.path, n, declared, rec.Code, rec.Body)
			}
		}
	}
	body, _ := json.Marshal(evalRequest{Src: "x = 6 * 7"})
	if rec := serve(t, srv, "POST", "/sessions/"+sess.ID+"/eval", body); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "42") {
		t.Fatalf("eval after the refused bodies: %d %s", rec.Code, rec.Body)
	}
}
