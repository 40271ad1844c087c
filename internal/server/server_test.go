package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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
	_, tc := startServer(t, Options{Engine: core.Options{Tier: core.TierJIT}})
	a := tc.createSession()
	b := tc.createSession()

	if code, _, bad := tc.eval(a, "function y = cube(x)\ny = x * x * x;\n"); code != http.StatusOK {
		t.Fatalf("define: %+v", bad)
	}
	if code, _, bad := tc.eval(a, "r = cube(3);"); code != http.StatusOK {
		t.Fatalf("a call: %+v", bad)
	}
	inserts := tc.metrics().Repo.Inserts
	if inserts == 0 {
		t.Fatal("no repository insert after first call")
	}
	// b calls the function it never defined: shared library resolves
	// it, shared repository serves the compiled entry.
	code, _, bad := tc.eval(b, "r = cube(3);")
	if code != http.StatusOK {
		t.Fatalf("b call: %+v", bad)
	}
	m := tc.metrics()
	if m.Repo.Inserts != inserts {
		t.Fatalf("second session recompiled: inserts %d -> %d", inserts, m.Repo.Inserts)
	}
	if m.Repo.Hits == 0 {
		t.Fatal("second session's call did not hit the shared repository")
	}
	if !m.SharedRepo {
		t.Fatal("metrics must report shared_repo=true")
	}
	code, body := tc.do("GET", "/sessions/"+b+"/workspace/r", nil)
	var wv workspaceValue
	json.Unmarshal(body, &wv)
	if code != http.StatusOK || len(wv.Re) != 1 || wv.Re[0] != 27 {
		t.Fatalf("b result = %+v (%d)", wv, code)
	}
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

// TestIsolatedSessionsInheritLibraryOptions is the regression test for
// `majicd -isolated -async -workers=N -repo-max=K`: the flags filled only
// Options.Library, isolated sessions build their private libraries from
// Options.Engine, and so ran synchronous and unbounded. New reconciles
// the two structs; the compile of an isolated session's first call must
// show up as compile-queue traffic.
func TestIsolatedSessionsInheritLibraryOptions(t *testing.T) {
	srv, tc := startServer(t, Options{
		Engine:   core.Options{Tier: core.TierJIT},
		Library:  core.LibraryOptions{AsyncCompile: true, CompileWorkers: 2, RepoMaxEntries: 8},
		Isolated: true,
	})
	if e := srv.opts.Engine; !e.AsyncCompile || e.CompileWorkers != 2 || e.RepoMaxEntries != 8 {
		t.Fatalf("session engines did not inherit the library options: %+v", e)
	}
	id := tc.createSession()
	tc.eval(id, "function y = inc(x)\ny = x + 1;\n")
	if code, ok, bad := tc.eval(id, "r = inc(41)"); code != http.StatusOK || !strings.Contains(ok.Output, "42") {
		t.Fatalf("eval: %d %+v %+v", code, ok, bad)
	}
	if m := tc.metrics(); m.SharedRepo || m.Queue.Submitted < 1 {
		t.Fatalf("isolated -async daemon compiled inline: queue %+v", m.Queue)
	}
}

// TestConcurrentSessionLifecycle is the -race workout: goroutines
// create, eval against, and destroy sessions concurrently while two of
// them redefine a shared function.
func TestConcurrentSessionLifecycle(t *testing.T) {
	_, tc := startServer(t, Options{
		Engine:  core.Options{Tier: core.TierJIT},
		Library: core.LibraryOptions{AsyncCompile: true, CompileWorkers: 2, RepoMaxEntries: 8},
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
		Engine:  core.Options{Tier: core.TierJIT},
		Library: core.LibraryOptions{AsyncCompile: true},
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

// TestFlightRecorderEndpoints drives a tiered session hot enough to
// promote, then checks the three flight-recorder surfaces: the
// Prometheus exposition parses and covers the library families, the
// Chrome trace has eval/exec spans, and the journal attributes events.
func TestFlightRecorderEndpoints(t *testing.T) {
	_, tc := startServer(t, Options{
		Engine: core.Options{Tier: core.TierJIT, Tiered: true, TierThreshold: 3},
	})
	id := tc.createSession()
	tc.eval(id, "function y = fr(x)\ny = x + 1;\n")
	for i := 0; i < 12; i++ {
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
		"majic_profile_entries_total", "majic_osr_deopts_total",
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

// TestLoadGeneratorSmoke runs the -exp=server experiment at toy scale:
// both arms complete, the shared arm compiles no more than the
// isolated arm, and its hit rate is at least as high.
func TestLoadGeneratorSmoke(t *testing.T) {
	rep, err := LoadConfig{
		Clients:           2,
		SessionsPerClient: 2,
		CallsPerSession:   3,
		Benchmarks:        []string{"fibonacci"},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Arms) != 2 {
		t.Fatalf("arms = %d", len(rep.Arms))
	}
	shared, isolated := rep.Arms[0], rep.Arms[1]
	if shared.Mode != "shared" || isolated.Mode != "isolated" {
		t.Fatalf("arm order: %+v", rep.Arms)
	}
	for _, a := range rep.Arms {
		if a.Errors != 0 || a.Requests != 2*2*3 {
			t.Fatalf("%s arm: %+v", a.Mode, a)
		}
	}
	if shared.RepoInsert > isolated.RepoInsert {
		t.Fatalf("shared compiled more than isolated: %d > %d", shared.RepoInsert, isolated.RepoInsert)
	}
	if shared.HitRate < isolated.HitRate {
		t.Fatalf("shared hit rate %f < isolated %f", shared.HitRate, isolated.HitRate)
	}
}
