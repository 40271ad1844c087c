package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// The request mix: a stated guess at interactive traffic, not a measured
// trace. Cumulative shares of call, script, ws; the rest is churn.
const (
	shareCall   = 0.75
	shareScript = 0.85
	shareWS     = 0.95

	sessionsPerClient = 4
	scriptPool        = 8
	wsPool            = 4
	wsDim             = 60
	churnPool         = 16
	churnNames        = 4
	// opsPerRound is how many ops each client sends per "round" when the
	// smoke test fixes rounds instead of seconds.
	opsPerRound = 40
	// refEvery is how many requests a client sends per reference loop.
	// A loop before every request would halve the offered load (requests
	// take about as long as the loop); one in sixteen costs a tenth of
	// it and still sits within milliseconds of every request it scales.
	refEvery = 16
)

// listener is an HTTP handler served on a real loopback port.
type listener struct {
	hs   *http.Server
	base string
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) // returns when stop shuts the listener down
	return &listener{hs: hs, base: "http://" + ln.Addr().String()}, nil
}

// stop waits for in-flight requests and for the serving goroutine.
func (l *listener) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	return l.hs.Shutdown(ctx)
}

// daemon is one in-process majicd behind a listener.
type daemon struct {
	*listener
	srv *server.Server
}

// prodServer is the daemon configuration under test: the prod arm's
// engine options with the shared library, persisting to repoPath.
func prodServer(repoPath, nodeID string) server.Options {
	return server.Options{
		Engine:   armProd.options(nil),
		Library:  core.LibraryOptions{AsyncCompile: true, Tiered: true},
		RepoPath: repoPath,
		NodeID:   nodeID,
		// The daemon traces every request into a ring it keeps in
		// memory, by default 65536 spans (6 MiB), which a throttled run
		// does not fill: live_heap_mb read 7.9 MiB after 15 000 requests
		// and 11.8 after 35 000. An eighth of that is full within the
		// first seconds of any run.
		TraceCapacity: 1 << 13,
	}
}

func startDaemon(opts server.Options) (*daemon, error) {
	srv := server.New(opts)
	l, err := listen(srv.Handler())
	if err != nil {
		srv.Shutdown(context.Background()) // stops the reaper New started
		return nil, err
	}
	return &daemon{listener: l, srv: srv}, nil
}

// stop drains the HTTP server, then the daemon (which flushes the
// repository snapshot when it persists).
func (d *daemon) stop() error {
	err := d.listener.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if e := d.srv.Shutdown(ctx); err == nil {
		err = e
	}
	return err
}

// serve is the serve-mixed workload: GOMAXPROCS closed-loop clients, one
// keep-alive connection each and no think time, against one daemon that
// booted warm from a snapshot a cold daemon wrote during set-up.
type serve struct {
	outDir   string
	repoPath string
	seed     int64
	nclient  int
	refs     *mixRefs

	d       *daemon
	clients []*mixClient
	traced  bool

	last   server.MetricsSnapshot
	loaded int
}

func newServe(c config) *serve {
	return &serve{outDir: c.outDir, seed: c.seed, nclient: runtime.GOMAXPROCS(0)}
}

func (s *serve) setUp(tr *telemetry.Tracer) error {
	s.traced = tr != nil
	refs, err := buildMixRefs(s.seed, s.nclient)
	if err != nil {
		return err
	}
	s.refs = refs
	if err := os.MkdirAll(s.outDir, 0o755); err != nil {
		return err
	}
	s.repoPath = filepath.Join(s.outDir, fmt.Sprintf("repo-%d.snap", os.Getpid()))
	repoPath := s.repoPath
	os.Remove(repoPath) // a leftover snapshot would make the cold boot warm

	// Cold boot: compile everything the clients will call, then shut
	// down so the final flush writes the snapshot.
	coldD, err := startDaemon(prodServer(repoPath, ""))
	if err != nil {
		return err
	}
	if err := primeDaemon(coldD, refs); err != nil {
		coldD.stop()
		return fmt.Errorf("priming the cold daemon: %w", err)
	}
	if err := coldD.stop(); err != nil {
		return fmt.Errorf("stopping the cold daemon: %w", err)
	}

	// Warm boot from the snapshot. The daemon always traces into its
	// own ring; only the traced stretch needs one that holds a whole
	// stretch.
	opts := prodServer(repoPath, "")
	if s.traced {
		opts.TraceCapacity = 1 << 20
	}
	d, err := startDaemon(opts)
	if err != nil {
		return err
	}
	s.d = d
	s.loaded = d.srv.Metrics().Persist.Load.LoadedEntries
	if s.loaded == 0 {
		return fmt.Errorf("the warm boot restored no compiled entry from %s", repoPath)
	}
	s.clients, err = newMixClients(d.base, s.nclient, refs)
	return err
}

func (s *serve) tearDown() {
	for _, c := range s.clients {
		c.close()
	}
	s.clients = nil
	if s.d != nil {
		s.d.stop() // nothing to report to: the run's numbers are already taken
		s.d = nil
	}
	os.Remove(s.repoPath) // after the daemon's final flush, which rewrites it
}

func (s *serve) tracer() *telemetry.Tracer { return s.d.srv.Tracer() }

func (s *serve) measure(lim *limit, rng *rand.Rand) *recorder {
	var tr *telemetry.Tracer
	if s.traced {
		tr = s.d.srv.Tracer() // client spans share the daemon's ring and time base
	}
	rec := runMix(s.clients, lim, rng, tr)
	s.last = s.d.srv.Metrics()
	return rec
}

func (s *serve) counters() layerCounters {
	m := s.d.srv.Metrics()
	return layerCounters{repo: m.Repo, queue: m.Queue, profile: m.Profile, pool: m.BufferPool}
}

// serverMetrics reports the server layer: the daemon's own /metrics
// snapshot beside what its clients saw, by request kind. The HTTP cost
// around the eval route is the clients' mean eval latency minus the
// route's own mean (means, because the route histogram's quantiles are
// bucket bounds).
func serverMetrics(vals map[string]float64, m server.MetricsSnapshot, rec *recorder) {
	route := m.Routes["eval"]
	vals["server.eval_route_ms_p50"] = float64(route.P50US) / 1e3
	vals["server.rejected"] = float64(m.Evals.Rejected + m.Sessions.Rejected)
	vals["server.timeouts"] = float64(m.Evals.Timeouts)
	vals["server.sessions_created"] = float64(m.Sessions.Created)

	p50 := func(g string) float64 { return rec.rowGeomean(0.50, inGroup(g)) }
	vals["server.call_ms_p50"] = p50("call")
	vals["server.script_ms_p50"] = p50("script")
	vals["server.ws_ms_p50"] = p50("ws")
	vals["server.churn_ms_p50"] = p50("churn")
	vals["interp.script_ms"] = p50("script")
	var evals []float64
	sum := 0.0
	for _, rw := range rec.rows {
		if rw.group == "call" || rw.group == "script" {
			evals = append(evals, rw.ms...)
			for _, x := range rw.ms {
				sum += x
			}
		}
	}
	vals["server.http_overhead_ms"] = 0
	if len(evals) > 0 {
		vals["server.http_overhead_ms"] = sum/float64(len(evals)) - float64(route.MeanUS)/1e3
	}
	vals["server.eval_ms_p99"] = quantile(evals, 0.99)
	vals["server.evals_per_s"] = rec.windowRate()
	vals["server.run_evals_per_s"] = rec.meanRate()
}

// --- references --------------------------------------------------------------

// evalOp is one eval request and the output the interpreter gives it.
type evalOp struct {
	name string
	src  string
	want string
}

type wsOp struct {
	body []byte // the PUT body, marshalled once
	re   []float64
}

type churnOp struct {
	define string
	call   evalOp
}

// mixRefs is everything the clients send and the answers they must get,
// generated from the seed during set-up so that the timed stretch only
// sends, receives and compares.
type mixRefs struct {
	programs []program
	args     map[string][]*mat.Value
	calls    []evalOp // one per program
	scripts  []evalOp
	ws       []wsOp
	churn    [][]churnOp // per client: function names are client-private
}

func argVar(prog string, i int) string { return fmt.Sprintf("%s_a%d", prog, i+1) }

// callStatement prints the result with 17 significant digits, so the
// output text carries every bit of a scalar result.
func callStatement(p program, nargs int) string {
	var names []string
	for i := 0; i < nargs; i++ {
		names = append(names, argVar(p.name, i))
	}
	call := p.fn
	if nargs > 0 {
		call += "(" + strings.Join(names, ", ") + ")"
	}
	return fmt.Sprintf("fprintf('%%.17g\\n', %s);", call)
}

func buildMixRefs(seed int64, nclient int) (*mixRefs, error) {
	progs, err := lookupPrograms(serveSet)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	refs := &mixRefs{programs: progs, args: make(map[string][]*mat.Value)}

	// One interpreter engine answers every reference: the same
	// statements the clients will send, evaluated by TierInterp.
	var out bytes.Buffer
	opts := armInterp.options(nil)
	opts.Out = &out
	ref := core.New(opts)
	defer ref.Close()
	answer := func(src string) (string, error) {
		out.Reset()
		if err := ref.EvalString(src); err != nil {
			return "", fmt.Errorf("reference for %q: %w", src, err)
		}
		return out.String(), nil
	}

	for _, p := range progs {
		if err := ref.Define(p.source(bench.Small)); err != nil {
			return nil, err
		}
		args := p.args(bench.Small)
		refs.args[p.name] = args
		for i, a := range args {
			ref.SetWorkspace(argVar(p.name, i), a)
		}
		op := evalOp{name: "call:" + p.name, src: callStatement(p, len(args))}
		if op.want, err = answer(op.src); err != nil {
			return nil, err
		}
		refs.calls = append(refs.calls, op)
	}
	for i := 0; i < scriptPool; i++ {
		op := evalOp{name: "script", src: fmt.Sprintf("x = 1:%d; s = sum(x.^2) / %d; fprintf('%%.17g\\n', s);", 100+rng.Intn(300), 3+rng.Intn(5))}
		if op.want, err = answer(op.src); err != nil {
			return nil, err
		}
		refs.scripts = append(refs.scripts, op)
	}
	for i := 0; i < wsPool; i++ {
		re := make([]float64, wsDim*wsDim)
		for k := range re {
			re[k] = rng.NormFloat64()
		}
		body, err := json.Marshal(wsValue{Name: "w", Rows: wsDim, Cols: wsDim, Kind: mat.Real.String(), Re: re})
		if err != nil {
			return nil, err
		}
		refs.ws = append(refs.ws, wsOp{body: body, re: re})
	}
	for c := 0; c < nclient; c++ {
		var ops []churnOp
		for i := 0; i < churnPool; i++ {
			// Few names, many literals: most defines change a live
			// function's source, so the library re-registers and the
			// repository invalidates.
			fa := fmt.Sprintf("churn%d_%da", c, i%churnNames)
			fb := fmt.Sprintf("churn%d_%db", c, i%churnNames)
			lit := 1 + rng.Intn(1000)
			op := churnOp{
				define: fmt.Sprintf("function y = %s(x)\n  y = %s(x)*%d + 1;\nend\nfunction y = %s(x)\n  y = x^2 - %d/7;\nend\n", fa, fb, lit, fb, lit),
				call:   evalOp{name: "churn", src: fmt.Sprintf("fprintf('%%.17g\\n', %s(3));", fa)},
			}
			if _, err := answer(op.define); err != nil {
				return nil, err
			}
			if op.call.want, err = answer(op.call.src); err != nil {
				return nil, err
			}
			ops = append(ops, op)
		}
		refs.churn = append(refs.churn, ops)
	}
	return refs, nil
}

// --- the daemon protocol -----------------------------------------------------

// wsValue is the JSON shape of a workspace variable.
type wsValue struct {
	Name string    `json:"name"`
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Kind string    `json:"kind"`
	Re   []float64 `json:"re,omitempty"`
	Im   []float64 `json:"im,omitempty"`
	Text string    `json:"text,omitempty"`
}

// conn is one client's keep-alive connection to a daemon or gateway.
type conn struct {
	base string
	hc   *http.Client
}

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		Timeout:   2 * time.Minute,
	}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the response body; any status of 400
// or above is an error (a refusal counts as a failed op).
func (c *conn) do(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

func (c *conn) create(key string) (string, error) {
	body, err := json.Marshal(map[string]string{"key": key})
	if err != nil {
		return "", err
	}
	raw, err := c.do("POST", "/sessions", body)
	if err != nil {
		return "", err
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", err
	}
	return v.ID, nil
}

func (c *conn) destroy(id string) error {
	_, err := c.do("DELETE", "/sessions/"+id, nil)
	return err
}

// eval sends src and returns the output text.
func (c *conn) eval(id, src string) (string, error) {
	body, err := json.Marshal(map[string]string{"src": src})
	if err != nil {
		return "", err
	}
	raw, err := c.do("POST", "/sessions/"+id+"/eval", body)
	if err != nil {
		return "", err
	}
	var v struct {
		Output string `json:"output"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", err
	}
	return v.Output, nil
}

// evalCheck is eval plus the comparison with the reference output.
func (c *conn) evalCheck(id string, op evalOp) error {
	got, err := c.eval(id, op.src)
	if err != nil {
		return err
	}
	if got != op.want {
		return fmt.Errorf("output %q differs from reference %q", got, op.want)
	}
	return nil
}

func (c *conn) putValue(id, name string, v *mat.Value) error {
	body, err := json.Marshal(wsValue{Name: name, Rows: v.Rows(), Cols: v.Cols(), Kind: v.Kind().String(), Re: v.Re(), Im: v.Im()})
	if err != nil {
		return err
	}
	_, err = c.do("PUT", "/sessions/"+id+"/workspace/"+name, body)
	return err
}

// openSession creates a session that can serve every call op: sources
// defined (a no-op on a library that already holds them) and arguments
// bound.
func (c *conn) openSession(key string, refs *mixRefs) (string, error) {
	id, err := c.create(key)
	if err != nil {
		return "", err
	}
	for _, p := range refs.programs {
		if _, err := c.eval(id, p.source(bench.Small)); err != nil {
			return "", fmt.Errorf("define %s: %w", p.name, err)
		}
		for i, a := range refs.args[p.name] {
			if err := c.putValue(id, argVar(p.name, i), a); err != nil {
				return "", err
			}
		}
	}
	return id, nil
}

// primeDaemon makes a cold daemon compile what the clients will call:
// every program called past the promotion threshold, then drained so
// the optimized entries are published before the snapshot is flushed.
func primeDaemon(d *daemon, refs *mixRefs) error {
	c := newConn(d.base)
	defer c.close()
	id, err := c.openSession("prime", refs)
	if err != nil {
		return err
	}
	for _, op := range refs.calls {
		for i := 0; i < promotionCalls; i++ {
			if err := c.evalCheck(id, op); err != nil {
				return fmt.Errorf("%s: %w", op.name, err)
			}
		}
	}
	d.srv.Library().Drain()
	return c.destroy(id)
}

// --- clients -----------------------------------------------------------------

// mixClient is one closed-loop client: it sends its next request when
// the previous answer has arrived.
type mixClient struct {
	idx      int
	c        *conn
	refs     *mixRefs
	sessions []string
	next     int
	// ref is the client's latest reference-loop time; the next refEvery
	// ops are measured against it.
	ref time.Duration
}

func newMixClients(base string, n int, refs *mixRefs) ([]*mixClient, error) {
	var out []*mixClient
	for i := 0; i < n; i++ {
		mc := &mixClient{idx: i, c: newConn(base), refs: refs}
		out = append(out, mc)
		for k := 0; k < sessionsPerClient; k++ {
			id, err := mc.c.openSession(fmt.Sprintf("c%ds%d", i, k), refs)
			if err != nil {
				return out, err
			}
			mc.sessions = append(mc.sessions, id)
		}
	}
	return out, nil
}

func (mc *mixClient) close() {
	for _, id := range mc.sessions {
		mc.c.destroy(id) // the daemon is shut down right after; a failed delete loses nothing
	}
	mc.c.close()
}

// runMix drives every client until lim ends and merges what they saw.
func runMix(clients []*mixClient, lim *limit, rng *rand.Rand, tr *telemetry.Tracer) *recorder {
	recs := make([]*recorder, len(clients))
	var wg sync.WaitGroup
	for i, mc := range clients {
		recs[i] = newRecorder()
		wg.Add(1)
		go func(mc *mixClient, rec *recorder, rng *rand.Rand) {
			defer wg.Done()
			for n := 0; lim.moreOps(n); n++ {
				mc.op(rng, lim, rec, tr)
			}
		}(mc, recs[i], rand.New(rand.NewSource(rng.Int63())))
	}
	wg.Wait()
	rec := newRecorder()
	for _, r := range recs {
		rec.merge(r)
	}
	rec.wall = lim.since()
	return rec
}

// op sends one request of a seeded kind and checks the answer.
func (mc *mixClient) op(rng *rand.Rand, lim *limit, rec *recorder, tr *telemetry.Tracer) {
	if mc.next%refEvery == 0 {
		mc.ref = refLoop()
	}
	id := mc.sessions[mc.next%len(mc.sessions)]
	mc.next++
	var name, group string
	var err error
	t0 := time.Now()
	switch u := rng.Float64(); {
	case u < shareCall:
		op := mc.refs.calls[rng.Intn(len(mc.refs.calls))]
		name, group = op.name, "call"
		err = mc.c.evalCheck(id, op)
	case u < shareScript:
		op := mc.refs.scripts[rng.Intn(len(mc.refs.scripts))]
		name, group = op.name, "script"
		err = mc.c.evalCheck(id, op)
	case u < shareWS:
		name, group = "ws", "ws"
		err = mc.wsRoundTrip(id, mc.refs.ws[rng.Intn(len(mc.refs.ws))])
	default:
		name, group = "churn", "churn"
		pool := mc.refs.churn[mc.idx]
		err = mc.churn(pool[rng.Intn(len(pool))])
	}
	d := time.Since(t0)
	tr.SpanArgs(catOp, name, opLane+mc.idx, t0, d, nil)
	rec.add(name, group, true, d, mc.ref, lim.since(), err)
}

// wsRoundTrip PUTs a matrix and GETs it back: the JSON codec and the
// session lock without the evaluator.
func (mc *mixClient) wsRoundTrip(id string, op wsOp) error {
	path := "/sessions/" + id + "/workspace/w"
	if _, err := mc.c.do("PUT", path, op.body); err != nil {
		return err
	}
	raw, err := mc.c.do("GET", path, nil)
	if err != nil {
		return err
	}
	var got wsValue
	if err := json.Unmarshal(raw, &got); err != nil {
		return err
	}
	if got.Rows != wsDim || got.Cols != wsDim || len(got.Re) != len(op.re) {
		return fmt.Errorf("workspace GET returned %dx%d with %d elements", got.Rows, got.Cols, len(got.Re))
	}
	for i, x := range op.re {
		if math.Float64bits(got.Re[i]) != math.Float64bits(x) {
			return fmt.Errorf("workspace GET element %d: bits differ from what was PUT", i)
		}
	}
	return nil
}

// churn is a whole short-lived session: create, define two functions,
// evaluate once, delete — the session table and library registration.
func (mc *mixClient) churn(op churnOp) error {
	id, err := mc.c.create(fmt.Sprintf("c%dchurn%d", mc.idx, mc.next))
	if err != nil {
		return err
	}
	if _, err := mc.c.eval(id, op.define); err != nil {
		mc.c.destroy(id)
		return err
	}
	if err := mc.c.evalCheck(id, op.call); err != nil {
		mc.c.destroy(id)
		return err
	}
	return mc.c.destroy(id)
}
