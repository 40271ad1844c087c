// Package server implements majicd, the multi-session evaluation
// daemon: an HTTP/JSON front end hosting many concurrent MATLAB
// sessions, each backed by its own core.Engine workspace, all sharing
// one process-wide code library — so one session's JIT compile of
// qmr(A,b) warms every other session's locator (the paper's repository
// amortization story, lifted from one interactive process to a server).
//
// Production shape:
//
//   - bounded admission — a semaphore caps concurrently executing
//     evaluations, and the session table is capped with idle-TTL
//     eviction by a background reaper;
//   - per-request deadlines — a watchdog raises the session engine's
//     cooperative cancel flag, which the interpreter and VM poll at
//     loop back-edges, so `while 1; end` dies without killing the
//     process;
//   - graceful shutdown — the HTTP server drains in-flight evals, the
//     reaper stops, sessions close, and the shared compile queue shuts
//     down;
//   - observability — /metrics exposes repository hit/miss/speculative
//     counters, compile-queue stats, parallel-pool stats, and
//     per-route latency histograms; /debug/pprof is wired in.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/compilequeue"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/persist"
	"repro/internal/profile"
	"repro/internal/repo"
	"repro/internal/reuse"
	"repro/internal/telemetry"
)

// Options configure a Server.
type Options struct {
	// Engine is the base configuration for every session engine (tier,
	// fusion, threads, ...). Library and Out are overwritten per
	// session.
	Engine core.Options
	// Library configures the process-wide shared code library every
	// session attaches to (compile pool, repository entry cap). New
	// starts its pool whenever Engine compiles in the background.
	Library core.LibraryOptions
	// RepoPath persists the shared repository to this file: warm-start
	// on boot (stale/corrupt snapshots fall back to a cold start), then
	// write-behind snapshots on repository changes and a final flush on
	// drain.
	RepoPath string
	// NodeID names this daemon in a cluster: stamped on /readyz,
	// /cluster/digest, and /metrics, and recorded as the origin of
	// entries this node replicates to peers. Only a daemon with a NodeID
	// mounts the /cluster routes. majicd leaves it empty; only the
	// benchmark's fleet probe sets it.
	NodeID string

	// MaxSessions caps the session table (default 256); creates beyond
	// the cap are rejected with 503 until the reaper or a DELETE frees
	// a slot.
	MaxSessions int
	// MaxConcurrentEvals caps simultaneously executing evaluations
	// (default 2×GOMAXPROCS). Arrivals beyond the cap queue up to
	// admissionTimeout, then bounce with 503.
	MaxConcurrentEvals int
	// IdleTTL evicts sessions idle longer than this (default 15m;
	// negative disables eviction).
	IdleTTL time.Duration
	// MaxDeadline caps (and, when a request names none, supplies) the
	// per-eval deadline (default 60s; negative = unlimited).
	MaxDeadline time.Duration

	// Logger receives structured request logs (route, session, status,
	// duration, deadline). Nil discards them, and no record is built.
	Logger *slog.Logger
	// TraceCapacity bounds the in-memory span ring served at
	// /debug/trace (0 = telemetry.DefaultTraceCapacity). The ring keeps
	// the most recent window, which is what an operator debugging "why
	// is it slow now" wants from a long-lived daemon.
	TraceCapacity int
}

// admissionTimeout bounds how long an eval waits for an execution slot.
const admissionTimeout = 10 * time.Second

func (o Options) withDefaults() Options {
	if o.MaxSessions == 0 {
		o.MaxSessions = 256
	}
	if o.MaxConcurrentEvals == 0 {
		o.MaxConcurrentEvals = 2 * runtime.GOMAXPROCS(0)
	}
	if o.IdleTTL == 0 {
		o.IdleTTL = 15 * time.Minute
	}
	if o.MaxDeadline == 0 {
		o.MaxDeadline = 60 * time.Second
	}
	return o
}

// Server is the evaluation daemon.
type Server struct {
	opts Options
	// lib is the shared code library every session engine attaches to.
	lib     *core.Library
	metrics *serverMetrics
	evalSem chan struct{}
	mux     *http.ServeMux
	logger  *slog.Logger

	// The flight-recorder rings: tracer → /debug/trace, journal →
	// /debug/events. Both are shared by every session engine and the
	// library.
	tracer  *telemetry.Tracer
	journal *telemetry.Journal

	// boot is drawn at random when the server is made and ends every
	// session id, so an id from before a restart names no session after
	// it (DESIGN §12).
	boot uint64

	mu       sync.Mutex
	sessions map[string]*session
	nextID   uint64
	draining bool

	reaperStop chan struct{}
	reaperDone chan struct{}
}

// New creates a Server (not yet listening; use Handler with an
// http.Server, or ListenAndServe in cmd/majicd).
func New(opts Options) *Server {
	opts = opts.withDefaults()
	// Sessions that compile in the background need the shared library's
	// pool; without one they would compile inline.
	if opts.Engine.AsyncCompile || opts.Engine.Tiered {
		opts.Library.AsyncCompile = true
	}
	tracer := telemetry.NewTracer(opts.TraceCapacity)
	// Every session engine traces into the daemon's ring; the library
	// journals into the daemon's event buffer.
	journal := telemetry.NewJournal(telemetry.DefaultJournalCapacity)
	opts.Engine.Tracer = tracer
	opts.Library.Tracer = tracer
	opts.Library.Journal = journal
	logger := opts.Logger
	if logger == nil {
		// A handler no level reaches, so Enabled is false and no record
		// is built (slog.DiscardHandler, which the module's go line
		// predates).
		logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	s := &Server{
		opts:       opts,
		metrics:    newServerMetrics(),
		evalSem:    make(chan struct{}, opts.MaxConcurrentEvals),
		sessions:   make(map[string]*session),
		reaperStop: make(chan struct{}),
		reaperDone: make(chan struct{}),
		logger:     logger,
		lib:        core.NewLibrary(opts.Library),
		tracer:     tracer,
		journal:    journal,
		boot:       rand.Uint64(),
	}
	if opts.RepoPath != "" {
		// Warm start before the first session exists; any load failure
		// is recorded in /metrics and means a cold start, never a
		// refusal to boot. Saves use the writer's default debounce.
		s.lib.EnablePersistence(opts.RepoPath, 0)
	}
	s.mux = http.NewServeMux()
	s.routes()
	go s.reaper()
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux.HandleFunc("POST /sessions", s.timed("create", s.handleCreate))
	s.mux.HandleFunc("DELETE /sessions/{id}", s.timed("destroy", s.handleDestroy))
	s.mux.HandleFunc("POST /sessions/{id}/eval", s.timed("eval", s.handleEval))
	s.mux.HandleFunc("GET /sessions/{id}/workspace/{name}", s.timed("workspace", s.handleWorkspace))
	s.mux.HandleFunc("PUT /sessions/{id}/workspace/{name}", s.timed("workspace", s.handleWorkspaceSet))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics.prom", s.handleMetricsProm)
	s.mux.HandleFunc("GET /debug/trace", s.handleTrace)
	s.mux.HandleFunc("GET /debug/events", s.handleEvents)
	// Liveness vs readiness: /healthz answers "is the process up" and
	// never flips — a draining daemon is still alive and must not be
	// restarted by its supervisor mid-drain. /readyz answers "should a
	// router send traffic here" and goes 503 the moment draining starts,
	// so a load balancer stops placing sessions before shutdown bites.
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	if s.opts.NodeID != "" {
		s.mux.HandleFunc("POST /cluster/ingest", s.timed("ingest", s.handleClusterIngest))
		s.mux.HandleFunc("GET /cluster/digest", s.handleClusterDigest)
	}
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// statusRecorder captures the response status for request logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// timed wraps a handler with its route's latency histogram, a panic
// guard and a structured request log (route, method, session, status,
// duration). The record is at Debug, a 5xx's at Warn and a panic's at
// Error, and its attributes are built only when the logger takes it. A
// handler that panics answers a 500 of kind internal when it has written
// nothing yet, and counts in /metrics; net/http never sees the panic, so
// the connection lives on.
func (s *Server) timed(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sr := &statusRecorder{ResponseWriter: w}
		panicked, stack := guard(h, sr, r)
		if panicked != nil {
			s.metrics.panics.Add(1)
			if sr.status == 0 {
				writeJSON(sr, http.StatusInternalServerError, errorBody{Error: "internal error in route " + route, Kind: "internal"})
			}
		}
		d := time.Since(t0)
		s.metrics.observe(route, d)
		status := sr.status
		if status == 0 {
			status = http.StatusOK
		}
		level := slog.LevelDebug
		switch {
		case panicked != nil:
			level = slog.LevelError
		case status >= http.StatusInternalServerError:
			level = slog.LevelWarn
		}
		ctx := r.Context()
		if !s.logger.Enabled(ctx, level) {
			return
		}
		attrs := []slog.Attr{
			slog.String("route", route),
			slog.String("method", r.Method),
			slog.Int("status", status),
			slog.Duration("duration", d),
		}
		if id := r.PathValue("id"); id != "" {
			attrs = append(attrs, slog.String("session", id))
		}
		if panicked != nil {
			attrs = append(attrs, slog.String("panic", fmt.Sprint(panicked)), slog.String("stack", string(stack)))
		}
		s.logger.LogAttrs(ctx, level, "request", attrs...)
	}
}

// guard runs h, and returns what it panicked with, if anything, and the
// stack it panicked on. http.ErrAbortHandler, net/http's own way to
// drop a connection, goes on up.
func guard(h http.HandlerFunc, w http.ResponseWriter, r *http.Request) (panicked any, stack []byte) {
	defer func() {
		if panicked = recover(); panicked == http.ErrAbortHandler {
			panic(panicked)
		} else if panicked != nil {
			stack = debug.Stack()
		}
	}()
	h(w, r)
	return nil, nil
}

// Request and response bodies pass through pooled buffers. A request
// buffer is sized from the declared length, but never above
// maxPooledBuffer up front, and grows as bytes arrive up to the route's
// limit; a buffer that grew past maxPooledBuffer goes to the collector,
// not back to the pool.
const maxPooledBuffer = 1 << 20

var buffers reuse.Pool[bytes.Buffer]

func takeBuffer() *bytes.Buffer {
	b := buffers.Get()
	b.Reset()
	return b
}

func releaseBuffer(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuffer {
		buffers.Put(b)
	}
}

// writeJSON answers with v's encoding and its Content-Length. It encodes
// before it writes the status, so a value that does not encode is a 500
// with an errorBody, never a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := takeBuffer()
	defer releaseBuffer(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		json.NewEncoder(buf).Encode(errorBody{Error: "response does not encode: " + err.Error()})
		status = http.StatusInternalServerError
	}
	writeBuffer(w, status, buf)
}

// writeBuffer answers with the JSON document in buf.
func writeBuffer(w http.ResponseWriter, status int, buf *bytes.Buffer) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}

type errorBody struct {
	Error string `json:"error"`
	// Kind machine-classifies the error. Session-scoped 404s use
	// "no_session" (unknown or closed session: a client must create a
	// new one and rebuild its workspace) while a missing workspace
	// variable is "no_variable" (the session lives on). A create refused
	// by a draining daemon is "draining", a request body past its limit
	// "too_large", a GET of a variable holding NaN or ±Inf, which JSON
	// cannot carry, "non_finite", and a GET of a sparse variable, which
	// the wire has no form for, "sparse". A handler that panicked answers
	// "internal".
	Kind string `json:"kind,omitempty"` // "timeout" | "saturated" | "no_session" | "no_variable" | "draining" | "too_large" | "non_finite" | "sparse" | "internal"
}

// Request body limits: an eval body carries one program's source, a
// workspace PUT one value's elements as JSON numbers.
const (
	maxEvalBytes      = 1 << 20
	maxWorkspaceBytes = 64 << 20
)

// decodeBody reads r's body once into a pooled buffer, reading at most
// limit bytes, and decodes the buffer into v with json.Unmarshal. When
// the body is too large (413, before reading any of it when its declared
// length already is) or does not decode (400: bytes after the JSON value
// included), it answers the request itself and returns false. v keeps
// no reference into the buffer: json.Unmarshal copies strings, and
// floats parses its numbers out.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	buf := takeBuffer()
	defer releaseBuffer(buf)
	var err error
	if r.ContentLength > limit {
		err = &http.MaxBytesError{Limit: limit}
	} else {
		if r.ContentLength > 0 {
			// MinRead of headroom: ReadFrom asks for that much free space
			// before the read that finds the end of the body.
			buf.Grow(int(min(r.ContentLength+bytes.MinRead, maxPooledBuffer)))
		}
		if _, err = buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err == nil {
			err = json.Unmarshal(buf.Bytes(), v)
		}
	}
	if err == nil {
		return true
	}
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", limit), Kind: "too_large"})
	} else {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
	}
	return false
}

// --- session lifecycle -------------------------------------------------------

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server shutting down", Kind: "draining"})
		return
	}
	if len(s.sessions) >= s.opts.MaxSessions {
		s.mu.Unlock()
		s.metrics.sessionsRejected.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "session table full", Kind: "saturated"})
		return
	}
	s.nextID++
	id := fmt.Sprintf("s%d-%016x", s.nextID, s.boot)
	sess := newSession(id, s.opts.Engine, s.lib)
	sess.touch()
	s.sessions[id] = sess
	s.mu.Unlock()
	s.metrics.sessionsCreated.Add(1)
	writeJSON(w, http.StatusCreated, map[string]string{"id": id})
}

func (s *Server) lookup(id string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

func (s *Server) handleDestroy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if sess == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown session", Kind: "no_session"})
		return
	}
	sess.close()
	w.WriteHeader(http.StatusNoContent)
}

// --- evaluation --------------------------------------------------------------

type evalRequest struct {
	Src        string `json:"src"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
}

type evalResponse struct {
	Output    string `json:"output"`
	ElapsedUS int64  `json:"elapsed_us"`
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown session", Kind: "no_session"})
		return
	}
	var req evalRequest
	if !decodeBody(w, r, maxEvalBytes, &req) {
		return
	}

	// Bounded admission: wait for an execution slot, give up after
	// admissionTimeout (or when the client hangs up).
	admit := time.NewTimer(admissionTimeout)
	defer admit.Stop()
	select {
	case s.evalSem <- struct{}{}:
		defer func() { <-s.evalSem }()
	case <-admit.C:
		s.metrics.evalsRejected.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "eval capacity saturated", Kind: "saturated"})
		return
	case <-r.Context().Done():
		s.metrics.evalsRejected.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "client gone", Kind: "saturated"})
		return
	}

	deadline := time.Duration(req.DeadlineMS) * time.Millisecond
	if s.opts.MaxDeadline > 0 && (deadline <= 0 || deadline > s.opts.MaxDeadline) {
		deadline = s.opts.MaxDeadline
	}
	if ctx := r.Context(); s.logger.Enabled(ctx, slog.LevelDebug) {
		s.logger.LogAttrs(ctx, slog.LevelDebug, "eval",
			slog.String("session", r.PathValue("id")),
			slog.Duration("deadline", deadline),
			slog.Int("src_bytes", len(req.Src)))
	}

	s.metrics.evalsInflight.Add(1)
	defer s.metrics.evalsInflight.Add(-1) // on every exit, a panic in the engine included
	t0 := time.Now()
	out, timedOut, err := sess.eval(req.Src, deadline)
	elapsed := time.Since(t0)
	s.metrics.evalsTotal.Add(1)

	switch {
	case timedOut:
		s.metrics.evalsTimeouts.Add(1)
		writeJSON(w, http.StatusRequestTimeout, errorBody{
			Error: fmt.Sprintf("deadline exceeded after %s", deadline), Kind: "timeout",
		})
	case err == errSessionClosed:
		writeJSON(w, http.StatusNotFound, errorBody{Error: "session closed", Kind: "no_session"})
	case err != nil:
		s.metrics.evalsErrors.Add(1)
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusOK, evalResponse{Output: out, ElapsedUS: elapsed.Microseconds()})
	}
}

func (s *Server) handleWorkspace(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown session", Kind: "no_session"})
		return
	}
	buf := takeBuffer()
	defer releaseBuffer(buf)
	ok, err := sess.workspaceGet(r.PathValue("name"), buf)
	var refused *refusal
	switch {
	case !ok:
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such variable", Kind: "no_variable"})
	case errors.As(err, &refused):
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: err.Error(), Kind: refused.kind})
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	default:
		writeBuffer(w, http.StatusOK, buf)
	}
}

func (s *Server) handleWorkspaceSet(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.PathValue("id"))
	if sess == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown session", Kind: "no_session"})
		return
	}
	var wv workspaceValue
	if !decodeBody(w, r, maxWorkspaceBytes, &wv) {
		return
	}
	if err := sess.workspaceSet(r.PathValue("name"), &wv); err != nil {
		if err == errSessionClosed {
			writeJSON(w, http.StatusNotFound, errorBody{Error: "session closed", Kind: "no_session"})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- metrics -----------------------------------------------------------------

// MetricsSnapshot is the /metrics JSON payload. Its metric tags (and
// those of the Stats structs it nests) declare the /metrics.prom
// families; see internal/telemetry/fields.go.
type MetricsSnapshot struct {
	Sessions struct {
		Active   int    `json:"active" metric:"majic_sessions_active,gauge" help:"Live sessions in the table."`
		Created  uint64 `json:"created" metric:"majic_sessions_created_total,counter" help:"Sessions ever created."`
		Evicted  uint64 `json:"evicted_idle" metric:"majic_sessions_evicted_total,counter" help:"Sessions reaped by the idle TTL."`
		Rejected uint64 `json:"rejected" metric:"majic_sessions_rejected_total,counter" help:"Creates bounced by the session cap."`
	} `json:"sessions"`
	Evals struct {
		Total    uint64 `json:"total" metric:"majic_evals_total,counter" help:"Evaluations executed."`
		Errors   uint64 `json:"errors" metric:"majic_eval_errors_total,counter" help:"Evaluations that returned a program error."`
		Timeouts uint64 `json:"timeouts" metric:"majic_eval_timeouts_total,counter" help:"Evaluations killed by their deadline."`
		Rejected uint64 `json:"rejected" metric:"majic_eval_rejected_total,counter" help:"Evaluations bounced by admission control."`
		Inflight int64  `json:"inflight" metric:"majic_evals_inflight,gauge" help:"Evaluations currently executing."`
	} `json:"evals"`
	Repo  repo.Stats         `json:"repo"`
	Queue compilequeue.Stats `json:"queue"`
	// Profile reports the tiering pipeline: interpreted activations and
	// promotions to QualityOpt. All zero when no session runs tiered.
	Profile  profile.Stats `json:"profile"`
	Parallel struct {
		Threads int `json:"threads" metric:"majic_parallel_threads,gauge" help:"Worker threads configured for parallel loops."`
		Workers int `json:"workers" metric:"majic_parallel_workers,gauge" help:"Parallel pool workers currently alive."`
	} `json:"parallel"`
	BufferPool mat.PoolStats           `json:"buffer_pool"`
	Routes     map[string]RouteMetrics `json:"routes" metric:"-"` // exposed as majic_route_latency_seconds
	// Persist reports the repository persistence surface: warm-start
	// load/reject counters and write-behind save counters. Enabled is
	// false when the daemon runs without -repo-path.
	Persist persist.Metrics `json:"persist"`
	// Node is the cluster node ID (empty standalone). Ingest counts
	// replication records received from peers.
	Node   string      `json:"node,omitempty" metric:"-"`
	Ingest IngestStats `json:"ingest"`
	// Panics counts handler panics, each answered with a 500 of kind
	// internal when nothing was written yet.
	Panics uint64 `json:"panics" metric:"majic_handler_panics_total,counter" help:"Handler panics, each answered with a 500 of kind internal."`
}

// IngestStats counts /cluster/ingest traffic (records received from
// peers), by outcome.
type IngestStats struct {
	Applied  uint64 `json:"applied" metric:"majic_cluster_ingest_applied_total,counter" help:"Peer replication records applied."`
	Dropped  uint64 `json:"dropped" metric:"majic_cluster_ingest_dropped_total,counter" help:"Peer records dropped by staleness/duplicate guards."`
	Rejected uint64 `json:"rejected" metric:"majic_cluster_ingest_rejected_total,counter" help:"Peer records rejected as invalid."`
}

// Metrics returns the current snapshot (also served at /metrics).
func (s *Server) Metrics() MetricsSnapshot {
	var ms MetricsSnapshot
	s.mu.Lock()
	ms.Sessions.Active = len(s.sessions)
	s.mu.Unlock()

	ms.Sessions.Created = s.metrics.sessionsCreated.Load()
	ms.Sessions.Evicted = s.metrics.sessionsEvicted.Load()
	ms.Sessions.Rejected = s.metrics.sessionsRejected.Load()
	ms.Evals.Total = s.metrics.evalsTotal.Load()
	ms.Evals.Errors = s.metrics.evalsErrors.Load()
	ms.Evals.Timeouts = s.metrics.evalsTimeouts.Load()
	ms.Evals.Rejected = s.metrics.evalsRejected.Load()
	ms.Evals.Inflight = s.metrics.evalsInflight.Load()

	ms.Repo = s.lib.Repo().Stats()
	ms.Queue = s.lib.QueueStats()
	ms.Profile = s.lib.ProfileStats()
	ms.Persist = s.lib.PersistMetrics()
	ms.Node = s.opts.NodeID
	ms.Ingest.Applied = s.metrics.ingestApplied.Load()
	ms.Ingest.Dropped = s.metrics.ingestDropped.Load()
	ms.Ingest.Rejected = s.metrics.ingestRejected.Load()
	ms.Panics = s.metrics.panics.Load()
	ms.Parallel.Threads = parallel.DefaultThreads()
	ms.Parallel.Workers = parallel.Workers()
	ms.BufferPool = mat.ReadPoolStats()
	ms.Routes = make(map[string]RouteMetrics, len(s.metrics.routes))
	for name, h := range s.metrics.routes {
		ms.Routes[name] = h.snapshot()
	}
	return ms
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// handleMetricsProm serves the same counters as /metrics in Prometheus
// text exposition format 0.0.4.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := telemetry.WritePrometheus(w, s.samples()); err != nil {
		s.logger.Warn("prometheus write failed", slog.String("error", err.Error()))
	}
}

// handleTrace streams the span ring as Chrome trace-event JSON —
// loadable directly in chrome://tracing or Perfetto.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="majic-trace.json"`)
	if err := s.tracer.WriteJSON(w); err != nil {
		s.logger.Warn("trace write failed", slog.String("error", err.Error()))
	}
}

// handleEvents serves the tiering event journal: promotions,
// evictions, snapshot I/O, and return-guard deopts.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"total":  s.journal.Total(),
		"events": s.journal.Events(),
	})
}

// Library returns the shared code library every session attaches to.
func (s *Server) Library() *core.Library { return s.lib }

// Tracer exposes the daemon-wide span ring.
func (s *Server) Tracer() *telemetry.Tracer { return s.tracer }

// Journal exposes the daemon-wide tiering event journal.
func (s *Server) Journal() *telemetry.Journal { return s.journal }

// samples renders the full daemon state as telemetry samples: every
// metric-tagged field of the /metrics snapshot (library and daemon
// families alike), then the samples that are not snapshot
// fields. Both endpoints read one snapshot, so they can never disagree
// (TestMetricsViewsAgree).
func (s *Server) samples() []telemetry.Sample {
	out := telemetry.Emit(nil, s.Metrics())
	out = append(out,
		telemetry.Sample{Name: "majic_journal_events_total", Help: "Tiering events ever recorded.",
			Kind: telemetry.KindCounter, Value: float64(s.journal.Total())},
		telemetry.Sample{Name: "majic_journal_retained", Help: "Tiering events currently retained.",
			Kind: telemetry.KindGauge, Value: float64(s.journal.Len())},
		telemetry.Sample{Name: "majic_trace_spans_dropped_total", Help: "Trace spans dropped by the bounded ring.",
			Kind: telemetry.KindCounter, Value: float64(s.tracer.Dropped())})

	routes := make([]string, 0, len(s.metrics.routes))
	for name := range s.metrics.routes {
		routes = append(routes, name)
	}
	sort.Strings(routes)
	for _, name := range routes {
		out = append(out, s.metrics.routes[name].sample(
			"majic_route_latency_seconds", "Request latency by route.",
			telemetry.Label{Key: "route", Value: name}))
	}
	return out
}

// --- idle eviction -----------------------------------------------------------

func (s *Server) reaper() {
	defer close(s.reaperDone)
	if s.opts.IdleTTL < 0 {
		<-s.reaperStop
		return
	}
	tick := s.opts.IdleTTL / 4
	if tick < time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.reaperStop:
			return
		case now := <-t.C:
			var dead []*session
			s.mu.Lock()
			for id, sess := range s.sessions {
				if sess.idleSince(now) > s.opts.IdleTTL {
					delete(s.sessions, id)
					dead = append(dead, sess)
				}
			}
			s.mu.Unlock()
			for _, sess := range dead {
				sess.close()
				s.metrics.sessionsEvicted.Add(1)
			}
		}
	}
}

// --- readiness and shutdown --------------------------------------------------
//
// The drain contract (DESIGN §12): between StartDraining and Shutdown a
// create answers 503 "draining" and an eval on a live session is still
// served; Shutdown closes every session, so an old session id answers
// 404 "no_session" after it. Compiled code outlives a restart only
// through RepoPath's snapshot; workspaces never do.

// readyResponse is the /readyz payload.
type readyResponse struct {
	Ready bool   `json:"ready"`
	Node  string `json:"node,omitempty"`
	// Reason explains a not-ready answer ("draining").
	Reason string `json:"reason,omitempty"`
}

// handleReady is the readiness probe: 200 while the daemon accepts new
// work, 503 once draining starts. Distinct from /healthz (liveness),
// which stays 200 through a drain.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, readyResponse{
			Ready: false, Node: s.opts.NodeID, Reason: "draining",
		})
		return
	}
	writeJSON(w, http.StatusOK, readyResponse{Ready: true, Node: s.opts.NodeID})
}

// StartDraining flips the daemon to not-ready: /readyz answers 503 and
// new session creates are refused with 503 "draining", while existing
// sessions keep evaluating. cmd/majicd calls it on the first
// termination signal so a load balancer stops placing sessions here
// before Shutdown stops the listener; Shutdown itself also sets the
// flag, so callers that never probe readiness see no behavior change.
func (s *Server) StartDraining() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Shutdown drains and stops the daemon: new session creates are
// refused, the HTTP server (if one was attached via Serve) has already
// stopped accepting by the time callers get here, in-flight evals are
// given until ctx expires to finish (then force-interrupted), the
// reaper stops, sessions close, and the shared compile queue shuts
// down.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.sessions = make(map[string]*session)
	s.mu.Unlock()

	// Drain: wait for every execution slot, i.e. no eval is running.
	drained := make(chan struct{})
	go func() {
		for i := 0; i < cap(s.evalSem); i++ {
			s.evalSem <- struct{}{}
		}
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		// Force: raise every session's cancel flag so runaway programs
		// die at their next back-edge, then keep waiting briefly.
		for _, sess := range sessions {
			sess.eng.Interrupt()
		}
		select {
		case <-drained:
		case <-time.After(2 * time.Second):
			err = ctx.Err()
		}
	}

	close(s.reaperStop)
	<-s.reaperDone
	for _, sess := range sessions {
		sess.close()
	}
	s.lib.Close()
	return err
}
