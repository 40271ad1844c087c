package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/parser"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// Gateway fronts a majicd fleet with the daemon's own session API:
// clients speak the same create/eval/workspace protocol to one address,
// and the gateway places each session on a ring node and proxies its
// requests there. Placement is consistent-hash on the session's routing
// key, skipping nodes the health checker marks not-ready.
//
// Failover: the gateway keeps a bounded replay log per session — every
// workspace binding and every function-defining eval. When the
// session's node dies or starts draining, the gateway recreates the
// session on the next node in the ring's failover order, replays the
// log, and retries the interrupted request; the client sees latency,
// not an error. Evals whose results live only in workspace variables
// assigned by *non-logged* evals are the documented limit: the replayed
// session restores definitions and explicit bindings, not arbitrary
// computed state.
type Gateway struct {
	ring         *Ring
	health       *Health
	client       *http.Client
	logger       *slog.Logger
	maxReplayOps int

	mu       sync.Mutex
	sessions map[string]*gwSession
	nextID   uint64
	rng      *rand.Rand

	stats gatewayStats
}

type gatewayStats struct {
	sessionsCreated atomic.Uint64
	placements      atomic.Uint64 // backend sessions created (initial + failover)
	failovers       atomic.Uint64 // sessions moved to another node
	proxied         atomic.Uint64 // requests forwarded
	retries         atomic.Uint64 // forward attempts beyond the first
	errors          atomic.Uint64 // requests that exhausted failover
	replayedOps     atomic.Uint64 // replay-log operations re-applied
	replayEvicted   atomic.Uint64 // defining ops dropped from full replay logs
}

// GatewayStats is the JSON view of the gateway's own counters; its
// metric tags are the gateway's majic_gate_* families.
type GatewayStats struct {
	SessionsActive  int    `json:"sessions_active" metric:"majic_gate_sessions_active,gauge" help:"Live gateway sessions."`
	SessionsCreated uint64 `json:"sessions_created" metric:"majic_gate_sessions_created_total,counter" help:"Gateway sessions ever created."`
	Placements      uint64 `json:"placements" metric:"majic_gate_placements_total,counter" help:"Backend sessions created (initial + failover)."`
	Failovers       uint64 `json:"failovers" metric:"majic_gate_failovers_total,counter" help:"Sessions moved to another node."`
	Proxied         uint64 `json:"proxied" metric:"majic_gate_proxied_total,counter" help:"Requests forwarded to the fleet."`
	Retries         uint64 `json:"retries" metric:"majic_gate_retries_total,counter" help:"Forward attempts beyond the first."`
	Errors          uint64 `json:"errors" metric:"majic_gate_errors_total,counter" help:"Requests that exhausted failover."`
	ReplayedOps     uint64 `json:"replayed_ops" metric:"majic_gate_replayed_ops_total,counter" help:"Replay-log operations re-applied on failover."`
	ReplayEvicted   uint64 `json:"replay_evicted" metric:"majic_gate_replay_evicted_total,counter" help:"Defining ops evicted from full replay logs (lost to future failovers)."`
}

// replayOp is one logged operation: a workspace PUT or a defining eval.
type replayOp struct {
	method string
	suffix string // path under /sessions/{backend-id}
	body   []byte
}

// DefaultMaxReplayOps bounds a session's replay log (override with
// GatewayOptions.MaxReplayOps); beyond it the oldest non-binding ops
// are dropped (a runaway definer shouldn't grow gateway memory without
// bound). Evictions are counted (replay_evicted /
// majic_gate_replay_evicted_total) and logged: a session that evicts
// will come back from failover missing its oldest definitions.
const DefaultMaxReplayOps = 256

type gwSession struct {
	id  string
	key string // routing key (defaults to id)

	mu        sync.Mutex
	node      Node
	backendID string // empty = needs (re)placement
	log       []replayOp
	moved     int // failovers survived (serialized in create/metrics)
}

// GatewayOptions configure NewGateway.
type GatewayOptions struct {
	Ring   *Ring
	Health *Health
	// Client is the proxy HTTP client (default: 2-minute timeout —
	// evals can legitimately run long).
	Client *http.Client
	Logger *slog.Logger
	// MaxReplayOps bounds each session's failover replay log
	// (0 = DefaultMaxReplayOps). Size it above the largest number of
	// function definitions plus workspace bindings a session is expected
	// to accumulate — overflow evicts the oldest definitions.
	MaxReplayOps int
}

// NewGateway builds the gateway (not yet listening; mount Handler).
func NewGateway(opts GatewayOptions) *Gateway {
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Minute}
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	maxOps := opts.MaxReplayOps
	if maxOps <= 0 {
		maxOps = DefaultMaxReplayOps
	}
	return &Gateway{
		ring:         opts.Ring,
		health:       opts.Health,
		client:       client,
		logger:       logger,
		maxReplayOps: maxOps,
		sessions:     make(map[string]*gwSession),
		rng:          rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Handler returns the gateway's HTTP handler (the daemon session API
// plus the fleet views).
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", g.handleCreate)
	mux.HandleFunc("DELETE /sessions/{id}", g.handleDestroy)
	mux.HandleFunc("POST /sessions/{id}/eval", g.handleEval)
	mux.HandleFunc("GET /sessions/{id}/workspace/{name}", g.handleWorkspaceGet)
	mux.HandleFunc("PUT /sessions/{id}/workspace/{name}", g.handleWorkspaceSet)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /metrics.prom", g.handleMetricsProm)
	mux.HandleFunc("GET /cluster/nodes", g.handleNodes)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// The gateway is ready while any node is: with the whole fleet
		// down it can only error, so say so to its own load balancer.
		for _, st := range g.health.Snapshot() {
			if st.Ready {
				writeJSON(w, http.StatusOK, map[string]any{"ready": true})
				return
			}
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "no ready nodes"})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"`
}

// --- session placement -------------------------------------------------------

// place creates a backend session for s on the first ready node in its
// ring order and replays the session's log there. Caller holds s.mu.
func (g *Gateway) place(s *gwSession) error {
	var lastErr error = fmt.Errorf("no ready nodes")
	for _, n := range g.ring.Lookup(s.key) {
		if !g.health.Ready(n.ID) {
			continue
		}
		status, raw, err := g.do("POST", n.Addr+"/sessions", nil)
		if err != nil {
			g.health.SetReady(n.ID, false, "create failed: "+err.Error())
			lastErr = err
			continue
		}
		if status != http.StatusCreated {
			// Draining or saturated: try the next ring node.
			lastErr = fmt.Errorf("create on %s: HTTP %d: %s", n.ID, status, raw)
			continue
		}
		var v struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &v); err != nil || v.ID == "" {
			lastErr = fmt.Errorf("create on %s: bad response %q", n.ID, raw)
			continue
		}
		if err := g.replay(n, v.ID, s.log); err != nil {
			// Half-replayed state must not serve: abandon the backend
			// session and move on down the ring.
			g.do("DELETE", n.Addr+"/sessions/"+v.ID, nil)
			lastErr = fmt.Errorf("replay on %s: %w", n.ID, err)
			continue
		}
		s.node, s.backendID = n, v.ID
		g.stats.placements.Add(1)
		return nil
	}
	return lastErr
}

func (g *Gateway) replay(n Node, backendID string, log []replayOp) error {
	for _, op := range log {
		status, raw, err := g.do(op.method, n.Addr+"/sessions/"+backendID+op.suffix, op.body)
		if err != nil {
			return err
		}
		if status >= 400 {
			return fmt.Errorf("%s %s: HTTP %d: %s", op.method, op.suffix, status, raw)
		}
		g.stats.replayedOps.Add(1)
	}
	return nil
}

// do issues one proxied request and buffers the response.
func (g *Gateway) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, raw, nil
}

// forward proxies one session-scoped request with failover: a transport
// error, a draining node, or a backend that lost the session moves the
// session to the next ring node (replaying its log) and retries. Any
// other status — including program errors and timeouts — is the
// backend's answer and passes through untouched.
func (g *Gateway) forward(s *gwSession, method, suffix string, body []byte) (int, []byte, error) {
	g.stats.proxied.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	attempts := len(g.ring.Nodes()) + 1
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			g.stats.retries.Add(1)
			g.backoff(attempt)
		}
		if s.backendID == "" {
			if err := g.place(s); err != nil {
				lastErr = err
				continue
			}
			// Any placement inside forward is a failover: the initial
			// placement happened in handleCreate, so reaching here means
			// the session lost its backend.
			g.stats.failovers.Add(1)
			s.moved++
			g.logger.Info("session failed over",
				slog.String("session", s.id), slog.String("to", s.node.ID))
		}
		status, raw, err := g.do(method, s.node.Addr+"/sessions/"+s.backendID+suffix, body)
		if err != nil {
			g.health.SetReady(s.node.ID, false, "proxy error: "+err.Error())
			s.backendID = ""
			lastErr = err
			continue
		}
		if failoverStatus(status, raw) {
			if status != http.StatusNotFound {
				// A draining node still holds the session we're walking
				// away from: release it so it doesn't linger until idle
				// eviction. A 404 means the backend already lost it —
				// nothing to delete.
				g.do("DELETE", s.node.Addr+"/sessions/"+s.backendID, nil)
			}
			s.backendID = ""
			lastErr = fmt.Errorf("node %s: HTTP %d: %s", s.node.ID, status, raw)
			continue
		}
		return status, raw, nil
	}
	g.stats.errors.Add(1)
	return 0, nil, fmt.Errorf("all nodes failed: %w", lastErr)
}

// failoverStatus decides whether a backend answer means "move the
// session" rather than "relay to the client": 404 kind "no_session"
// (the backend lost the session — it isn't the client's to lose, the
// gateway owns backend ids) and 503 with kind "draining" (the node is
// shutting down). A 404 kind "no_variable" stays put — the daemon also
// answers 404 for a missing workspace variable, and after a real
// failover that's guaranteed (non-logged computed state is not
// replayed), so treating it as a lost session would loop the session
// around the ring for an answer the client simply deserves to see. A
// 503 kind "saturated" likewise stays with the node — admission
// pushback is an answer, and hopping shards on load would defeat
// placement.
func failoverStatus(status int, raw []byte) bool {
	var eb errorBody
	unparseable := json.Unmarshal(raw, &eb) != nil
	switch status {
	case http.StatusNotFound:
		// No parseable kind means the answer didn't come from a healthy
		// majicd session route (an intermediary, a wrong process):
		// assume the session is gone.
		return unparseable || eb.Kind == "no_session"
	case http.StatusServiceUnavailable:
		if unparseable {
			return true // a 503 with no parseable kind: assume the node is going away
		}
		return eb.Kind == "draining"
	}
	return false
}

func (g *Gateway) backoff(attempt int) {
	g.mu.Lock()
	jitter := time.Duration(g.rng.Int63n(int64(20 * time.Millisecond)))
	g.mu.Unlock()
	time.Sleep(time.Duration(attempt)*25*time.Millisecond + jitter)
}

// --- handlers ----------------------------------------------------------------

type createRequest struct {
	// Key overrides the routing key — sessions created with the same key
	// land on the same node, so a client can co-locate a working set.
	Key string `json:"key,omitempty"`
}

type createResponse struct {
	ID string `json:"id"`
	// Node names the backend node the session was placed on (smoke tests
	// and operators use it; clients can ignore it).
	Node string `json:"node"`
}

func (g *Gateway) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	if len(body) > 0 {
		// A malformed body must not fall through to random placement —
		// the client asked for a routing key and silently losing it would
		// defeat the co-location it wanted.
		if err := json.Unmarshal(body, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
			return
		}
	}
	g.mu.Lock()
	g.nextID++
	id := fmt.Sprintf("g%d", g.nextID)
	g.mu.Unlock()
	key := req.Key
	if key == "" {
		key = id
	}
	s := &gwSession{id: id, key: key}
	s.mu.Lock()
	err = g.place(s)
	node := s.node.ID
	s.mu.Unlock()
	if err != nil {
		g.stats.errors.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "placement failed: " + err.Error(), Kind: "no_nodes"})
		return
	}
	g.mu.Lock()
	g.sessions[id] = s
	g.mu.Unlock()
	g.stats.sessionsCreated.Add(1)
	writeJSON(w, http.StatusCreated, createResponse{ID: id, Node: node})
}

func (g *Gateway) lookup(id string) *gwSession {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sessions[id]
}

func (g *Gateway) handleDestroy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	g.mu.Lock()
	s := g.sessions[id]
	delete(g.sessions, id)
	g.mu.Unlock()
	if s == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown session", Kind: "no_session"})
		return
	}
	s.mu.Lock()
	node, backendID := s.node, s.backendID
	s.backendID = ""
	s.mu.Unlock()
	if backendID != "" {
		g.do("DELETE", node.Addr+"/sessions/"+backendID, nil)
	}
	w.WriteHeader(http.StatusNoContent)
}

func (g *Gateway) handleEval(w http.ResponseWriter, r *http.Request) {
	s := g.lookup(r.PathValue("id"))
	if s == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown session", Kind: "no_session"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	status, raw, err := g.forward(s, "POST", "/eval", body)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, errorBody{Error: err.Error(), Kind: "no_nodes"})
		return
	}
	if status < 400 && definesFunction(body) {
		s.mu.Lock()
		g.appendLog(s, replayOp{method: "POST", suffix: "/eval", body: body})
		s.mu.Unlock()
	}
	relay(w, status, raw)
}

// definesFunction reports whether an eval body's source (re)defines a
// function — the ops worth replaying onto a failover node. The source
// is parsed with the daemon's own parser, because a definition need
// not lead the source: the grammar accepts statements and function
// definitions mixed in one file, and leading comments are legal, so a
// prefix check would silently drop such definitions from the replay
// log. Only called on sources the backend already accepted, so a local
// parse failure means grammar skew; fall back to the prefix heuristic
// rather than losing the op.
func definesFunction(body []byte) bool {
	var req struct {
		Src string `json:"src"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return false
	}
	file, err := parser.Parse(req.Src)
	if err != nil {
		return strings.HasPrefix(strings.TrimSpace(req.Src), "function")
	}
	return len(file.Funcs) > 0
}

// appendLog adds an op under s.mu, evicting the oldest eval op (never a
// workspace binding) once the log exceeds g.maxReplayOps. Every
// eviction narrows what a failover can restore, so each one is counted
// and logged — a session evicting steadily needs a bigger cap
// (GatewayOptions.MaxReplayOps).
func (g *Gateway) appendLog(s *gwSession, op replayOp) {
	s.log = append(s.log, op)
	if len(s.log) <= g.maxReplayOps {
		return
	}
	dropped := false
	for i, old := range s.log {
		if old.method == "POST" {
			s.log = append(s.log[:i:i], s.log[i+1:]...)
			dropped = true
			break
		}
	}
	if !dropped {
		s.log = s.log[1:]
	}
	g.stats.replayEvicted.Add(1)
	g.logger.Warn("replay log full: oldest op evicted, failover will not restore it",
		slog.String("session", s.id), slog.Int("max_replay_ops", g.maxReplayOps))
}

func (g *Gateway) handleWorkspaceGet(w http.ResponseWriter, r *http.Request) {
	s := g.lookup(r.PathValue("id"))
	if s == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown session", Kind: "no_session"})
		return
	}
	status, raw, err := g.forward(s, "GET", "/workspace/"+r.PathValue("name"), nil)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, errorBody{Error: err.Error(), Kind: "no_nodes"})
		return
	}
	relay(w, status, raw)
}

func (g *Gateway) handleWorkspaceSet(w http.ResponseWriter, r *http.Request) {
	s := g.lookup(r.PathValue("id"))
	if s == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown session", Kind: "no_session"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	suffix := "/workspace/" + r.PathValue("name")
	status, raw, err := g.forward(s, "PUT", suffix, body)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, errorBody{Error: err.Error(), Kind: "no_nodes"})
		return
	}
	if status < 400 {
		s.mu.Lock()
		// One binding per variable: a rebound arg replaces its log slot
		// so replay applies the latest value once.
		replaced := false
		for i, op := range s.log {
			if op.method == "PUT" && op.suffix == suffix {
				s.log[i].body = body
				replaced = true
				break
			}
		}
		if !replaced {
			g.appendLog(s, replayOp{method: "PUT", suffix: suffix, body: body})
		}
		s.mu.Unlock()
	}
	relay(w, status, raw)
}

func relay(w http.ResponseWriter, status int, raw []byte) {
	if len(raw) > 0 {
		w.Header().Set("Content-Type", "application/json")
	}
	w.WriteHeader(status)
	w.Write(raw)
}

// --- fleet views -------------------------------------------------------------

// NodeMetrics is one node's slice of the aggregated /metrics payload.
type NodeMetrics struct {
	Node    Node                    `json:"node"`
	Ready   bool                    `json:"ready"`
	Error   string                  `json:"error,omitempty"`
	Metrics *server.MetricsSnapshot `json:"metrics,omitempty"`
}

// FleetMetrics is the gateway's /metrics payload: its own counters,
// each node's full snapshot, and fleet-wide repository sums — the
// "compiled roughly once fleet-wide" number is FleetInserts.
type FleetMetrics struct {
	Gateway GatewayStats  `json:"gateway"`
	Nodes   []NodeMetrics `json:"nodes"`
	// Fleet sums the nodes' own families; /metrics.prom does not
	// re-export them.
	Fleet struct {
		Evals       uint64 `json:"evals"`
		RepoLookups int    `json:"repo_lookups"`
		RepoHits    int    `json:"repo_hits"`
		RepoInserts int    `json:"repo_inserts"`
		Replicated  int    `json:"repo_replicated"`
	} `json:"fleet" metric:"-"`
}

// Metrics gathers the fleet view (also served at /metrics).
func (g *Gateway) Metrics() FleetMetrics {
	var fm FleetMetrics
	fm.Gateway = g.Stats()
	for _, st := range g.health.Snapshot() {
		nm := NodeMetrics{Node: st.Node, Ready: st.Ready}
		status, raw, err := g.do("GET", st.Node.Addr+"/metrics", nil)
		switch {
		case err != nil:
			nm.Error = err.Error()
		case status != http.StatusOK:
			nm.Error = fmt.Sprintf("HTTP %d", status)
		default:
			var ms server.MetricsSnapshot
			if err := json.Unmarshal(raw, &ms); err != nil {
				nm.Error = "bad metrics payload: " + err.Error()
			} else {
				nm.Metrics = &ms
				fm.Fleet.Evals += ms.Evals.Total
				fm.Fleet.RepoLookups += ms.Repo.Lookups
				fm.Fleet.RepoHits += ms.Repo.Hits
				fm.Fleet.RepoInserts += ms.Repo.Inserts
				fm.Fleet.Replicated += ms.Repo.Replicated
			}
		}
		fm.Nodes = append(fm.Nodes, nm)
	}
	return fm
}

// Stats returns the gateway's own counters.
func (g *Gateway) Stats() GatewayStats {
	g.mu.Lock()
	active := len(g.sessions)
	g.mu.Unlock()
	return GatewayStats{
		SessionsActive:  active,
		SessionsCreated: g.stats.sessionsCreated.Load(),
		Placements:      g.stats.placements.Load(),
		Failovers:       g.stats.failovers.Load(),
		Proxied:         g.stats.proxied.Load(),
		Retries:         g.stats.retries.Load(),
		Errors:          g.stats.errors.Load(),
		ReplayedOps:     g.stats.replayedOps.Load(),
		ReplayEvicted:   g.stats.replayEvicted.Load(),
	}
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.Metrics())
}

func (g *Gateway) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := telemetry.WritePrometheus(w, g.samples()); err != nil {
		g.logger.Warn("prometheus write failed", slog.String("error", err.Error()))
	}
}

func (g *Gateway) handleNodes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"vnodes": g.ring.Vnodes(),
		"nodes":  g.health.Snapshot(),
	})
}

// samples renders the gateway's counters and its ready-node count.
func (g *Gateway) samples() []telemetry.Sample {
	ready := 0
	for _, n := range g.health.Snapshot() {
		if n.Ready {
			ready++
		}
	}
	return append(telemetry.Emit(nil, g.Stats()),
		telemetry.Sample{Name: "majic_gate_nodes_ready", Help: "Fleet nodes currently passing readiness.",
			Kind: telemetry.KindGauge, Value: float64(ready)})
}
