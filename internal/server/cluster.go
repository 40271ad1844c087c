package server

import (
	"io"
	"net/http"

	"repro/internal/core"
	"repro/internal/persist"
)

// Cluster-facing surface of one daemon: the readiness probe a gateway
// routes on, the peer-ingest endpoint replication records arrive
// through, and the digest endpoint anti-entropy reconciles against.
// The server package deliberately knows nothing about rings, peers, or
// push loops — internal/cluster builds those on top of these endpoints
// (and must keep importing server, never the reverse).

// maxIngestBytes bounds a /cluster/ingest request body. A record is one
// function's source plus one compiled entry, far below this; anything
// bigger is malformed or hostile and bounces before decoding.
const maxIngestBytes = 16 << 20

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
// new session creates are refused, while existing sessions keep
// evaluating. cmd/majicd calls it on the first termination signal so a
// gateway fails new placements over before Shutdown stops the listener;
// Shutdown itself also sets the flag, so callers that never probe
// readiness see no behavior change.
func (s *Server) StartDraining() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// ingestResponse is the /cluster/ingest payload: whether the record
// changed this node, and the library's outcome string (see
// core.Library.ApplyReplicated for the vocabulary).
type ingestResponse struct {
	Applied bool   `json:"applied"`
	Outcome string `json:"outcome"`
}

// handleClusterIngest accepts one replication record (the persist
// single-entry wire format) from a peer and applies it to the shared
// library. Guard failures are reported in-band with 200 — a stale or
// duplicate record is a normal race outcome the sender should count,
// not retry — while undecodable bodies get 400.
func (s *Server) handleClusterIngest(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	if err != nil {
		s.metrics.ingestRejected.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad record body: " + err.Error()})
		return
	}
	rec, err := persist.DecodeRecord(data)
	if err != nil {
		// Version/fingerprint skew across a mixed-build fleet lands here:
		// the record is dropped whole, exactly like a foreign snapshot.
		s.metrics.ingestRejected.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad record: " + err.Error()})
		return
	}
	applied, outcome := s.lib.ApplyReplicated(rec)
	switch {
	case applied:
		s.metrics.ingestApplied.Add(1)
	case outcome == "duplicate" || outcome == "stale-definition" || outcome == "stale-dependency":
		s.metrics.ingestDropped.Add(1)
	default:
		s.metrics.ingestRejected.Add(1)
	}
	writeJSON(w, http.StatusOK, ingestResponse{Applied: applied, Outcome: outcome})
}

// digestResponse is the /cluster/digest payload.
type digestResponse struct {
	Node  string                        `json:"node,omitempty"`
	Funcs map[string]persist.FuncDigest `json:"funcs"`
}

// handleClusterDigest serves the library's anti-entropy digest: per
// function, the source hash, definition stamp, and live entry keys. A
// peer diffs this against its own digest and pushes what's missing.
func (s *Server) handleClusterDigest(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, digestResponse{Node: s.opts.NodeID, Funcs: s.lib.ExportDigest()})
}

// Library returns the shared code library. The cluster replicator in
// cmd/majicd wires its push hooks through this.
func (s *Server) Library() *core.Library { return s.lib }

// NodeID returns the configured cluster node ID ("" standalone).
func (s *Server) NodeID() string { return s.opts.NodeID }

// SetClusterMetrics attaches a callback whose result is embedded as the
// "cluster" section of the JSON /metrics payload; its metric-tagged
// fields are exposed at /metrics.prom with the rest of the snapshot.
func (s *Server) SetClusterMetrics(fn func() any) {
	s.cmu.Lock()
	s.clusterMetrics = fn
	s.cmu.Unlock()
}
