package server

import (
	"io"
	"net/http"

	"repro/internal/persist"
)

// Replication surface of one daemon: the peer-ingest endpoint
// replication records arrive through, and the digest endpoint
// anti-entropy reconciles against. No binary runs a replicator; these
// endpoints stay for the benchmark's fleet probe and go with
// internal/cluster. The server package knows nothing about rings,
// peers, or push loops — internal/cluster builds those on top of these
// endpoints (and must keep importing server, never the reverse).

// maxIngestBytes bounds a /cluster/ingest request body. A record is one
// function's source plus one compiled entry, far below this; anything
// bigger is malformed or hostile and bounces before decoding.
const maxIngestBytes = 16 << 20

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
