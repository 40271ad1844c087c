package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
)

// Replicator pushes one node's newly compiled repository entries to its
// peers, so a (function, widened signature) is JIT-compiled roughly
// once fleet-wide: the first node to pay a compile hands the result to
// everyone else through POST /cluster/ingest, in the persist package's
// guarded single-entry wire format.
//
// Two mechanisms cooperate:
//
//   - Push: a repo.AddOnChange hook pokes the scan loop (non-blocking —
//     the hook runs on the compile-publish path and must never wait on
//     the network). The scan diffs the library's exportable records
//     against what was already sent and enqueues only the new ones onto
//     bounded per-peer queues, drained by one worker per peer with
//     jittered retry/backoff. Entries that were themselves replicated
//     in are skipped — A's compile reaches C from A, not echoed via B.
//
//   - Anti-entropy: periodically each peer's /cluster/digest is diffed
//     against the local library, and anything the peer lacks (dropped
//     push, node restarted, queue overflow) is re-sent — replicated
//     entries included, so any surviving node can heal any other.
//
// Delivery is at-least-once; the receiver's ApplyReplicated guards
// (source-hash staleness, generation capture, exact-signature dedup)
// make duplicates and stale records harmless, which is what lets the
// sender be this simple.
type Replicator struct {
	nodeID string
	lib    *core.Library
	peers  []Node
	client *http.Client
	logger *slog.Logger

	interval time.Duration
	queueCap int
	retries  int

	notify chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup

	mu   sync.Mutex
	sent map[string]uint64 // record key -> source hash already pushed
	rng  *rand.Rand

	queues []chan persist.EntryRecord

	stats replicatorStats
}

type replicatorStats struct {
	scans        atomic.Uint64
	pushed       atomic.Uint64 // records accepted by a peer (any outcome)
	pushApplied  atomic.Uint64 // records the peer reported applied
	pushErrors   atomic.Uint64 // records dropped after exhausting retries
	retries      atomic.Uint64
	queueDrops   atomic.Uint64 // records dropped because a peer queue was full
	aeRounds     atomic.Uint64
	aeRepairs    atomic.Uint64 // records re-sent because a digest lacked them
	aeFailures   atomic.Uint64 // digest fetches that failed
	lastScanNano atomic.Int64
}

// ReplicatorStats is the JSON /metrics "cluster" section; its metric
// tags are the daemon's majic_cluster_* families.
type ReplicatorStats struct {
	NodeID      string `json:"node_id" metric:"-"`
	Peers       int    `json:"peers" metric:"majic_cluster_peers,gauge" help:"Configured replication peers."`
	Scans       uint64 `json:"scans" metric:"majic_cluster_scans_total,counter" help:"Repository change scans."`
	Pushed      uint64 `json:"pushed" metric:"majic_cluster_pushed_total,counter" help:"Records delivered to peers."`
	PushApplied uint64 `json:"push_applied" metric:"majic_cluster_push_applied_total,counter" help:"Delivered records the peer applied."`
	PushErrors  uint64 `json:"push_errors" metric:"majic_cluster_push_errors_total,counter" help:"Records abandoned after delivery retries."`
	Retries     uint64 `json:"retries" metric:"majic_cluster_push_retries_total,counter" help:"Delivery retries."`
	QueueDrops  uint64 `json:"queue_drops" metric:"majic_cluster_queue_drops_total,counter" help:"Records dropped on full peer queues."`
	AERounds    uint64 `json:"anti_entropy_rounds" metric:"majic_cluster_anti_entropy_rounds_total,counter" help:"Digest reconciliation rounds."`
	AERepairs   uint64 `json:"anti_entropy_repairs" metric:"majic_cluster_anti_entropy_repairs_total,counter" help:"Records re-sent after a digest diff."`
	AEFailures  uint64 `json:"anti_entropy_failures" metric:"majic_cluster_anti_entropy_failures_total,counter" help:"Digest fetches that failed."`
}

// ReplicatorOptions configure NewReplicator.
type ReplicatorOptions struct {
	// NodeID stamps the origin on every pushed record.
	NodeID string
	// Lib is the local shared library (the daemon's; never nil).
	Lib *core.Library
	// Peers are the other fleet nodes (self excluded by the caller).
	Peers []Node
	// Interval is the anti-entropy period (default 5s; tests shorten).
	Interval time.Duration
	// QueueCap bounds each peer's push queue (default 1024). Overflow
	// drops the record and counts it — anti-entropy repairs the loss.
	QueueCap int
	// Retries bounds delivery attempts per record per peer (default 3).
	Retries int
	Client  *http.Client
	Logger  *slog.Logger
}

// DefaultAntiEntropyInterval is the digest-reconciliation period.
const DefaultAntiEntropyInterval = 5 * time.Second

// NewReplicator builds a replicator (call Start to run it). It hooks
// the library's repository via AddOnChange immediately, so no compile
// published after this call can be missed — notifications arriving
// before Start are coalesced into the first scan.
func NewReplicator(opts ReplicatorOptions) *Replicator {
	if opts.Interval <= 0 {
		opts.Interval = DefaultAntiEntropyInterval
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 1024
	}
	if opts.Retries <= 0 {
		opts.Retries = 3
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	r := &Replicator{
		nodeID:   opts.NodeID,
		lib:      opts.Lib,
		peers:    append([]Node(nil), opts.Peers...),
		client:   client,
		logger:   logger,
		interval: opts.Interval,
		queueCap: opts.QueueCap,
		notify:   make(chan struct{}, 1),
		stop:     make(chan struct{}),
		sent:     make(map[string]uint64),
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	r.retries = opts.Retries
	for range r.peers {
		r.queues = append(r.queues, make(chan persist.EntryRecord, r.queueCap))
	}
	r.lib.Repo().AddOnChange(r.poke)
	return r
}

// poke wakes the scan loop; it must never block (it runs on the
// compile-publish path, under no lock but on a latency-sensitive
// goroutine).
func (r *Replicator) poke() {
	select {
	case r.notify <- struct{}{}:
	default:
	}
}

// Start launches the scan loop, one push worker per peer, and the
// anti-entropy loop.
func (r *Replicator) Start() {
	r.wg.Add(1)
	go r.scanLoop()
	for i := range r.peers {
		r.wg.Add(1)
		go r.pushWorker(i)
	}
	if len(r.peers) > 0 {
		r.wg.Add(1)
		go r.antiEntropyLoop()
	}
}

// Close stops all loops and waits for the workers to drain out.
func (r *Replicator) Close() {
	close(r.stop)
	r.wg.Wait()
}

// --- push path ---------------------------------------------------------------

// recordKey identifies a record for the sent-diff: source-only records
// key on the function, entry records on function + exact signature.
func recordKey(rec *persist.EntryRecord) string {
	if rec.Entry == nil {
		return rec.Func + "|src"
	}
	return rec.Func + "|" + rec.Entry.Sig.Key()
}

func (r *Replicator) scanLoop() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case <-r.notify:
		}
		// Debounce: a compile burst (N sessions warming at once) folds
		// into one scan a beat later rather than N scans.
		select {
		case <-r.stop:
			return
		case <-time.After(10 * time.Millisecond):
		}
		r.scan()
	}
}

// scan diffs the library's locally produced records against what was
// already enqueued and fans the new ones out to every peer queue.
func (r *Replicator) scan() {
	r.stats.scans.Add(1)
	r.stats.lastScanNano.Store(time.Now().UnixNano())
	records := r.lib.ExportRecords(r.nodeID, false)
	r.mu.Lock()
	var fresh []persist.EntryRecord
	for _, rec := range records {
		key := recordKey(&rec)
		if r.sent[key] == rec.SrcHash {
			continue
		}
		r.sent[key] = rec.SrcHash
		fresh = append(fresh, rec)
	}
	r.mu.Unlock()
	for _, rec := range fresh {
		for i := range r.queues {
			select {
			case r.queues[i] <- rec:
			default:
				// Queue full: drop and count. Anti-entropy re-sends it
				// once the backlog clears; blocking here would stall the
				// scan loop on the slowest peer.
				r.stats.queueDrops.Add(1)
			}
		}
	}
}

func (r *Replicator) pushWorker(peer int) {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case rec := <-r.queues[peer]:
			r.deliver(r.peers[peer], &rec)
		}
	}
}

// deliver posts one record with bounded jittered retry. Failure after
// the last attempt is counted and abandoned — anti-entropy owns repair.
func (r *Replicator) deliver(peer Node, rec *persist.EntryRecord) {
	body := persist.EncodeRecord(rec)
	for attempt := 0; ; attempt++ {
		applied, err := r.post(peer, body)
		if err == nil {
			r.stats.pushed.Add(1)
			if applied {
				r.stats.pushApplied.Add(1)
			}
			return
		}
		if attempt+1 >= r.retries {
			r.stats.pushErrors.Add(1)
			r.logger.Warn("replication push abandoned",
				slog.String("peer", peer.ID), slog.String("func", rec.Func),
				slog.String("error", err.Error()))
			return
		}
		r.stats.retries.Add(1)
		backoff := time.Duration(1<<uint(attempt))*50*time.Millisecond + r.jitter(25*time.Millisecond)
		select {
		case <-r.stop:
			return
		case <-time.After(backoff):
		}
	}
}

func (r *Replicator) jitter(max time.Duration) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.rng.Int63n(int64(max)))
}

func (r *Replicator) post(peer Node, body []byte) (applied bool, err error) {
	resp, err := r.client.Post(peer.Addr+"/cluster/ingest", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	switch {
	case resp.StatusCode == http.StatusOK:
		return bytes.Contains(raw, []byte(`"applied":true`)), nil
	case resp.StatusCode >= 500:
		// Transient (node restarting, proxy hiccup): retryable.
		return false, fmt.Errorf("HTTP %d: %s", resp.StatusCode, raw)
	default:
		// 4xx (version or IR-fingerprint skew): retrying can't help;
		// treat as delivered-and-refused so the worker moves on.
		return false, nil
	}
}

// --- anti-entropy ------------------------------------------------------------

func (r *Replicator) antiEntropyLoop() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case <-time.After(r.interval + r.jitter(r.interval/4)):
		}
		r.antiEntropyRound()
	}
}

// antiEntropyRound reconciles every peer against the local library: for
// each function the peer is missing, has an older definition of, or
// lacks entries for, the full records (replicated ones included) go
// back onto that peer's queue. A peer holding *more* than we do is its
// own replicator's business — reconciliation only ever pushes.
func (r *Replicator) antiEntropyRound() {
	r.stats.aeRounds.Add(1)
	local := r.lib.ExportRecords(r.nodeID, true)
	for i, peer := range r.peers {
		theirs, err := r.fetchDigest(peer)
		if err != nil {
			r.stats.aeFailures.Add(1)
			continue
		}
		for _, rec := range local {
			d, ok := theirs[rec.Func]
			need := false
			switch {
			case !ok:
				need = true // peer has never heard of the function
			case d.SrcHash != rec.SrcHash:
				// Peer has a different definition; push only if ours wins
				// last-writer-wins — ApplyReplicated would refuse it
				// anyway, and re-sending a losing record every round
				// churns forever. Exact DefTime ties (clock granularity,
				// skewed clocks stamping independently) break on the
				// source hash, the same deterministic rule the receiver
				// applies, so one definition wins fleet-wide instead of
				// two nodes each politely waiting forever.
				need = rec.DefTime > d.DefTime ||
					(rec.DefTime == d.DefTime && rec.SrcHash > d.SrcHash)
			case rec.Entry != nil:
				need = !containsKey(d.Entries, rec.Entry.Sig.Key())
			}
			if !need {
				continue
			}
			select {
			case r.queues[i] <- rec:
				r.stats.aeRepairs.Add(1)
			default:
				r.stats.queueDrops.Add(1)
			}
		}
	}
}

func containsKey(keys []string, k string) bool {
	for _, s := range keys {
		if s == k {
			return true
		}
	}
	return false
}

func (r *Replicator) fetchDigest(peer Node) (map[string]persist.FuncDigest, error) {
	resp, err := r.client.Get(peer.Addr + "/cluster/digest")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("digest from %s: HTTP %d", peer.ID, resp.StatusCode)
	}
	var dr struct {
		Funcs map[string]persist.FuncDigest `json:"funcs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		return nil, err
	}
	return dr.Funcs, nil
}

// Stats returns the replicator's counters.
func (r *Replicator) Stats() ReplicatorStats {
	return ReplicatorStats{
		NodeID:      r.nodeID,
		Peers:       len(r.peers),
		Scans:       r.stats.scans.Load(),
		Pushed:      r.stats.pushed.Load(),
		PushApplied: r.stats.pushApplied.Load(),
		PushErrors:  r.stats.pushErrors.Load(),
		Retries:     r.stats.retries.Load(),
		QueueDrops:  r.stats.queueDrops.Load(),
		AERounds:    r.stats.aeRounds.Load(),
		AERepairs:   r.stats.aeRepairs.Load(),
		AEFailures:  r.stats.aeFailures.Load(),
	}
}
