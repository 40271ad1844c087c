package server

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// latBounds are the latency histogram bucket upper bounds in
// microseconds (roughly log-spaced, 50µs … 5s, plus +Inf). Fixed
// buckets keep recording allocation-free and lock-free.
var latBounds = []uint64{
	50, 100, 200, 500,
	1_000, 2_000, 5_000, 10_000, 20_000, 50_000,
	100_000, 200_000, 500_000,
	1_000_000, 2_000_000, 5_000_000,
}

// hist is a lock-free latency histogram: counts per bucket plus a
// running sum and the observed maximum, all atomics. One final bucket
// catches > 5s.
type hist struct {
	count   atomic.Uint64
	sumUS   atomic.Uint64
	maxUS   atomic.Uint64
	buckets [17]atomic.Uint64 // len(latBounds) + overflow
}

func (h *hist) observe(d time.Duration) {
	us := uint64(d.Microseconds())
	h.count.Add(1)
	h.sumUS.Add(us)
	for m := h.maxUS.Load(); us > m; m = h.maxUS.Load() {
		if h.maxUS.CompareAndSwap(m, us) {
			break
		}
	}
	for i, b := range latBounds {
		if us <= b {
			h.buckets[i].Add(1)
			return
		}
	}
	h.buckets[len(latBounds)].Add(1)
}

// quantile estimates the q-quantile (0 < q < 1) as the upper bound of
// the bucket where the cumulative count crosses q — the standard
// bucketed-histogram estimate, biased at most one bucket upward. The
// estimate is clamped to the observed maximum, which removes the
// pathological bias for sparse histograms (a single 60µs request must
// not report p99 = 100µs), and makes the overflow bucket report the
// real tail value instead of a made-up "beyond the table" constant.
func (h *hist) quantile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	max := h.maxUS.Load()
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range latBounds {
		cum += h.buckets[i].Load()
		if cum >= rank {
			if latBounds[i] > max {
				return max
			}
			return latBounds[i]
		}
	}
	return max // crossing in the overflow bucket: the max is the only bound we have
}

// RouteMetrics is one route's latency summary in the /metrics payload.
type RouteMetrics struct {
	Count  uint64 `json:"count"`
	MeanUS uint64 `json:"mean_us"`
	MaxUS  uint64 `json:"max_us"`
	P50US  uint64 `json:"p50_us"`
	P95US  uint64 `json:"p95_us"`
	P99US  uint64 `json:"p99_us"`
}

func (h *hist) snapshot() RouteMetrics {
	n := h.count.Load()
	m := RouteMetrics{
		Count: n,
		MaxUS: h.maxUS.Load(),
		P50US: h.quantile(0.50),
		P95US: h.quantile(0.95),
		P99US: h.quantile(0.99),
	}
	if n > 0 {
		m.MeanUS = h.sumUS.Load() / n
	}
	return m
}

// sample renders the histogram as one Prometheus histogram sample
// (cumulative buckets, seconds).
func (h *hist) sample(name, help string, labels ...telemetry.Label) telemetry.Sample {
	s := telemetry.Sample{
		Name:   name,
		Help:   help,
		Kind:   telemetry.KindHistogram,
		Labels: labels,
		Sum:    float64(h.sumUS.Load()) / 1e6,
		Count:  h.count.Load(),
	}
	var cum uint64
	for i, b := range latBounds {
		cum += h.buckets[i].Load()
		s.Buckets = append(s.Buckets, telemetry.Bucket{UpperBound: float64(b) / 1e6, Count: cum})
	}
	cum += h.buckets[len(latBounds)].Load()
	s.Buckets = append(s.Buckets, telemetry.Bucket{UpperBound: math.Inf(1), Count: cum})
	return s
}

// serverMetrics aggregates the daemon's counters. Route histograms are
// fixed at construction so recording needs no map lock.
type serverMetrics struct {
	sessionsCreated  atomic.Uint64
	sessionsEvicted  atomic.Uint64 // idle-TTL reaps
	sessionsRejected atomic.Uint64 // table full
	evalsTotal       atomic.Uint64
	evalsErrors      atomic.Uint64 // program errors
	evalsTimeouts    atomic.Uint64 // deadline kills
	evalsRejected    atomic.Uint64 // admission-control bounces
	evalsInflight    atomic.Int64

	// /cluster/ingest outcomes (see server.IngestStats).
	ingestApplied  atomic.Uint64
	ingestDropped  atomic.Uint64
	ingestRejected atomic.Uint64

	panics atomic.Uint64 // handler panics answered by timed

	routes map[string]*hist
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{routes: map[string]*hist{
		"create":    {},
		"eval":      {},
		"workspace": {},
		"destroy":   {},
		"ingest":    {},
	}}
}

func (m *serverMetrics) observe(route string, d time.Duration) {
	if h, ok := m.routes[route]; ok {
		h.observe(d)
	}
}
