// Package telemetry is the JIT flight recorder: one process-wide
// surface unifying the runtime's scattered Stats structs (repository,
// compile queue, parallel pool, tiering profile, persistence, server
// routes) behind a single metric model, plus two event streams the flat
// counters cannot answer — per-eval trace spans ("why was *this* eval
// slow?") and a cause-attributed tiering journal ("why did *this* loop
// deopt?").
//
// Three pieces:
//
//   - Samples (counter/gauge/histogram) built at scrape time. Subsystems
//     keep their cheap atomic Stats structs; each metric is a tag on the
//     Stats field that carries its JSON name (fields.go), and Emit turns
//     a snapshot into samples when asked, so recording stays exactly as
//     it was — scraping adds no hot-path work at all. WritePrometheus
//     renders the samples in the Prometheus text exposition format (see
//     prometheus.go), served by majicd at /metrics.prom.
//
//   - Tracer: a bounded ring of Chrome trace-event spans (trace.go),
//     the engine's only record of phase time: each phase is measured
//     once and reported once, as a span, and the paper's Figure 6
//     decomposition is the trace's per-category self time
//     (Tracer.SelfTotals). Load a dump in chrome://tracing or Perfetto.
//
//   - Journal: a bounded ring of tiering events (journal.go) — each
//     promotion, eviction, snapshot load/flush, and deopt, with its
//     cause (generation mismatch vs binding guard vs range guard vs
//     budget exhausted), function, signature, and timestamp.
//
// Neutrality contract: every instrument is opt-in (nil Tracer) or rides
// an existing slow path (journal events fire on promotions, deopts,
// evictions, snapshot writes — never per element, never per iteration),
// and no VM or fused fast path gains a branch. Paper-mode outputs are
// byte-for-byte unchanged with telemetry attached.
package telemetry

import "fmt"

// Kind classifies a metric sample.
type Kind uint8

const (
	// KindCounter is a monotonically nondecreasing count.
	KindCounter Kind = iota
	// KindGauge is a point-in-time level that may go down.
	KindGauge
	// KindHistogram is a bucketed distribution (cumulative buckets).
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Label is one name=value pair on a sample. Labels are ordered — the
// emitter fixes the order, the exposition preserves it.
type Label struct {
	Key   string
	Value string
}

// Bucket is one cumulative histogram bucket: the count of observations
// with value <= UpperBound.
type Bucket struct {
	UpperBound float64 // +Inf allowed
	Count      uint64
}

// Sample is one metric observation at scrape time.
type Sample struct {
	// Name is the full metric name (Prometheus conventions: snake_case,
	// counters end in _total, units spelled out).
	Name string
	// Help is the one-line metric description (HELP text).
	Help string
	Kind Kind
	// Labels qualify the sample (may be nil). Samples sharing a Name
	// must share a Kind and should share Help.
	Labels []Label
	// Value carries counter and gauge readings.
	Value float64
	// Buckets/Sum/Count carry histogram readings (Kind == KindHistogram);
	// Buckets must be cumulative and should end with +Inf.
	Buckets []Bucket
	Sum     float64
	Count   uint64
}
