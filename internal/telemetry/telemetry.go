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
//   - Registry: named Collectors emit Samples (counter/gauge/histogram)
//     at scrape time. Subsystems keep their cheap atomic Stats structs;
//     each metric is a tag on the Stats field that carries its JSON name
//     (fields.go), and Emit turns a snapshot into samples when asked, so
//     recording stays exactly as it was — the registry adds no hot-path
//     work at all. The
//     registry renders both the samples themselves (for tests and JSON
//     surfaces) and the Prometheus text exposition format (see
//     prometheus.go), served by majicd at /metrics.prom.
//
//   - Tracer: a bounded ring of Chrome trace-event spans (trace.go),
//     written by the phase timers the engine already keeps for the
//     paper's Figure 6 decomposition — the span durations are the very
//     same measurements that feed core.PhaseTimes, so span-tree totals
//     reconcile with the figure by construction. Load a dump in
//     chrome://tracing or Perfetto.
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

import (
	"fmt"
	"strings"
	"sync"
)

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
// emitting collector fixes the order, the exposition preserves it.
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

// Collector emits samples when the registry is scraped. Implementations
// must be safe for concurrent use — scrapes can race recording.
type Collector interface {
	Collect(emit func(Sample))
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(emit func(Sample))

// Collect implements Collector.
func (f CollectorFunc) Collect(emit func(Sample)) { f(emit) }

// Registry is a named set of collectors: the unified telemetry surface
// one process (a CLI run, a majicd daemon) exposes. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	mu         sync.RWMutex
	order      []string
	collectors map[string]Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{collectors: make(map[string]Collector)}
}

// Register installs a collector under a name, replacing any previous
// collector with the same name (sessions re-registering on reconnect
// must not accumulate duplicates). Nil-receiver-safe: registering on a
// nil registry is a no-op, so subsystems can wire telemetry
// unconditionally.
func (r *Registry) Register(name string, c Collector) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.collectors[name]; !ok {
		r.order = append(r.order, name)
	}
	r.collectors[name] = c
}

// RegisterFunc installs a CollectorFunc under a name.
func (r *Registry) RegisterFunc(name string, f func(emit func(Sample))) {
	r.Register(name, CollectorFunc(f))
}

// Unregister removes a named collector (session teardown).
func (r *Registry) Unregister(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.collectors[name]; !ok {
		return
	}
	delete(r.collectors, name)
	for i, n := range r.order {
		if n == name {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

// Gather scrapes every collector (in registration order) and returns
// the samples grouped by metric name: all samples of one name are
// adjacent, names in first-seen order. Samples with the same name and
// identical label sets are summed (counters/gauges) so several sessions
// emitting the same metric aggregate instead of colliding.
func (r *Registry) Gather() []Sample {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	cs := make([]Collector, 0, len(r.order))
	for _, name := range r.order {
		cs = append(cs, r.collectors[name])
	}
	r.mu.RUnlock()

	var raw []Sample
	for _, c := range cs {
		c.Collect(func(s Sample) { raw = append(raw, s) })
	}
	return mergeSamples(raw)
}

// mergeSamples groups samples by name (first-seen name order, stable
// within a name) and sums duplicate (name, labels) counter/gauge pairs.
func mergeSamples(raw []Sample) []Sample {
	type key struct {
		name   string
		labels string
	}
	nameOrder := make([]string, 0, len(raw))
	seenName := make(map[string]bool)
	byName := make(map[string][]Sample)
	index := make(map[key]int) // into byName[name]

	for _, s := range raw {
		if s.Name == "" {
			continue
		}
		if !seenName[s.Name] {
			seenName[s.Name] = true
			nameOrder = append(nameOrder, s.Name)
		}
		k := key{s.Name, labelKey(s.Labels)}
		if i, ok := index[k]; ok && s.Kind != KindHistogram {
			byName[s.Name][i].Value += s.Value
			continue
		}
		byName[s.Name] = append(byName[s.Name], s)
		index[k] = len(byName[s.Name]) - 1
	}

	out := make([]Sample, 0, len(raw))
	for _, name := range nameOrder {
		out = append(out, byName[name]...)
	}
	return out
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}
