package server

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// A single observation must report itself as every quantile — the
// bucketed estimate may not round a lone 60µs request up to the 100µs
// bucket edge (the upward bias this clamp removes).
func TestHistQuantileSingleObservationClamped(t *testing.T) {
	var h hist
	h.observe(60 * time.Microsecond)
	for _, q := range []float64{0.50, 0.95, 0.99} {
		if got := h.quantile(q); got != 60 {
			t.Fatalf("quantile(%.2f) = %d, want 60 (clamped to observed max)", q, got)
		}
	}
	m := h.snapshot()
	if m.MaxUS != 60 || m.P50US != 60 || m.P99US != 60 {
		t.Fatalf("snapshot = %+v, want max/p50/p99 all 60", m)
	}
}

// An observation exactly on a bucket edge lands in that bucket and the
// quantile reports the edge itself.
func TestHistQuantileExactBucketEdge(t *testing.T) {
	var h hist
	h.observe(100 * time.Microsecond) // edge of the second bucket
	if got := h.quantile(0.99); got != 100 {
		t.Fatalf("p99 = %d, want 100", got)
	}
}

// With enough spread the estimate is the crossing bucket's upper bound,
// clamped to the max when the bound overshoots the real tail.
func TestHistQuantileClampAcrossBuckets(t *testing.T) {
	var h hist
	for i := 0; i < 50; i++ {
		h.observe(70 * time.Microsecond) // bucket le=100
	}
	for i := 0; i < 50; i++ {
		h.observe(150 * time.Microsecond) // bucket le=200
	}
	// p50 crosses in the le=100 bucket: bound below max, no clamp.
	if got := h.quantile(0.50); got != 100 {
		t.Fatalf("p50 = %d, want 100", got)
	}
	// p99 crosses in the le=200 bucket, but the true max is 150: the
	// clamp must report 150, not the 200 bound.
	if got := h.quantile(0.99); got != 150 {
		t.Fatalf("p99 = %d, want 150 (clamped to observed max)", got)
	}
}

// Overflow observations (> 5s) report the observed max, not a made-up
// "beyond the table" constant (the old code returned 10s flat).
func TestHistQuantileOverflowReportsMax(t *testing.T) {
	var h hist
	h.observe(7 * time.Second)
	if got := h.quantile(0.99); got != 7_000_000 {
		t.Fatalf("p99 = %d, want 7000000 (observed max)", got)
	}
}

func TestHistQuantileEmpty(t *testing.T) {
	var h hist
	if got := h.quantile(0.99); got != 0 {
		t.Fatalf("empty hist p99 = %d, want 0", got)
	}
}

// The Prometheus rendering is cumulative, in seconds, and ends with a
// +Inf bucket whose count equals the sample count.
func TestHistPrometheusSample(t *testing.T) {
	var h hist
	h.observe(60 * time.Microsecond)
	h.observe(150 * time.Microsecond)
	h.observe(7 * time.Second) // overflow
	s := h.sample("majic_route_latency_seconds", "Request latency.",
		telemetry.Label{Key: "route", Value: "eval"})
	if s.Kind != telemetry.KindHistogram || s.Count != 3 {
		t.Fatalf("sample kind/count = %v/%d, want histogram/3", s.Kind, s.Count)
	}
	wantSum := (60 + 150 + 7_000_000) / 1e6
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %g, want %g", s.Sum, wantSum)
	}
	last := s.Buckets[len(s.Buckets)-1]
	if !math.IsInf(last.UpperBound, 1) || last.Count != 3 {
		t.Fatalf("final bucket = %+v, want +Inf with count 3", last)
	}
	var prev uint64
	for i, b := range s.Buckets {
		if b.Count < prev {
			t.Fatalf("bucket %d not cumulative: %d < %d", i, b.Count, prev)
		}
		prev = b.Count
	}
	// And the whole family round-trips through the text exposition.
	var sb strings.Builder
	if err := telemetry.WritePrometheus(&sb, []telemetry.Sample{s}); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidatePrometheus(sb.String()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, sb.String())
	}
}
