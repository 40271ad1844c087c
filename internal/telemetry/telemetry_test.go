package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func sample(kind Kind, name, help string, v float64, labels ...Label) Sample {
	return Sample{Name: name, Help: help, Kind: kind, Value: v, Labels: labels}
}

// prom renders samples and fails the test on an invalid exposition.
func prom(t *testing.T, samples ...Sample) string {
	t.Helper()
	var b strings.Builder
	if err := WritePrometheus(&b, samples); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidatePrometheus(b.String()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, b.String())
	}
	return b.String()
}

// Samples of one family are merged under one header, families in
// first-seen order, however the emitter interleaved them.
func TestRegistryGatherOrderAndMerge(t *testing.T) {
	got := prom(t,
		sample(KindCounter, "majic_evals_total", "evals", 3, Label{"pool", "a"}),
		sample(KindGauge, "majic_sessions", "sessions", 2),
		sample(KindCounter, "majic_evals_total", "evals", 4, Label{"pool", "b"}))
	want := "# HELP majic_evals_total evals\n# TYPE majic_evals_total counter\n" +
		"majic_evals_total{pool=\"a\"} 3\nmajic_evals_total{pool=\"b\"} 4\n" +
		"# HELP majic_sessions sessions\n# TYPE majic_sessions gauge\nmajic_sessions 2\n"
	if got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// A family's labelled samples stay separate series, in emission order.
func TestRegistryLabelsNotMerged(t *testing.T) {
	got := prom(t,
		sample(KindCounter, "majic_route_total", "h", 1, Label{"route", "eval"}),
		sample(KindCounter, "majic_route_total", "h", 5, Label{"route", "create"}),
		sample(KindCounter, "majic_route_total", "h", 2, Label{"route", "compile"}))
	want := "# HELP majic_route_total h\n# TYPE majic_route_total counter\n" +
		"majic_route_total{route=\"eval\"} 1\nmajic_route_total{route=\"create\"} 5\n" +
		"majic_route_total{route=\"compile\"} 2\n"
	if got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestNilReceiversSafe(t *testing.T) {
	var tr *Tracer
	tr.Span(CatEval, "e", 0, time.Now(), time.Millisecond)
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer should be inert")
	}
	var j *Journal
	j.Record(Event{Kind: EventDeopt})
	if j.Events() != nil || j.Len() != 0 || j.Total() != 0 {
		t.Fatal("nil journal should be inert")
	}
}

func TestWritePrometheusValidates(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, []Sample{
		sample(KindCounter, "majic_repo_hits_total", "repository locator hits", 12),
		sample(KindGauge, "majic_queue_depth", "queue depth", 3, Label{"pool", `a"b\c`}),
		{
			Name: "majic_eval_latency_seconds",
			Help: "eval latency",
			Kind: KindHistogram,
			Buckets: []Bucket{
				{UpperBound: 0.001, Count: 2},
				{UpperBound: 0.01, Count: 5},
				{UpperBound: math.Inf(1), Count: 7},
			},
			Sum:   0.042,
			Count: 7,
		},
	}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	n, err := ValidatePrometheus(out)
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	if n != 7 { // 1 counter + 1 gauge + 3 buckets + sum + count
		t.Fatalf("sample lines = %d, want 7\n%s", n, out)
	}
	for _, want := range []string{
		"# TYPE majic_repo_hits_total counter",
		"majic_repo_hits_total 12",
		`majic_queue_depth{pool="a\"b\\c"} 3`,
		`majic_eval_latency_seconds_bucket{le="+Inf"} 7`,
		"majic_eval_latency_seconds_sum 0.042",
		"majic_eval_latency_seconds_count 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWritePrometheusAddsInfBucket(t *testing.T) {
	out := prom(t, Sample{Name: "h_hist", Kind: KindHistogram,
		Buckets: []Bucket{{UpperBound: 1, Count: 3}}, Sum: 1.5, Count: 4})
	if !strings.Contains(out, `h_hist_bucket{le="+Inf"} 4`) {
		t.Fatalf("missing synthesized +Inf bucket:\n%s", out)
	}
}

func TestValidatePrometheusRejects(t *testing.T) {
	for _, bad := range []string{
		"no_type_header 1",
		"# TYPE m wrongtype\nm 1",
		"# TYPE m counter\nm{unclosed=\"x} 1",
		"# TYPE m counter\nm notanumber",
		"# TYPE m counter\n# TYPE m counter\nm 1",
	} {
		if _, err := ValidatePrometheus(bad); err == nil {
			t.Errorf("ValidatePrometheus(%q) accepted invalid payload", bad)
		}
	}
}

func TestTracerRingAndTotals(t *testing.T) {
	tr := NewTracer(4)
	base := time.Now()
	for i := 0; i < 6; i++ {
		tr.Span(CatExec, "run", 1, base.Add(time.Duration(i)*time.Millisecond), 2*time.Millisecond)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	if tr.Dropped() != 2 {
		t.Fatalf("Dropped() = %d, want 2", tr.Dropped())
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("events not oldest-first: %+v", evs)
		}
	}
	if got := tr.CatTotals()[CatExec]; got != 8*time.Millisecond {
		t.Fatalf("CatTotals[exec] = %v, want 8ms", got)
	}
}

func TestTracerWriteJSON(t *testing.T) {
	tr := NewTracer(8)
	tr.SpanArgs(CatEval, "eval", 3, time.Now(), 5*time.Millisecond, map[string]any{"src": "x=1"})
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"traceEvents"`, `"ph":"X"`, `"cat":"eval"`, `"tid":3`, `"src":"x=1"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace JSON missing %q:\n%s", want, out)
		}
	}
	empty := NewTracer(1)
	b.Reset()
	if err := empty.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"traceEvents":[]`) {
		t.Fatalf("empty tracer should emit an empty array:\n%s", b.String())
	}
}

func TestJournalRingSeqAndCauses(t *testing.T) {
	j := NewJournal(3)
	causes := []string{CauseGeneration, CauseBindingGuard, CauseRangeGuard, CauseBudgetExhausted}
	for _, c := range causes {
		j.Record(Event{Kind: EventDeopt, Func: "hotloop", Sig: "(f64)", Cause: c})
	}
	if j.Len() != 3 || j.Total() != 4 {
		t.Fatalf("Len=%d Total=%d, want 3/4", j.Len(), j.Total())
	}
	evs := j.Events()
	if evs[0].Cause != CauseBindingGuard || evs[2].Cause != CauseBudgetExhausted {
		t.Fatalf("ring order wrong: %+v", evs)
	}
	for i, ev := range evs {
		if ev.Seq != int64(i+2) {
			t.Fatalf("seq not monotonic: %+v", evs)
		}
		if ev.TimeUnixNano == 0 || ev.Cause == "" {
			t.Fatalf("event missing stamp or cause: %+v", ev)
		}
	}
}

// Concurrency smoke for -race: spans and journal events racing reads.
func TestConcurrentUse(t *testing.T) {
	tr := NewTracer(128)
	j := NewJournal(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Span(CatQueue, "job", g, time.Now(), time.Microsecond)
				j.Record(Event{Kind: EventPromotion, Func: "f", Cause: "hot-signature"})
				_ = tr.Events()
				_ = j.Events()
			}
		}(g)
	}
	wg.Wait()
}

type walkInner struct {
	Hits    int    `json:"hits" metric:"t_hits_total,counter" help:"hits"`
	Level   uint64 `json:"level" metric:"t_level,gauge" help:"level"`
	Derived int    `json:"derived" metric:"-"`
}

type walkOuter struct {
	On     bool      `metric:"t_on,gauge,gate" help:"on"`
	Inner  walkInner `json:"inner"`
	ByKind int       `metric:"t_by_total,counter,cause=a" help:"by"`
	Name   string    `metric:"-"`
	Any    any
}

// Emit renders tagged fields with their labels, in declaration order,
// walks untagged structs and interfaces, skips metric:"-", and stops at
// a false gate.
func TestEmitWalksTags(t *testing.T) {
	render := func(v any) string {
		var out []string
		for _, s := range Emit(nil, v) {
			out = append(out, fmt.Sprintf("%s%v=%g", s.Name, s.Labels, s.Value))
		}
		return strings.Join(out, " ")
	}
	on := walkOuter{On: true, Inner: walkInner{Hits: 3, Level: 4, Derived: 5}, ByKind: 6, Any: &walkInner{Hits: 7}}
	if got, want := render(on),
		"t_on[]=1 t_hits_total[]=3 t_level[]=4 t_by_total[{cause a}]=6 t_hits_total[]=7 t_level[]=0"; got != want {
		t.Errorf("samples = %s\nwant      %s", got, want)
	}
	if s := Emit(nil, on)[0]; s.Kind != KindGauge || s.Help != "on" {
		t.Errorf("t_on = %+v", s)
	}
	if got := render(walkOuter{Inner: walkInner{Hits: 3}}); got != "t_on[]=0" {
		t.Errorf("a false gate must emit only itself: %s", got)
	}
}
