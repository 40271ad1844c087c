package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func sample(kind Kind, name, help string, v float64, labels ...Label) Sample {
	return Sample{Name: name, Help: help, Kind: kind, Value: v, Labels: labels}
}

func TestRegistryGatherOrderAndMerge(t *testing.T) {
	r := NewRegistry()
	r.RegisterFunc("b", func(emit func(Sample)) {
		emit(sample(KindCounter, "majic_evals_total", "evals", 3))
		emit(sample(KindGauge, "majic_sessions", "sessions", 2))
	})
	r.RegisterFunc("a", func(emit func(Sample)) {
		emit(sample(KindCounter, "majic_evals_total", "evals", 4))
	})
	got := r.Gather()
	if len(got) != 2 {
		t.Fatalf("Gather() = %d samples, want 2 (merged): %+v", len(got), got)
	}
	if got[0].Name != "majic_evals_total" || got[0].Value != 7 {
		t.Fatalf("merged counter = %+v, want majic_evals_total=7", got[0])
	}
	if got[1].Name != "majic_sessions" || got[1].Value != 2 {
		t.Fatalf("gauge = %+v", got[1])
	}
}

func TestRegistryLabelsNotMerged(t *testing.T) {
	r := NewRegistry()
	r.RegisterFunc("x", func(emit func(Sample)) {
		emit(sample(KindCounter, "majic_route_total", "h", 1, Label{"route", "eval"}))
		emit(sample(KindCounter, "majic_route_total", "h", 5, Label{"route", "create"}))
		emit(sample(KindCounter, "majic_route_total", "h", 2, Label{"route", "eval"}))
	})
	got := r.Gather()
	if len(got) != 2 {
		t.Fatalf("Gather() = %d samples, want 2: %+v", len(got), got)
	}
	if got[0].Value != 3 || got[1].Value != 5 {
		t.Fatalf("label merge wrong: %+v", got)
	}
}

func TestRegistryReplaceAndUnregister(t *testing.T) {
	r := NewRegistry()
	r.RegisterFunc("s", func(emit func(Sample)) { emit(sample(KindCounter, "c_total", "", 1)) })
	r.RegisterFunc("s", func(emit func(Sample)) { emit(sample(KindCounter, "c_total", "", 9)) })
	if got := r.Gather(); len(got) != 1 || got[0].Value != 9 {
		t.Fatalf("replace failed: %+v", got)
	}
	r.Unregister("s")
	if got := r.Gather(); len(got) != 0 {
		t.Fatalf("unregister failed: %+v", got)
	}
}

func TestNilReceiversSafe(t *testing.T) {
	var r *Registry
	r.Register("x", CollectorFunc(func(func(Sample)) {}))
	r.Unregister("x")
	if r.Gather() != nil {
		t.Fatal("nil registry Gather should be nil")
	}
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
	r := NewRegistry()
	r.RegisterFunc("core", func(emit func(Sample)) {
		emit(sample(KindCounter, "majic_repo_hits_total", "repository locator hits", 12))
		emit(sample(KindGauge, "majic_queue_depth", "queue depth", 3, Label{"pool", `a"b\c`}))
		emit(Sample{
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
		})
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
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
	r := NewRegistry()
	r.RegisterFunc("h", func(emit func(Sample)) {
		emit(Sample{Name: "h_hist", Kind: KindHistogram,
			Buckets: []Bucket{{UpperBound: 1, Count: 3}}, Sum: 1.5, Count: 4})
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `h_hist_bucket{le="+Inf"} 4`) {
		t.Fatalf("missing synthesized +Inf bucket:\n%s", b.String())
	}
	if _, err := ValidatePrometheus(b.String()); err != nil {
		t.Fatal(err)
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

// Concurrency smoke for -race: scrapes racing registration, spans and
// journal events racing reads.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(128)
	j := NewJournal(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.RegisterFunc("g", func(emit func(Sample)) {
					emit(sample(KindCounter, "c_total", "", 1))
				})
				tr.Span(CatQueue, "job", g, time.Now(), time.Microsecond)
				j.Record(Event{Kind: EventPromotion, Func: "f", Cause: "hot-signature"})
				_ = r.Gather()
				_ = tr.Events()
				_ = j.Events()
			}
		}(g)
	}
	wg.Wait()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidatePrometheus(b.String()); err != nil {
		t.Fatal(err)
	}
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

// Emit renders tagged fields with their labels, walks untagged structs
// and interfaces, skips metric:"-", and stops at a false gate.
func TestEmitWalksTags(t *testing.T) {
	collect := func(v any) map[string]Sample {
		var raw []Sample
		Emit(func(s Sample) { raw = append(raw, s) }, v)
		out := map[string]Sample{}
		for _, s := range mergeSamples(raw) {
			out[s.Name+labelKey(s.Labels)] = s
		}
		return out
	}
	got := collect(walkOuter{On: true, Inner: walkInner{Hits: 3, Level: 4, Derived: 5}, ByKind: 6,
		Any: &walkInner{Hits: 7}})
	if len(got) != 4 {
		t.Fatalf("samples = %v, want t_on, t_hits_total, t_level, t_by_total", got)
	}
	if s := got["t_on"]; s.Value != 1 || s.Kind != KindGauge || s.Help != "on" {
		t.Errorf("t_on = %+v", s)
	}
	if s := got["t_hits_total"]; s.Kind != KindCounter || s.Value != 10 {
		t.Errorf("t_hits_total = %+v, want 3 from the struct plus 7 through the interface", s)
	}
	if s := got["t_by_total"+labelKey([]Label{{"cause", "a"}})]; s.Value != 6 {
		t.Errorf("labelled sample = %+v", s)
	}
	if off := collect(walkOuter{Inner: walkInner{Hits: 3}}); len(off) != 1 || off["t_on"].Value != 0 {
		t.Errorf("a false gate must emit only itself: %v", off)
	}
}

// Add sums counters and fields kept out of the exposition, and gauges
// only when asked.
func TestAddSumsCounters(t *testing.T) {
	dst := walkInner{Hits: 1, Level: 10, Derived: 100}
	Add(&dst, walkInner{Hits: 2, Level: 20, Derived: 200}, false)
	if dst != (walkInner{Hits: 3, Level: 10, Derived: 300}) {
		t.Fatalf("counters only: %+v", dst)
	}
	Add(&dst, walkInner{Hits: 2, Level: 20, Derived: 200}, true)
	if dst != (walkInner{Hits: 5, Level: 30, Derived: 500}) {
		t.Fatalf("with gauges: %+v", dst)
	}
}
