package telemetry

import (
	"cmp"
	"encoding/json"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Span categories. Each maps to one stage of the pipeline the paper's
// Figure 6 decomposes; the trace is the engine's only record of phase
// time, and the figure is its per-category self time (SelfTotals).
const (
	CatEval     = "eval"     // whole EvalString call
	CatParse    = "parse"    // front-end parse
	CatDisambig = "disambig" // MAGICA-style disambiguation
	CatTypeInf  = "typeinf"  // type/shape inference
	CatCodegen  = "codegen"  // code generation / specialisation
	CatQueue    = "queue"    // compile-queue wait (ticket.Wait)
	CatCompile  = "compile"  // background compile job execution
	CatExec     = "exec"     // program execution
	CatTierUp   = "tierup"   // tier promotion compile
)

// TraceEvent is one Chrome trace-event ("X" complete event): load the
// dump in chrome://tracing or Perfetto. Timestamps and durations are
// microseconds; TS is relative to the tracer's start so traces from
// different runs line up at zero.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Tracer collects trace spans into a bounded ring. All methods are safe
// on a nil receiver and from concurrent goroutines, so instrumentation
// sites never branch on "is tracing on?" — a nil tracer costs one
// predictable nil check inside the call.
type Tracer struct {
	start time.Time

	mu     sync.Mutex
	events ring[TraceEvent]

	dropped atomic.Int64 // events overwritten after the ring filled
}

// DefaultTraceCapacity bounds tracers created with capacity <= 0.
const DefaultTraceCapacity = 1 << 16

// NewTracer returns a tracer holding at most capacity spans (<= 0 means
// DefaultTraceCapacity). When full it overwrites the oldest span and
// counts the loss — a long-lived daemon keeps the most recent window,
// which is the one an operator debugging "why is it slow *now*" wants.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{start: time.Now(), events: ring[TraceEvent]{cap: capacity}}
}

// Span records one completed span. begin is the span's wall-clock start
// and d its duration. tid picks the lane (engine id for eval-thread
// spans, compile-worker index for queue jobs); a span nests in another
// of its lane that encloses it (SelfTotals).
func (t *Tracer) Span(cat, name string, tid int, begin time.Time, d time.Duration) {
	t.span(cat, name, tid, begin, d, nil)
}

// SpanArgs is Span with key/value detail attached to the event.
func (t *Tracer) SpanArgs(cat, name string, tid int, begin time.Time, d time.Duration, args map[string]any) {
	t.span(cat, name, tid, begin, d, args)
}

func (t *Tracer) span(cat, name string, tid int, begin time.Time, d time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	ev := TraceEvent{
		Name: name,
		Cat:  cat,
		Ph:   "X",
		TS:   begin.Sub(t.start).Microseconds(),
		Dur:  d.Microseconds(),
		TID:  tid,
		Args: args,
	}
	t.mu.Lock()
	if t.events.add(ev) {
		t.dropped.Add(1)
	}
	t.mu.Unlock()
}

// Events returns the recorded spans, oldest first.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events.slice()
}

// Dropped reports how many spans were overwritten after the ring filled.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// SelfTotals sums each category's self time: a span's duration minus
// what its child spans on the same lane cover, so a compile that runs
// inside an exec span counts once, as compile. A child is a
// later-starting span that begins before its parent ends; what it covers
// is clipped to its parent, because microsecond truncation can push a
// child's end past its parent's, so self time is never below zero.
// Spans of one lane that overlap without nesting (concurrent callers of
// one engine) are read the same way.
func (t *Tracer) SelfTotals() map[string]time.Duration {
	events := t.Events()
	order := make([]int, len(events))
	for i := range order {
		order[i] = i
	}
	// Lane, then start, then longest first; of two spans alike in both,
	// the later-recorded one encloses the other (a span is recorded when
	// it ends).
	slices.SortFunc(order, func(a, b int) int {
		x, y := &events[a], &events[b]
		if c := cmp.Compare(x.TID, y.TID); c != 0 {
			return c
		}
		if c := cmp.Compare(x.TS, y.TS); c != 0 {
			return c
		}
		if c := cmp.Compare(y.Dur, x.Dur); c != 0 {
			return c
		}
		return cmp.Compare(b, a)
	})
	type open struct {
		ev       *TraceEvent
		end      int64 // clipped to the enclosing span's end
		children int64
	}
	totals := make(map[string]time.Duration)
	var stack []open
	closeTop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		totals[top.ev.Cat] += time.Duration(top.ev.Dur-top.children) * time.Microsecond
	}
	for _, i := range order {
		ev := &events[i]
		for len(stack) > 0 && (stack[len(stack)-1].ev.TID != ev.TID || stack[len(stack)-1].end <= ev.TS) {
			closeTop()
		}
		end := ev.TS + ev.Dur
		if len(stack) > 0 {
			parent := &stack[len(stack)-1]
			end = min(end, parent.end)
			parent.children += end - ev.TS
		}
		stack = append(stack, open{ev: ev, end: end})
	}
	for len(stack) > 0 {
		closeTop()
	}
	return totals
}

// WriteJSON emits the spans as a Chrome trace-event file:
// {"traceEvents":[...],"displayTimeUnit":"ms"}.
func (t *Tracer) WriteJSON(w io.Writer) error {
	type dump struct {
		TraceEvents     []TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		Dropped         int64        `json:"droppedEventCount,omitempty"`
	}
	events := t.Events()
	if events == nil {
		events = []TraceEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(dump{TraceEvents: events, DisplayTimeUnit: "ms", Dropped: t.Dropped()})
}

// WriteFile dumps the spans as a Chrome trace-event file at path — the
// -trace=FILE exit path shared by the CLIs.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
