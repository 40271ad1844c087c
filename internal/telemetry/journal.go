package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// EventKind names a tiering lifecycle transition.
type EventKind string

const (
	// EventPromotion: a hot signature crossed the call threshold and a
	// native specialisation was installed.
	EventPromotion EventKind = "promotion"
	// EventEviction: the bounded repository discarded a compiled entry.
	EventEviction EventKind = "eviction"
	// EventSnapshotLoad: the persistence layer warm-started entries.
	EventSnapshotLoad EventKind = "snapshot_load"
	// EventSnapshotFlush: the write-behind writer flushed a snapshot.
	EventSnapshotFlush EventKind = "snapshot_flush"
	// EventDeopt: a compiled activation whose return-type guard missed
	// was abandoned and re-run in the interpreter (CauseReturnGuard).
	EventDeopt EventKind = "deopt"
	// EventReplication: a repository entry compiled on a cluster peer
	// was applied locally (Cause "peer-apply", Detail names the origin
	// node).
	EventReplication EventKind = "replication"
)

// CauseReturnGuard is the one deopt cause: a callee's result was not the
// scalar its return summary promised, and the activation re-ran
// interpreted.
const CauseReturnGuard = "return-guard"

// Event is one journal entry. Func/Sig identify the compiled unit,
// Cause explains the transition, Gen is the repository generation
// involved, Detail is free-form context (victim signature, entry
// counts).
type Event struct {
	Seq          int64     `json:"seq"`
	TimeUnixNano int64     `json:"time_unix_nano"`
	Kind         EventKind `json:"kind"`
	Func         string    `json:"func,omitempty"`
	Sig          string    `json:"sig,omitempty"`
	Cause        string    `json:"cause,omitempty"`
	Gen          uint64    `json:"gen,omitempty"`
	Detail       string    `json:"detail,omitempty"`
}

// Journal is a bounded ring of tiering events. Nil-receiver-safe like
// Tracer, and events only fire on slow paths (promotion, eviction,
// snapshot I/O, deopt) — never per iteration — so it adds nothing to
// fused or VM fast paths.
type Journal struct {
	mu     sync.Mutex
	seq    int64
	events ring[Event]
}

// DefaultJournalCapacity bounds journals created with capacity <= 0.
const DefaultJournalCapacity = 4096

// NewJournal returns a journal holding at most capacity events (<= 0
// means DefaultJournalCapacity); when full the oldest entry is
// overwritten.
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{events: ring[Event]{cap: capacity}}
}

// Record appends an event, stamping Seq and TimeUnixNano.
func (j *Journal) Record(ev Event) {
	if j == nil {
		return
	}
	ev.TimeUnixNano = time.Now().UnixNano()
	j.mu.Lock()
	j.seq++
	ev.Seq = j.seq
	j.events.add(ev)
	j.mu.Unlock()
}

// Events returns the retained entries, oldest first.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.events.slice()
}

// Len reports how many entries are retained.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.events.items)
}

// Total reports how many events were ever recorded (Seq high-water).
func (j *Journal) Total() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// String renders one event as a log line — the `majic -jit-log` format.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s %s", e.Seq,
		time.Unix(0, e.TimeUnixNano).Format("15:04:05.000"), e.Kind)
	if e.Func != "" {
		fmt.Fprintf(&b, " %s", e.Func)
	}
	if e.Sig != "" {
		fmt.Fprintf(&b, " sig=%s", e.Sig)
	}
	if e.Cause != "" {
		fmt.Fprintf(&b, " cause=%s", e.Cause)
	}
	if e.Gen != 0 {
		fmt.Fprintf(&b, " gen=%d", e.Gen)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " (%s)", e.Detail)
	}
	return b.String()
}

// WriteText prints the retained events oldest-first, one line each.
func (j *Journal) WriteText(w io.Writer) error {
	for _, e := range j.Events() {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}
