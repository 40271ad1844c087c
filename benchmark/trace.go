package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/telemetry"
)

// The traced run records one benchmark-side span around every timed op,
// into the same tracer the engine (or daemon) writes its phase spans
// to, so both share one time base. Spans inside the program are the
// engine's existing ones; adding more is a later issue.
const (
	catOp = "bench.op"
	// opLane is the trace lane (tid) of benchmark-side spans; client i
	// of serve-mixed uses opLane+i. Engine lanes count up from 1.
	opLane = 1000
)

// span is a trace event placed in the span tree.
type span struct {
	telemetry.TraceEvent
	id     int
	parent int // index into the span list, -1 for a root
	op     int // index of the enclosing op span, -1 outside any op
	// covered is how much of the span its children cover (the union of
	// their intervals), so self time is Dur - covered.
	covered int64
}

func (s *span) end() int64 { return s.TS + s.Dur }

// slack absorbs the trace format's microsecond truncation: a child that
// truly ends inside its parent may read up to this much past it.
const slack = 2

// nestSpans derives each span's parent by containment in time: the
// parent is the smallest span that encloses it. With one caller (the
// in-process workloads) that is exact; with concurrent clients a
// daemon-side span is attributed to the tightest client op around it.
func nestSpans(events []telemetry.TraceEvent) []span {
	spans := make([]span, len(events))
	for i, ev := range events {
		spans[i] = span{TraceEvent: ev, id: i, parent: -1, op: -1}
	}
	// Outer spans first: earlier start, and for equal starts the longer.
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].TS != spans[j].TS {
			return spans[i].TS < spans[j].TS
		}
		return spans[i].Dur > spans[j].Dur
	})
	for i := range spans {
		spans[i].id = i
	}
	var open []int // indices of spans that may still enclose later ones
	for i := range spans {
		s := &spans[i]
		keep := open[:0]
		for _, k := range open {
			if spans[k].end()+slack >= s.TS {
				keep = append(keep, k)
			}
		}
		open = keep
		best := -1
		for _, k := range open {
			if spans[k].end()+slack >= s.end() && (best < 0 || spans[k].Dur <= spans[best].Dur) {
				best = k
			}
		}
		s.parent = best
		if s.Cat == catOp {
			s.op = i
		} else if best >= 0 {
			s.op = spans[best].op
		}
		open = append(open, i)
	}
	// Children's coverage of each parent: the union of their intervals.
	children := make(map[int][][2]int64)
	for i := range spans {
		if p := spans[i].parent; p >= 0 {
			lo, hi := spans[i].TS, spans[i].end()
			if pe := spans[p].end(); hi > pe {
				hi = pe
			}
			children[p] = append(children[p], [2]int64{lo, hi})
		}
	}
	for p, iv := range children {
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, reach int64
		reach = spans[p].TS
		for _, x := range iv {
			if x[1] <= reach {
				continue
			}
			if x[0] < reach {
				x[0] = reach
			}
			covered += x[1] - x[0]
			reach = x[1]
		}
		spans[p].covered = covered
	}
	return spans
}

// writeTrace dumps the spans as a Chrome trace-event file, each event
// carrying its span id, its parent's and its op's.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	events := make([]telemetry.TraceEvent, len(spans))
	for i, s := range spans {
		ev := s.TraceEvent
		ev.Args = map[string]any{"span": s.id, "parent": s.parent, "op": s.op, "self_us": s.Dur - s.covered}
		events[i] = ev
	}
	data, err := json.Marshal(struct {
		TraceEvents     []telemetry.TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string                 `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// attributionMetrics reports, per op, the time each compile phase and
// execution took inside op spans, each phase's share of op time, and
// the share of op time no child span accounts for — the reconciliation
// the ROADMAP asks for ("the layers must sum").
func attributionMetrics(vals map[string]float64, spans []span, rec *recorder) {
	var opTime, unattributed int64
	self := make(map[string]int64)
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Cat == catOp:
			opTime += s.Dur
			unattributed += s.Dur - s.covered
		case s.op >= 0:
			self[s.Cat] += s.Dur - s.covered
		}
	}
	ops := float64(rec.attempted)
	perOp := func(cat string) float64 { return float64(self[cat]) / 1e3 / ops }
	share := func(cat string) float64 {
		if opTime == 0 {
			return 0
		}
		return 100 * float64(self[cat]) / float64(opTime)
	}
	vals["disambig.ms"], vals["disambig.share"] = perOp(telemetry.CatDisambig), share(telemetry.CatDisambig)
	vals["infer.ms"], vals["infer.share"] = perOp(telemetry.CatTypeInf), share(telemetry.CatTypeInf)
	vals["codegen.ms"], vals["codegen.share"] = perOp(telemetry.CatCodegen), share(telemetry.CatCodegen)
	vals["vm.exec_ms"], vals["vm.exec_share"] = perOp(telemetry.CatExec), share(telemetry.CatExec)
	vals["compilequeue.wait_ms"] = perOp(telemetry.CatQueue)
	vals["core.unattributed_pct"] = 0
	if opTime > 0 {
		vals["core.unattributed_pct"] = 100 * float64(unattributed) / float64(opTime)
	}
}
