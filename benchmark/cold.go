package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/telemetry"
)

// cold is the responsiveness workload: for every Table 1 program and
// arm, one op is a whole short session — fresh engine, define, first
// call (compile included), redefine with changed source (so the
// repository invalidates and its generation advances), call again,
// close. The front end, inference, codegen, the compile queue and the
// repository's write path do most of the work; execution is short.
type cold struct {
	size   bench.Size
	seed   int64
	golden map[string]reference

	programs []program
	sessions []*coldSession
	tr       *telemetry.Tracer

	// cumulative layer counters of the sessions closed so far
	closed layerCounters
}

// coldSession is everything one (program) needs, prepared by set-up so
// the timed op does no input generation.
type coldSession struct {
	prog        program
	arms        []arm
	src         string
	variant     string
	args        []*mat.Value
	want        reference
	wantVariant reference
}

func newCold(c config) (*cold, error) {
	names := table1Names()
	if c.quick {
		names = []string{"adapt", "cgopt", "fibonacci", "sor"}
	}
	progs, err := lookupPrograms(names)
	if err != nil {
		return nil, err
	}
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	return &cold{size: bench.Small, seed: c.seed, golden: golden, programs: progs}, nil
}

// coldProd is the part of Table 1 that also runs under the prod arm:
// the programs whose first tiered call (interpreted, with a mid-loop
// OSR transfer) takes under about 10 ms on the reference box. The
// other six take 10-100 ms there, which would stretch a round to a
// second and leave 25 samples per row, too few for the floor to repeat
// (see the note on sizes in programs.go).
var coldProd = map[string]bool{
	"adapt": true, "cgopt": true, "dirich": true, "fibonacci": true, "fractal": true,
	"mei": true, "orbec": true, "qmr": true, "sor": true, "ackermann": true,
}

// setUp derives each program's seeded variant and its reference: the
// variant's result under the interpreter, built during set-up the same
// way the committed references were.
func (w *cold) setUp(tr *telemetry.Tracer) error {
	w.tr = tr
	w.sessions = nil
	w.closed = layerCounters{}
	rng := rand.New(rand.NewSource(w.seed))
	for _, p := range w.programs {
		want, ok := w.golden[goldenKey(p.name, w.size)]
		if !ok {
			return fmt.Errorf("no reference output for %s; run -update-golden", goldenKey(p.name, w.size))
		}
		src := p.source(w.size)
		variant, err := makeVariant(src, 1+float64(rng.Intn(1024))/1024)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		args := p.args(w.size)
		wantVariant, err := interpReference(variant, p.fn, args)
		if err != nil {
			return fmt.Errorf("%s variant: %w", p.name, err)
		}
		wantVariant.inexactOK = want.inexactOK
		if wantVariant.Bits == want.Bits {
			return fmt.Errorf("%s: the variant computes the original's result, so stale code would pass", p.name)
		}
		arms := []arm{armJIT}
		if coldProd[p.name] {
			arms = append(arms, armProd)
		}
		w.sessions = append(w.sessions, &coldSession{p, arms, src, variant, args, want, wantVariant})
	}
	return nil
}

var headerRE = regexp.MustCompile(`(?m)^\s*function\s+\w+\s*=\s*(\w+)\s*(?:\(([^)]*)\))?`)

// makeVariant renames src's entry function to <fn>_body (recursive
// calls follow) and defines <fn> anew as a wrapper that adds delta to
// the body's result. The redefinition invalidates <fn>'s compiled
// entries, the new result differs from the old one — so a stale entry
// served after the redefinition fails the check — and successive seeds
// differ in that one numeric literal. The offset is added outside the
// recursion, so recursive programs still terminate.
func makeVariant(src string, delta float64) (string, error) {
	m := headerRE.FindStringSubmatch(src)
	if m == nil {
		return "", fmt.Errorf("no `function out = name(...)` header found")
	}
	fn, params := m[1], strings.TrimSpace(m[2])
	renamed := regexp.MustCompile(`\b`+regexp.QuoteMeta(fn)+`\b`).ReplaceAllString(src, fn+"_body")
	return fmt.Sprintf("%s\nfunction r = %s(%s)\n  r = %s_body(%s) + %v;\nend\n", renamed, fn, params, fn, params, delta), nil
}

func (w *cold) tearDown() { w.sessions = nil }

func (w *cold) tracer() *telemetry.Tracer { return w.tr }

func (w *cold) measure(lim *limit, rng *rand.Rand) *recorder {
	rec := newRecorder()
	for lim.more() {
		for _, si := range rng.Perm(len(w.sessions)) {
			s := w.sessions[si]
			for _, ai := range rng.Perm(len(s.arms)) {
				w.session(s, s.arms[ai], lim, rec)
			}
		}
	}
	rec.wall = lim.since()
	return rec
}

// session is one op: two latencies, first result and redefined result.
func (w *cold) session(s *coldSession, a arm, lim *limit, rec *recorder) {
	name := s.prog.name + "/" + string(a)

	ref := refLoop()
	t0 := time.Now()
	e := core.New(a.options(w.tr))
	err := e.Define(s.src)
	var outs []*mat.Value
	if err == nil {
		outs, err = e.Call(s.prog.fn, s.args, 1)
	}
	d := time.Since(t0)
	w.tr.SpanArgs(catOp, "first:"+name, opLane, t0, d, nil)
	rec.add("first:"+name, "first."+string(a), true, d, ref, lim.since(), checkResult(outs, err, s.want))

	e.Context().RNG.Seed(engineSeed) // the variant's reference ran on a fresh generator
	ref = refLoop()
	t1 := time.Now()
	err = e.Define(s.variant)
	outs = nil
	if err == nil {
		outs, err = e.Call(s.prog.fn, s.args, 1)
	}
	d = time.Since(t1)
	w.tr.SpanArgs(catOp, "redefine:"+name, opLane, t1, d, nil)
	rec.add("redefine:"+name, "redefine."+string(a), true, d, ref, lim.since(), checkResult(outs, err, s.wantVariant))

	e.Close() // waits for background compiles the session left queued
	addRepo(&w.closed, e)
}

func (w *cold) counters() layerCounters {
	c := w.closed
	c.pool = mat.ReadPoolStats()
	return c
}
