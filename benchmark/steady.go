package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/telemetry"
)

// steady is the warm-call workload behind steady-scalar and
// steady-kernel: every (program, arm) row owns one engine whose code is
// compiled during set-up, and each round calls every row once. Closed
// loop, one caller: a MATLAB session waits for its answer.
type steady struct {
	sizes    []bench.Size // per program
	programs []program
	arms     []arm
	golden   map[string]reference

	rows []*steadyRow
	tr   *telemetry.Tracer
}

type steadyRow struct {
	name string
	prog program
	size bench.Size
	arm  arm
	eng  *core.Engine
	args []*mat.Value
	want reference
}

func newSteady(c config, set []sized, arms []arm) (*steady, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	s := &steady{arms: arms, golden: golden}
	if c.quick {
		set = set[len(set)-4:] // the smoke test's share: the recursive rows, the added kernel programs
	}
	for _, e := range set {
		p, err := lookupProgram(e.name)
		if err != nil {
			return nil, err
		}
		s.programs = append(s.programs, p)
		s.sizes = append(s.sizes, c.size(e.size))
	}
	return s, nil
}

func (s *steady) setUp(tr *telemetry.Tracer) error {
	s.tr = tr
	s.rows = nil
	for i, p := range s.programs {
		size := s.sizes[i]
		want, ok := s.golden[goldenKey(p.name, size)]
		if !ok {
			return fmt.Errorf("no reference output for %s; run -update-golden", goldenKey(p.name, size))
		}
		args := p.args(size) // shared by the program's arms: calls never write their arguments
		for _, a := range s.arms {
			r := &steadyRow{
				name: p.name + "/" + string(a), prog: p, size: size, arm: a,
				eng: core.New(a.options(tr)), args: args, want: want,
			}
			s.rows = append(s.rows, r)
			if err := r.warm(); err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
		}
	}
	return nil
}

// warm brings a row to steady state: source defined, speculative code
// precompiled, the JIT entry compiled by a first call, and for prod the
// hot signature promoted and its optimized entry published.
func (r *steadyRow) warm() error {
	if err := r.eng.Define(r.prog.source(r.size)); err != nil {
		return err
	}
	r.eng.Precompile()
	calls := 1
	if r.arm == armProd {
		calls = promotionCalls
	}
	for i := 0; i < calls; i++ {
		outs, err := r.call()
		if err := checkResult(outs, err, r.want); err != nil && !errors.Is(err, errInexact) {
			return fmt.Errorf("warm-up call: %w", err)
		}
	}
	r.eng.Drain()
	return nil
}

// call reseeds the engine's generator first, so that programs drawing
// random numbers (mei, fractal) compute the reference's result on every
// call, not only on an engine's first.
func (r *steadyRow) call() ([]*mat.Value, error) {
	r.eng.Context().RNG.Seed(engineSeed)
	return r.eng.Call(r.prog.fn, r.args, 1)
}

func (s *steady) tearDown() {
	for _, r := range s.rows {
		r.eng.Close()
	}
	s.rows = nil
}

func (s *steady) tracer() *telemetry.Tracer { return s.tr }

// measure visits the programs in seeded order each round and, within a
// program, its arms in seeded order — so a program's interp and
// compiled calls are neighbours in time and machine noise cancels in
// their ratio.
func (s *steady) measure(lim *limit, rng *rand.Rand) *recorder {
	rec := newRecorder()
	perProg := len(s.arms)
	for lim.more() {
		for _, pi := range rng.Perm(len(s.programs)) {
			for _, ai := range rng.Perm(perProg) {
				r := s.rows[pi*perProg+ai]
				ref := refLoop()
				t0 := time.Now()
				outs, err := r.call()
				d := time.Since(t0)
				s.tr.SpanArgs(catOp, r.name, opLane, t0, d, nil)
				rec.add(r.name, string(r.arm), r.arm != armInterp, d, ref, lim.since(), checkResult(outs, err, r.want))
			}
		}
	}
	rec.wall = lim.since()
	return rec
}

func (s *steady) counters() layerCounters {
	var c layerCounters
	for _, r := range s.rows {
		addRepo(&c, r.eng)
	}
	c.pool = mat.ReadPoolStats()
	return c
}

// addRepo folds one private-library engine's counters into c.
func addRepo(c *layerCounters, e *core.Engine) {
	st := e.Repo().Stats()
	c.repo.Lookups += st.Lookups
	c.repo.Hits += st.Hits
	c.repo.Inserts += st.Inserts
	c.repo.Invalidation += st.Invalidation
	qs := e.QueueStats()
	c.queue.Submitted += qs.Submitted
	c.queue.Deduped += qs.Deduped
	c.queue.Errors += qs.Errors
	ps := e.ProfileStats()
	c.profile.Promotions += ps.Promotions
	c.profile.OSRTransfers += ps.OSRTransfers
	c.profile.OSRDeopts += ps.OSRDeopts
}

// speedupVsInterp is the geomean over compiled rows of the median, over
// rounds, of the same program's interp call time divided by the row's
// call time in the same round (0 when the workload has no interp arm).
// The two calls are neighbours in time, so machine noise cancels in
// each ratio: over ten runs this moved 0.5 % where the ratio of the two
// rows' p10 moved 2 % (CALIBRATION.md). Below 1 means overhead added
// around library calls made compiled code slower than the interpreter
// it replaced.
func speedupVsInterp(rec *recorder) float64 {
	var speedups []float64
	for _, rw := range rec.rows {
		if rw.group == string(armInterp) {
			continue
		}
		base := rec.rows[rw.name[:strings.LastIndex(rw.name, "/")+1]+string(armInterp)]
		if base == nil {
			continue
		}
		// Every row is called once per round, so equal indices are the
		// same round (a failed op breaks that, and fails the run).
		ratios := make([]float64, min(len(base.ms), len(rw.ms)))
		for i := range ratios {
			ratios[i] = base.ms[i] / rw.ms[i]
		}
		speedups = append(speedups, quantile(ratios, 0.5))
	}
	return geomean(speedups)
}
