package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/compilequeue"
	"repro/internal/mat"
	"repro/internal/profile"
	"repro/internal/repo"
	"repro/internal/telemetry"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// rounds > 0 replaces the time budget with a fixed number of rounds.
	// Only the smoke test sets it.
	rounds int
	// quick shrinks sizes and probes and sets up once, so the smoke test
	// runs in seconds. Only the smoke test sets it.
	quick  bool
	outDir string
}

// setUps is how often an untraced run repeats set-up; setup_s and
// setup_mallocs are the medians.
const setUps = 5

func (c config) size(full bench.Size) bench.Size {
	if c.quick {
		return bench.Small
	}
	return full
}

// limit says when a measured stretch ends: after a fixed number of
// rounds, or when the next round would overrun the time budget.
type limit struct {
	start  time.Time
	budget time.Duration
	rounds int
	done   int
}

func newLimit(c config, share float64) *limit {
	return &limit{
		start:  time.Now(),
		budget: time.Duration(share * c.seconds * float64(time.Second)),
		rounds: c.rounds,
	}
}

// more reports whether another round fits, and counts it if so. Rounds
// are whole so every row has the same number of samples.
func (l *limit) more() bool {
	if l.rounds > 0 {
		if l.done >= l.rounds {
			return false
		}
	} else if l.done > 0 {
		elapsed := time.Since(l.start)
		if elapsed+elapsed/time.Duration(2*l.done) > l.budget {
			return false
		}
	}
	l.done++
	return true
}

// moreOps is the form for clients that have no rounds: whether a client
// that has sent n ops sends another.
func (l *limit) moreOps(n int) bool {
	if l.rounds > 0 {
		return n < l.rounds*opsPerRound
	}
	return time.Since(l.start) < l.budget
}

func (l *limit) since() time.Duration { return time.Since(l.start) }

// layerCounters are the cumulative counters the layers already keep;
// two readings around a stretch give its per-op counts.
type layerCounters struct {
	repo    repo.Stats
	queue   compilequeue.Stats
	profile profile.Stats
	pool    mat.PoolStats
}

// workload is what the four workloads implement.
type workload interface {
	// setUp builds everything a timed op needs — engines, compiled code,
	// daemon, sessions, references. Its duration is setup_s. tr is nil
	// except for the traced stretch.
	setUp(tr *telemetry.Tracer) error
	// measure runs timed ops until lim ends.
	measure(lim *limit, rng *rand.Rand) *recorder
	// counters reads the layers' cumulative counters.
	counters() layerCounters
	// tracer is where the stretch's spans went (the daemon owns its own).
	tracer() *telemetry.Tracer
	tearDown()
}

func newWorkload(c config) (workload, error) {
	switch c.workload {
	case "steady-scalar":
		return newSteady(c, scalarSet, []arm{armJIT, armSpec})
	case "steady-kernel":
		return newSteady(c, kernelSet, []arm{armInterp, armJIT, armSpec, armProd})
	case "cold-session":
		return newCold(c)
	case "serve-mixed":
		return newServe(c), nil
	}
	return nil, fmt.Errorf("unknown workload %q", c.workload)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// stealPct goes to the -record file, not to the result line.
	stealPct float64
}

// run executes one workload once: the untraced run gives the end-to-end
// metrics, the traced run the per-layer ones.
func run(c config) (*result, error) {
	w, err := newWorkload(c)
	if err != nil {
		return nil, err
	}
	if c.trace {
		return runTraced(c, w)
	}
	return runEndToEnd(c, w)
}

func runEndToEnd(c config, w workload) (*result, error) {
	cpu0 := readCPU()
	// Set up several times and report the median, so one slow set-up
	// (page faults of a cold process, a stolen core) is not the number.
	n := setUps
	if c.quick {
		n = 1
	}
	var seconds, mallocs []float64
	fmt.Printf("%-8s %10s %10s %12s\n", "set-up", "wall_s", "stolen_s", "mallocs")
	for i := 0; i < n; i++ {
		if i > 0 {
			w.tearDown()
		}
		runtime.GC()
		m0, s0, t0 := readMem(), readCPU(), time.Now()
		if err := w.setUp(nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		wall := time.Since(t0).Seconds()
		stolen := wall * stolenShare(s0, readCPU())
		seconds = append(seconds, wall-stolen)
		mallocs = append(mallocs, float64(readMem().mallocs-m0.mallocs))
		fmt.Printf("%-8d %10.4f %10.4f %12.0f\n", i+1, wall, stolen, mallocs[i])
	}
	defer w.tearDown()

	runtime.GC()
	m0 := readMem()
	rec := w.measure(newLimit(c, 1), rand.New(rand.NewSource(c.seed)))
	m1 := readMem()
	live := liveHeapMiB(rec) // before tearDown: what the system holds on to while it serves

	printRows(rec)
	ops := float64(rec.attempted)
	vals := map[string]float64{
		"op_vs_ref":       rec.opVsRef(),
		"alloc_kb_per_op": float64(m1.bytes-m0.bytes) / 1024 / ops,
		"mallocs_per_op":  float64(m1.mallocs-m0.mallocs) / ops,
		"live_heap_mb":    live,
		"setup_s":         quantile(seconds, 0.5),
		"setup_mallocs":   quantile(mallocs, 0.5),
	}
	return finish(rec, endToEnd, vals, stealPct(cpu0, readCPU()))
}

func runTraced(c config, w workload) (*result, error) {
	cpu0 := readCPU()

	// Untraced stretch first: the difference between the two stretches
	// of one process is the tracing overhead.
	if err := w.setUp(nil); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	plain := w.measure(newLimit(c, 0.4), rand.New(rand.NewSource(c.seed)))
	w.tearDown()

	tr := telemetry.NewTracer(1 << 20)
	if err := w.setUp(tr); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	c0 := w.counters()
	rec := w.measure(newLimit(c, 0.4), rand.New(rand.NewSource(c.seed)))
	c1 := w.counters()
	events := w.tracer().Events()
	dropped := w.tracer().Dropped()
	w.tearDown()

	printRows(rec)
	if dropped > 0 {
		fmt.Printf("warning: the span ring dropped %d spans; shares are of the kept window\n", dropped)
	}
	vals := make(map[string]float64)
	spans := nestSpans(events)
	if err := writeTrace(filepath.Join(c.outDir, "trace-"+c.workload+".json"), spans); err != nil {
		return nil, err
	}
	attributionMetrics(vals, spans, rec)
	counterMetrics(vals, c0, c1, rec)
	groupMetrics(vals, rec)
	// From the untraced stretch: the engines put spans around compiled
	// calls and none around interpreted ones.
	vals["interp.speedup_vs_interp"] = speedupVsInterp(plain)
	vals["telemetry.trace_overhead_pct"] = 0
	if base := plain.opVsRef(); base > 0 {
		vals["telemetry.trace_overhead_pct"] = 100 * (rec.opVsRef()/base - 1)
	}
	if sv, ok := w.(*serve); ok {
		// The workload brought its own daemon: the server rows are its.
		serverMetrics(vals, sv.last, rec)
		vals["persist.loaded_entries"] = float64(sv.loaded)
	}
	if err := probeLayers(c, vals); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	steal := stealPct(cpu0, readCPU())
	vals["env.steal_pct"] = steal
	vals["env.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	vals["env.peak_rss_mb"] = peakRSSMiB()

	rec.merge(plain) // both stretches count as attempted work
	return finish(rec, perLayer, vals, steal)
}

// stealLimit is the steal, in percent of machine time over a run, from
// which the run counts as throttled. The reference box runs at 0-10 %
// for long stretches and at 15-40 % for others. The timings hold up to
// about 25 %; from 30 % steady-kernel and cold-session read 8-20 %
// high, and at 45-60 % nothing holds in either direction
// (CALIBRATION.md, section 6). A throttled run is reported as such and
// -compare does not resolve timings from it.
const stealLimit = 25

// finish prints every metric by name and unit and builds the result.
func finish(rec *recorder, defs []metricDef, vals map[string]float64, steal float64) (*result, error) {
	metrics, err := pick(defs, vals)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	if rec.firstErr != "" {
		fmt.Fprintf(os.Stderr, "first failure: %s\n", rec.firstErr)
	}
	if rec.attempted == 0 {
		return nil, fmt.Errorf("no op was attempted")
	}
	fmt.Printf("steal over the run: %.1f %%\n", steal)
	if steal > stealLimit {
		fmt.Fprintf(os.Stderr, "warning: the hypervisor withheld %.0f %% of machine time (limit %d %%): this run was throttled and its timings are not to be trusted\n", steal, stealLimit)
	}
	return &result{
		Correct:   rec.failed == 0,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics:   metrics,
		stealPct:  steal,
	}, nil
}

// counterMetrics turns two counter readings into per-op counts.
func counterMetrics(vals map[string]float64, a, b layerCounters, rec *recorder) {
	ops := float64(rec.attempted)
	lookups := float64(b.repo.Lookups - a.repo.Lookups)
	vals["repo.lookups_per_op"] = lookups / ops
	vals["repo.hit_ratio"] = 0
	if lookups > 0 {
		vals["repo.hit_ratio"] = float64(b.repo.Hits-a.repo.Hits) / lookups
	}
	vals["repo.inserts_per_op"] = float64(b.repo.Inserts-a.repo.Inserts) / ops
	vals["repo.invalidations_per_op"] = float64(b.repo.Invalidation-a.repo.Invalidation) / ops
	vals["compilequeue.submitted_per_op"] = float64(b.queue.Submitted-a.queue.Submitted) / ops
	vals["compilequeue.deduped"] = float64(b.queue.Deduped - a.queue.Deduped)
	vals["compilequeue.errors"] = float64(b.queue.Errors - a.queue.Errors)
	// Promotions happen while set-up warms the engines, so the tiering
	// counters are read cumulatively, not as a delta over the stretch.
	vals["profile.promotions"] = float64(b.profile.Promotions)
	vals["profile.osr_transfers"] = float64(b.profile.OSRTransfers)
	vals["profile.osr_deopts"] = float64(b.profile.OSRDeopts)
	gets := float64(b.pool.Gets - a.pool.Gets)
	vals["mat.pool_gets_per_op"] = gets / ops
	vals["mat.pool_hit_ratio"] = 0
	if gets > 0 {
		vals["mat.pool_hit_ratio"] = float64(b.pool.Hits-a.pool.Hits) / gets
	}
	vals["mat.recycles_per_op"] = float64(b.pool.Recycles-a.pool.Recycles) / ops
}

// groupMetrics reports the sub-geomeans of the row groups: which arm or
// request kind a change in op_vs_ref came from, in wall time.
func groupMetrics(vals map[string]float64, rec *recorder) {
	p10 := func(groups ...string) float64 { return rec.rowGeomean(0.10, inGroup(groups...)) }
	vals["vm.jit_call_ms"] = p10("jit")
	vals["vm.spec_call_ms"] = p10("spec")
	vals["vm.prod_call_ms"] = p10("prod")
	vals["interp.call_ms"] = p10("interp")
	vals["core.first_result_ms.jit"] = p10("first.jit")
	vals["core.first_result_ms.prod"] = p10("first.prod")
	vals["core.redefine_result_ms"] = p10("redefine.jit", "redefine.prod")
	vals["core.op_wall_ms"] = rec.rowGeomean(0.10, gatedRows)
	vals["core.ops_per_s"] = rec.meanRate()
}
