// Package harness reproduces the paper's evaluation (§3): Table 1's
// benchmark inventory, the SPARC and MIPS speedup charts (Figures 4
// and 5), the JIT runtime decomposition (Figure 6), the
// disabled-optimization ablations (Figure 7), and the JIT-versus-
// speculative type-annotation comparison (Table 2). Timing follows the
// paper's methodology: best of N runs on a quiet system; JIT runtimes
// include compile time; speculative and batch (mcc/FALCON) runtimes do
// not.
package harness

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/compilequeue"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/profile"
	"repro/internal/repo"
	"repro/internal/telemetry"
)

// Config controls a harness run.
type Config struct {
	Size bench.Size
	Reps int // best-of repetitions (paper: best of 10)
	Out  io.Writer
	// Benchmarks filters by name; empty = all.
	Benchmarks []string
	Seed       uint64
	// Fuse enables elementwise fusion on every engine the harness
	// builds — the measurement mode for the fused-kernel experiment. Off by default: paper-mode numbers use
	// the one-library-call-per-operator execution model.
	Fuse bool
	// Threads sets the dense-kernel worker count on every engine the
	// harness builds (0 = process default). Results are byte-identical
	// across thread counts; only timings change.
	Threads int
	// Tiered adds the profile-guided tiering arm to the speedup charts:
	// each benchmark also runs under -tiered (interpreter first call,
	// background promotion to optimized code, OSR for hot loops), and
	// the rows carry the tier-up counters. Off by default so paper-mode
	// figures are untouched.
	Tiered bool
	// TierThreshold overrides the promotion threshold for the tiered
	// arm (0 = engine default).
	TierThreshold int
	// Tracer, when set, receives per-eval spans (parse, disambiguation,
	// type inference, codegen, queue wait, exec, tier-up, OSR) from
	// every engine the harness builds — the -trace=FILE flight-recorder
	// path. Nil keeps measurement engines untraced (paper mode).
	Tracer *telemetry.Tracer
	// Journal, when set, receives tiering events (promotions,
	// evictions, cause-attributed deopts) from every engine.
	Journal *telemetry.Journal
}

func (c Config) reps() int {
	if c.Reps <= 0 {
		return 3
	}
	return c.Reps
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

func (c Config) seed() uint64 {
	if c.Seed == 0 {
		return 20020617 // PLDI'02 started June 17
	}
	return c.Seed
}

func (c Config) list() []*bench.Benchmark {
	if len(c.Benchmarks) == 0 {
		return bench.All()
	}
	var out []*bench.Benchmark
	for _, name := range c.Benchmarks {
		if b := bench.ByName(name); b != nil {
			out = append(out, b)
		}
	}
	return out
}

// newEngine builds a fresh engine for one measurement.
func (c Config) newEngine(b *bench.Benchmark, opts core.Options) (*core.Engine, error) {
	opts.Seed = c.seed()
	if c.Fuse {
		opts.FuseElemwise = true
	}
	if c.Threads > 0 {
		opts.Threads = c.Threads
	}
	opts.Tracer = c.Tracer
	opts.Journal = c.Journal
	e := core.New(opts)
	if err := e.Define(b.Source(c.Size)); err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	return e, nil
}

// runOnce calls the benchmark once and returns the elapsed time.
func runOnce(e *core.Engine, b *bench.Benchmark, args []*mat.Value) (time.Duration, error) {
	t0 := time.Now()
	_, err := e.Call(b.Fn, args, 1)
	return time.Since(t0), err
}

// MeasureInterp measures the interpreter baseline ti (best of reps).
func (c Config) MeasureInterp(b *bench.Benchmark) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for r := 0; r < c.reps(); r++ {
		e, err := c.newEngine(b, core.Options{Tier: core.TierInterp})
		if err != nil {
			return 0, err
		}
		d, err := runOnce(e, b, b.Args(c.Size))
		if err != nil {
			return 0, err
		}
		if d < best {
			best = d
		}
	}
	return best, nil
}

// MeasureTier measures a compiled tier. JIT includes compile time
// (fresh repository per repetition, so the first — measured — call
// compiles); mcc, FALCON and speculative mode measure steady-state
// calls after warming, with speculative entries precompiled ahead of
// time.
func (c Config) MeasureTier(b *bench.Benchmark, opts core.Options) (time.Duration, error) {
	opts.Seed = c.seed()
	best := time.Duration(math.MaxInt64)
	includeCompile := opts.Tier == core.TierJIT
	for r := 0; r < c.reps(); r++ {
		e, err := c.newEngine(b, opts)
		if err != nil {
			return 0, err
		}
		e.Precompile()
		if !includeCompile {
			// warm: compile outside the measured window
			if _, err := runOnce(e, b, b.Args(c.Size)); err != nil {
				return 0, err
			}
		}
		d, err := runOnce(e, b, b.Args(c.Size))
		if err != nil {
			return 0, err
		}
		if d < best {
			best = d
		}
	}
	return best, nil
}

// TierStats bundles the per-tier compile and upgrade counters for one
// tiered measurement: repository traffic (inserts, replaces, hits),
// background-queue traffic, and the profile/OSR counters.
type TierStats struct {
	Repo    repo.Stats         `json:"repo"`
	Queue   compilequeue.Stats `json:"queue"`
	Profile profile.Stats      `json:"profile"`
}

// TieredResult is the tiered arm of one speedup row: the first call
// (which must stay interpreter-fast — tiering never pays compile
// latency up front) and a steady-state call after background promotion
// landed.
type TieredResult struct {
	First   time.Duration
	Steady  time.Duration
	Speedup float64 // interp baseline / steady
	Stats   TierStats
}

// MeasureTiered measures the tiering pipeline end-to-end on one
// benchmark: a fresh engine per repetition, the unwarmed first call
// timed as-is, then enough calls to cross the promotion threshold, a
// queue drain, and a steady-state call against the promoted entry.
// Times are best-of-reps; the counters come from the last repetition.
func (c Config) MeasureTiered(b *bench.Benchmark, platform core.Platform) (TieredResult, error) {
	res := TieredResult{First: time.Duration(math.MaxInt64), Steady: time.Duration(math.MaxInt64)}
	for r := 0; r < c.reps(); r++ {
		e, err := c.newEngine(b, core.Options{
			Tier: core.TierJIT, Platform: platform,
			Tiered: true, TierThreshold: c.TierThreshold,
		})
		if err != nil {
			return TieredResult{}, err
		}
		first, err := runOnce(e, b, b.Args(c.Size))
		if err != nil {
			e.Close()
			return TieredResult{}, err
		}
		// Cross the promotion threshold (the first call already counted),
		// let the background compiles land, then time the promoted path.
		threshold := c.TierThreshold
		if threshold <= 0 {
			threshold = core.DefaultTierThreshold
		}
		for i := 1; i < threshold; i++ {
			if _, err := runOnce(e, b, b.Args(c.Size)); err != nil {
				e.Close()
				return TieredResult{}, err
			}
		}
		e.Drain()
		steady, err := runOnce(e, b, b.Args(c.Size))
		if err != nil {
			e.Close()
			return TieredResult{}, err
		}
		if first < res.First {
			res.First = first
		}
		if steady < res.Steady {
			res.Steady = steady
		}
		if r == c.reps()-1 {
			res.Stats = TierStats{
				Repo:    e.Library().Repo().Stats(),
				Queue:   e.QueueStats(),
				Profile: e.ProfileStats(),
			}
		}
		e.Close()
	}
	return res, nil
}

// Speedup is one benchmark's speedup set for a figure.
type Speedup struct {
	Bench   string
	Interp  time.Duration
	Times   map[core.Tier]time.Duration
	Speedup map[core.Tier]float64
	// Tiered is the profile-guided tiering arm (nil unless Config.Tiered).
	Tiered *TieredResult
}

var figureTiers = []core.Tier{core.TierMCC, core.TierFalcon, core.TierJIT, core.TierSpec}

// SpeedupChart measures all four tiers against the interpreter on one
// platform profile (Figure 4 = SPARC, Figure 5 = MIPS).
func (c Config) SpeedupChart(platform core.Platform) ([]Speedup, error) {
	var out []Speedup
	for _, b := range c.list() {
		ti, err := c.MeasureInterp(b)
		if err != nil {
			return nil, err
		}
		s := Speedup{
			Bench:   b.Name,
			Interp:  ti,
			Times:   map[core.Tier]time.Duration{},
			Speedup: map[core.Tier]float64{},
		}
		for _, tier := range figureTiers {
			d, err := c.MeasureTier(b, core.Options{Tier: tier, Platform: platform})
			if err != nil {
				return nil, err
			}
			s.Times[tier] = d
			s.Speedup[tier] = float64(ti) / float64(d)
		}
		if c.Tiered {
			tr, err := c.MeasureTiered(b, platform)
			if err != nil {
				return nil, err
			}
			tr.Speedup = float64(ti) / float64(tr.Steady)
			s.Tiered = &tr
		}
		out = append(out, s)
	}
	return out, nil
}

// PrintSpeedups renders a figure as a table plus a log-scale ASCII bar
// chart, mirroring the paper's log-scale plots.
func PrintSpeedups(w io.Writer, title string, rows []Speedup) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-10s %12s %9s %9s %9s %9s\n", "benchmark", "interp", "mcc", "falcon", "jit", "spec")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12s %8.2fx %8.2fx %8.2fx %8.2fx\n",
			r.Bench, r.Interp.Round(time.Microsecond),
			r.Speedup[core.TierMCC], r.Speedup[core.TierFalcon],
			r.Speedup[core.TierJIT], r.Speedup[core.TierSpec])
	}
	if len(rows) > 0 && rows[0].Tiered != nil {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "tiered arm (profile-guided recompilation; first call unwarmed, steady after promotion):")
		fmt.Fprintf(w, "%-10s %12s %12s %9s %7s %7s %7s %7s\n",
			"benchmark", "first", "steady", "speedup", "promo", "osr", "deopt", "repl")
		for _, r := range rows {
			tr := r.Tiered
			if tr == nil {
				continue
			}
			fmt.Fprintf(w, "%-10s %12s %12s %8.2fx %7d %7d %7d %7d\n",
				r.Bench, tr.First.Round(time.Microsecond), tr.Steady.Round(time.Microsecond),
				tr.Speedup, tr.Stats.Profile.Promotions, tr.Stats.Profile.OSRTransfers,
				tr.Stats.Profile.OSRDeopts, tr.Stats.Repo.Replaces)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "log-scale speedup (each column 0.1x → 1000x):")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s\n", r.Bench)
		for _, tier := range figureTiers {
			fmt.Fprintf(w, "  %-7s |%s %.2fx\n", tier, logBar(r.Speedup[tier]), r.Speedup[tier])
		}
	}
	fmt.Fprintln(w)
}

// SpeedupRowJSON is the machine-readable shape of one Speedup row
// (the BENCH_fig4.json payload rows).
type SpeedupRowJSON struct {
	Bench    string             `json:"bench"`
	InterpUS int64              `json:"interp_us"`
	TimesUS  map[string]int64   `json:"times_us"`
	Speedup  map[string]float64 `json:"speedup"`
	Tiered   *TieredRowJSON     `json:"tiered,omitempty"`
}

// TieredRowJSON is the tiered arm of one JSON row: latencies, the
// steady-state speedup, and the per-tier compile/upgrade counters.
type TieredRowJSON struct {
	FirstUS  int64     `json:"first_us"`
	SteadyUS int64     `json:"steady_us"`
	Speedup  float64   `json:"speedup"`
	Stats    TierStats `json:"stats"`
}

// SpeedupsJSON converts figure rows for JSON output, keying tiers by
// their printed names.
func SpeedupsJSON(rows []Speedup) []SpeedupRowJSON {
	out := make([]SpeedupRowJSON, 0, len(rows))
	for _, r := range rows {
		j := SpeedupRowJSON{
			Bench:    r.Bench,
			InterpUS: r.Interp.Microseconds(),
			TimesUS:  map[string]int64{},
			Speedup:  map[string]float64{},
		}
		for tier, d := range r.Times {
			j.TimesUS[tier.String()] = d.Microseconds()
		}
		for tier, s := range r.Speedup {
			j.Speedup[tier.String()] = s
		}
		if r.Tiered != nil {
			j.Tiered = &TieredRowJSON{
				FirstUS:  r.Tiered.First.Microseconds(),
				SteadyUS: r.Tiered.Steady.Microseconds(),
				Speedup:  r.Tiered.Speedup,
				Stats:    r.Tiered.Stats,
			}
		}
		out = append(out, j)
	}
	return out
}

// logBar renders a log10 bar between 0.1x and 1000x.
func logBar(s float64) string {
	if s <= 0 {
		return ""
	}
	pos := (math.Log10(s) + 1) / 4 * 48 // [0.1, 1000] → [0, 48]
	n := int(math.Round(pos))
	if n < 0 {
		n = 0
	}
	if n > 48 {
		n = 48
	}
	return strings.Repeat("#", n)
}
