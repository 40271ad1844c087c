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
	"repro/internal/core"
	"repro/internal/mat"
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
	// Tracer, when set, receives per-eval spans (parse, disambiguation,
	// type inference, codegen, queue wait, exec, tier-up) from
	// every engine the harness builds — the -trace=FILE flight-recorder
	// path. Nil keeps measurement engines untraced (paper mode).
	Tracer *telemetry.Tracer
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

// newEngine builds a fresh engine for one measurement: the arm (a
// paper-mode tier, platform and ablation) with the run's seed, and the
// run's tracer unless the arm brings its own.
func (c Config) newEngine(b *bench.Benchmark, arm core.Options) (*core.Engine, error) {
	opts := arm
	opts.Seed = c.seed()
	if opts.Tracer == nil {
		opts.Tracer = c.Tracer
	}
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
	return c.measure(b, core.Options{Tier: core.TierInterp}, true, nil)
}

// MeasureTier measures a compiled tier. JIT includes compile time
// (fresh repository per repetition, so the first — measured — call
// compiles); mcc, FALCON and speculative mode measure steady-state
// calls after warming, with speculative entries precompiled ahead of
// time.
func (c Config) MeasureTier(b *bench.Benchmark, opts core.Options) (time.Duration, error) {
	return c.measure(b, opts, opts.Tier == core.TierJIT, nil)
}

// measure is the harness's one timing loop: the best of reps calls of
// the benchmark, each on a fresh engine built for opts whose speculative
// entries, under TierSpec, are precompiled first. cold times the
// engine's first call, compile included; otherwise a warm-up call
// compiles first. each, when set, sees every engine after its timed
// call.
func (c Config) measure(b *bench.Benchmark, opts core.Options, cold bool, each func(*core.Engine)) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for r := 0; r < c.reps(); r++ {
		e, err := c.newEngine(b, opts)
		if err != nil {
			return 0, err
		}
		e.Precompile()
		var d time.Duration
		if !cold {
			// warm: compile outside the measured window
			_, err = runOnce(e, b, b.Args(c.Size))
		}
		if err == nil {
			d, err = runOnce(e, b, b.Args(c.Size))
		}
		if err == nil && each != nil {
			each(e)
		}
		e.Close()
		if err != nil {
			return 0, err
		}
		best = min(best, d)
	}
	return best, nil
}

// Speedup is one benchmark's speedup set for a figure.
type Speedup struct {
	Bench   string
	Interp  time.Duration
	Speedup map[core.Tier]float64
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
			Speedup: map[core.Tier]float64{},
		}
		for _, tier := range figureTiers {
			d, err := c.MeasureTier(b, core.Options{Tier: tier, Platform: platform})
			if err != nil {
				return nil, err
			}
			s.Speedup[tier] = float64(ti) / float64(d)
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
