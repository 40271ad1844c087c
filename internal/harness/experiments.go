package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// Table1 prints the benchmark inventory with measured interpreter
// runtimes next to the paper's published ones.
func (c Config) Table1() error {
	w := c.out()
	fmt.Fprintln(w, "Table 1: MaJIC benchmarks")
	fmt.Fprintln(w, strings.Repeat("=", 112))
	fmt.Fprintf(w, "%-10s %-14s %-46s %-14s %5s %12s %10s\n",
		"benchmark", "source", "short description", "problem size", "lines",
		"runtime", "paper (s)")
	fmt.Fprintln(w, strings.Repeat("-", 112))
	for _, b := range c.list() {
		ti, err := c.MeasureInterp(b)
		if err != nil {
			return err
		}
		size := b.PaperSize
		if c.Size != bench.Paper {
			size += fmt.Sprintf(" (%s)", c.Size)
		}
		fmt.Fprintf(w, "%-10s %-14s %-46s %-14s %5d %12s %10.2f\n",
			b.Name, b.Origin, b.Desc, size, b.PaperLines,
			ti.Round(time.Microsecond), b.PaperRuntime)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "runtime: this reproduction's interpreter baseline at the selected size preset;")
	fmt.Fprintln(w, "paper:   MATLAB 6 on the 400MHz UltraSPARC (Table 1 of the paper).")
	fmt.Fprintln(w)
	return nil
}

// Fig4 reproduces Figure 4: speedups on the SPARC platform profile.
func (c Config) Fig4() error {
	rows, err := c.SpeedupChart(core.PlatformSPARC)
	if err != nil {
		return err
	}
	PrintSpeedups(c.out(), "Figure 4: Performance on the SPARC platform (speedup vs interpreter)", rows)
	return nil
}

// Fig5 reproduces Figure 5: speedups on the MIPS platform profile
// (stronger native backend, immature JIT code generator).
func (c Config) Fig5() error {
	rows, err := c.SpeedupChart(core.PlatformMIPS)
	if err != nil {
		return err
	}
	PrintSpeedups(c.out(), "Figure 5: Performance on the MIPS platform (speedup vs interpreter)", rows)
	return nil
}

// PhaseBreakdown is one benchmark's Figure 6 row: the self time of each
// phase in one JIT call, and the call's wall time, which the phases sum
// to no more than.
type PhaseBreakdown struct {
	Bench                            string
	Disambig, TypeInf, Codegen, Exec time.Duration
	Wall                             time.Duration
}

// Fig6 reproduces Figure 6: the composition of JIT execution —
// disambiguation, type inference, code generation and execution as
// fractions of total runtime (fresh repository, so the JIT compiles
// during the measured invocation).
func (c Config) Fig6() error {
	w := c.out()
	fmt.Fprintln(w, "Figure 6: The composition of JIT execution (normalized)")
	fmt.Fprintln(w, strings.Repeat("=", 76))
	fmt.Fprintf(w, "%-10s %9s %9s %9s %9s %12s\n", "benchmark", "disamb", "typeinf", "codegen", "exec", "total")
	for _, b := range c.list() {
		pb, err := c.MeasurePhases(b)
		if err != nil {
			return err
		}
		total := pb.Disambig + pb.TypeInf + pb.Codegen + pb.Exec
		pct := func(d time.Duration) float64 {
			if total == 0 {
				return 0
			}
			return 100 * float64(d) / float64(total)
		}
		fmt.Fprintf(w, "%-10s %8.2f%% %8.2f%% %8.2f%% %8.2f%% %12s\n",
			b.Name, pct(pb.Disambig), pct(pb.TypeInf), pct(pb.Codegen), pct(pb.Exec),
			total.Round(time.Microsecond))
	}
	fmt.Fprintln(w)
	return nil
}

// MeasurePhases runs one JIT invocation with an empty repository and
// reads its phases off the trace: each category's self time across the
// call (telemetry.Tracer.SelfTotals), so a compile nested in the call's
// execution counts once, as compile. The engine records into the run's
// tracer when -trace set one, otherwise into its own. A call during
// which the ring dropped spans is an error: its phases would undercount.
func (c Config) MeasurePhases(b *bench.Benchmark) (PhaseBreakdown, error) {
	tr := c.Tracer
	if tr == nil {
		tr = telemetry.NewTracer(0)
	}
	e, err := c.newEngine(b, core.Options{Tier: core.TierJIT, Tracer: tr})
	if err != nil {
		return PhaseBreakdown{}, err
	}
	defer e.Close()
	args := b.Args(c.Size)
	dropped, before := tr.Dropped(), tr.SelfTotals()
	wall, err := runOnce(e, b, args)
	if err != nil {
		return PhaseBreakdown{}, err
	}
	if tr.Dropped() != dropped {
		return PhaseBreakdown{}, fmt.Errorf("%s: the trace ring dropped spans during the call", b.Name)
	}
	after := tr.SelfTotals()
	self := func(cat string) time.Duration { return after[cat] - before[cat] }
	return PhaseBreakdown{
		Bench:    b.Name,
		Disambig: self(telemetry.CatDisambig),
		TypeInf:  self(telemetry.CatTypeInf),
		Codegen:  self(telemetry.CatCodegen),
		Exec:     self(telemetry.CatExec),
		Wall:     wall,
	}, nil
}

// AblationRow is one benchmark's Figure 7 row: performance with an
// optimization disabled, relative to the fully optimized JIT.
type AblationRow struct {
	Bench                           string
	NoRanges, NoMinShapes, SpillAll float64 // fraction of full-JIT performance
}

// Fig7 reproduces Figure 7: disabling JIT optimizations. Bars are
// "performance relative to fully optimized JIT" — time(full)/time(ablated).
func (c Config) Fig7() error {
	w := c.out()
	fmt.Fprintln(w, "Figure 7: Disabling JIT optimizations (performance relative to full JIT)")
	fmt.Fprintln(w, strings.Repeat("=", 72))
	fmt.Fprintf(w, "%-10s %12s %14s %12s\n", "benchmark", "no ranges", "no min.shapes", "no regalloc")
	rows, err := c.Ablations()
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %11.1f%% %13.1f%% %11.1f%%\n",
			r.Bench, 100*r.NoRanges, 100*r.NoMinShapes, 100*r.SpillAll)
	}
	fmt.Fprintln(w)
	return nil
}

// Ablations measures the Figure 7 ablations. Steady-state
// (post-compile) runtimes isolate code quality from compile time: the
// falcon tier compiles at the exact signature, outside the timed call.
func (c Config) Ablations() ([]AblationRow, error) {
	var out []AblationRow
	for _, b := range c.list() {
		var t [4]time.Duration // full, then one per bar
		for i, a := range []core.Ablation{core.AblateNone, core.AblateRanges, core.AblateMinShapes, core.AblateRegalloc} {
			var err error
			if t[i], err = c.MeasureTier(b, core.Options{Tier: core.TierFalcon, Ablation: a}); err != nil {
				return nil, err
			}
		}
		out = append(out, AblationRow{
			Bench:       b.Name,
			NoRanges:    float64(t[0]) / float64(t[1]),
			NoMinShapes: float64(t[0]) / float64(t[2]),
			SpillAll:    float64(t[0]) / float64(t[3]),
		})
	}
	return out, nil
}

// Table2Row compares speedups from speculative versus JIT type
// annotations fed to the same (optimizing) code generator, compile
// time excluded — the paper's Table 2.
type Table2Row struct {
	Bench    string
	SpecOK   bool // speculative entry was used (signature matched)
	SpecSpd  float64
	ExactSpd float64
}

// Table2 reproduces Table 2.
func (c Config) Table2() error {
	w := c.out()
	rows, err := c.SpecVsJIT()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 2: JIT vs. speculative type inference (same code generator,")
	fmt.Fprintln(w, "         compile time excluded; speedup vs interpreter)")
	fmt.Fprintln(w, strings.Repeat("=", 60))
	fmt.Fprintf(w, "%-10s %10s %10s %s\n", "benchmark", "spec.", "JIT", "")
	for _, r := range rows {
		note := ""
		if !r.SpecOK {
			note = "(speculation missed; JIT recompiled)"
		}
		fmt.Fprintf(w, "%-10s %9.2fx %9.2fx %s\n", r.Bench, r.SpecSpd, r.ExactSpd, note)
	}
	fmt.Fprintln(w)
	return nil
}

// SpecVsJIT measures Table 2: the "JIT" column uses exact runtime
// signatures with the optimizing backend (the FALCON-style pipeline);
// the "spec." column uses the speculator's guessed signatures with the
// identical backend. Both exclude compile time.
func (c Config) SpecVsJIT() ([]Table2Row, error) {
	var out []Table2Row
	for _, b := range c.list() {
		ti, err := c.MeasureInterp(b)
		if err != nil {
			return nil, err
		}
		exact, err := c.MeasureTier(b, core.Options{Tier: core.TierFalcon})
		if err != nil {
			return nil, err
		}
		spec, specOK, err := c.measureSpecSteady(b)
		if err != nil {
			return nil, err
		}
		out = append(out, Table2Row{
			Bench:    b.Name,
			SpecOK:   specOK,
			SpecSpd:  float64(ti) / float64(spec),
			ExactSpd: float64(ti) / float64(exact),
		})
	}
	return out, nil
}

// measureSpecSteady measures speculative-mode steady state and reports
// whether the speculative entry actually served the call.
func (c Config) measureSpecSteady(b *bench.Benchmark) (time.Duration, bool, error) {
	specOK := false
	d, err := c.measure(b, core.Options{Tier: core.TierSpec}, false, func(e *core.Engine) {
		specOK = specOK || e.Repo().Stats().SpecHits > 0
	})
	return d, specOK, err
}
