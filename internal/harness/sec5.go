package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
)

// Sec5Row is one benchmark's Section 5 what-if comparison: plain JIT,
// JIT with backend optimizations (compile time still counted), and the
// batch-compiled ceiling.
type Sec5Row struct {
	Bench                   string
	JIT, JITOpt, BatchLimit time.Duration
}

// Sec5 reproduces the paper's concluding experiment (§5): the authors
// hand-unrolled finedif's inner loop and applied common-subexpression
// elimination, obtaining code "almost 100% faster than the normal
// JIT-compiled finedif, and within 20% of the performance of the best
// (native compiler-generated) version". Here the same question is asked
// mechanically: compile with the backend passes (CSE, LICM, folding,
// DCE, loop unrolling) at call time, with compile time still included,
// and compare against the batch-compiled ceiling. A JIT that runs the
// backend passes compiles exactly what the batch tier compiles, so the
// jit+opts arm is the batch tier timed cold, like the JIT.
func (c Config) Sec5() error {
	w := c.out()
	rows, err := c.Sec5Rows()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Section 5 experiment: adding backend optimizations to the JIT")
	fmt.Fprintln(w, strings.Repeat("=", 78))
	fmt.Fprintf(w, "%-10s %12s %12s %12s %10s %10s\n",
		"benchmark", "jit", "jit+opts", "batch", "opt gain", "vs batch")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12s %12s %12s %9.0f%% %9.0f%%\n",
			r.Bench,
			r.JIT.Round(time.Microsecond), r.JITOpt.Round(time.Microsecond),
			r.BatchLimit.Round(time.Microsecond),
			100*(float64(r.JIT)/float64(r.JITOpt)-1),
			100*float64(r.JITOpt)/float64(r.BatchLimit))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "opt gain: speedup of jit+opts over plain jit (compile time included in both);")
	fmt.Fprintln(w, "vs batch: jit+opts runtime as a percentage of the batch-compiled runtime.")
	fmt.Fprintln(w)
	return nil
}

// Sec5Rows measures the Section 5 comparison for the Fortran-like
// benchmarks the paper names (finedif and dirich).
func (c Config) Sec5Rows() ([]Sec5Row, error) {
	names := c.Benchmarks
	if len(names) == 0 {
		names = []string{"finedif", "dirich"}
	}
	var out []Sec5Row
	for _, name := range names {
		b := bench.ByName(name)
		if b == nil {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		jit, err := c.MeasureTier(b, core.Options{Tier: core.TierJIT})
		if err != nil {
			return nil, err
		}
		jitOpt, err := c.measure(b, core.Options{Tier: core.TierFalcon}, true, nil)
		if err != nil {
			return nil, err
		}
		batch, err := c.MeasureTier(b, core.Options{Tier: core.TierFalcon})
		if err != nil {
			return nil, err
		}
		out = append(out, Sec5Row{Bench: name, JIT: jit, JITOpt: jitOpt, BatchLimit: batch})
	}
	return out, nil
}
