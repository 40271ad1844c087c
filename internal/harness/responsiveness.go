package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
)

// RespRow is one benchmark's responsiveness comparison: the latency of
// the *first* call under each strategy. This quantifies the abstract's
// headline claim — "the proper mixture of these two techniques can
// yield near-zero response time as well as performance gains previously
// achieved only by batch compilers": speculative mode hides the slow
// optimizing compilation entirely, the JIT keeps the visible pause
// small, and batch-style compilation stalls the first response.
type RespRow struct {
	Bench  string
	Interp time.Duration // no compilation at all
	JIT    time.Duration // fast compile + run
	Batch  time.Duration // optimizing compile + run (FALCON style, in line)
	Spec   time.Duration // precompiled ahead of time + run
}

// Responsiveness measures first-call latency per tier.
func (c Config) Responsiveness() error {
	w := c.out()
	fmt.Fprintln(w, "Responsiveness: latency of the first call (compile time visible to the user)")
	fmt.Fprintln(w, strings.Repeat("=", 78))
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s\n", "benchmark", "interp", "jit", "batch", "spec")
	for _, b := range c.list() {
		row, err := c.measureResponse(b)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %12s %12s %12s %12s\n", row.Bench,
			row.Interp.Round(time.Microsecond), row.JIT.Round(time.Microsecond),
			row.Batch.Round(time.Microsecond), row.Spec.Round(time.Microsecond))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "jit: compilation happens during the call; batch: the optimizing compiler runs")
	fmt.Fprintln(w, "during the call (what a batch system would feel like interactively); spec:")
	fmt.Fprintln(w, "the repository precompiled speculatively before the call (latency hidden).")
	fmt.Fprintln(w)
	return nil
}

func (c Config) measureResponse(b *bench.Benchmark) (RespRow, error) {
	row := RespRow{Bench: b.Name}
	firstCall := func(opts core.Options, precompile bool) (time.Duration, error) {
		best := time.Duration(1<<63 - 1)
		for r := 0; r < c.reps(); r++ {
			e, err := c.newEngine(b, opts)
			if err != nil {
				return 0, err
			}
			if precompile {
				e.Precompile()
			}
			d, err := runOnce(e, b, b.Args(c.Size))
			e.Close()
			if err != nil {
				return 0, err
			}
			if d < best {
				best = d
			}
		}
		return best, nil
	}
	var err error
	if row.Interp, err = firstCall(core.Options{Tier: core.TierInterp}, false); err != nil {
		return row, err
	}
	if row.JIT, err = firstCall(core.Options{Tier: core.TierJIT}, false); err != nil {
		return row, err
	}
	if row.Batch, err = firstCall(core.Options{Tier: core.TierFalcon}, false); err != nil {
		return row, err
	}
	if row.Spec, err = firstCall(core.Options{Tier: core.TierSpec}, true); err != nil {
		return row, err
	}
	return row, nil
}
