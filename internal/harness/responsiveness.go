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

// measureResponse times each strategy's first call on a fresh engine;
// the speculative one has precompiled (measure).
func (c Config) measureResponse(b *bench.Benchmark) (RespRow, error) {
	row := RespRow{Bench: b.Name}
	for _, arm := range []struct {
		tier core.Tier
		d    *time.Duration
	}{{core.TierInterp, &row.Interp}, {core.TierJIT, &row.JIT}, {core.TierFalcon, &row.Batch}, {core.TierSpec, &row.Spec}} {
		var err error
		if *arm.d, err = c.measure(b, core.Options{Tier: arm.tier}, true, nil); err != nil {
			return row, err
		}
	}
	return row, nil
}
