// Command majic-bench reproduces the paper's evaluation from the
// command line:
//
//	majic-bench -exp=table1 -size=medium
//	majic-bench -exp=fig4 -reps=5
//	majic-bench -exp=all -size=paper -bench=dirich,finedif
//	majic-bench -exp=table1 -cpuprofile=cpu.pb.gz -memprofile=mem.pb.gz
//
// Experiments: table1, fig4, fig5, fig6, fig7, table2, sec5, resp,
// sparse, all. The sparse experiment is not part of "all": it runs the
// iterative-solver tier over CSR operators at sizes a dense
// representation cannot reach. Every engine the harness builds is a
// paper-mode engine of the tier its column names; the production
// configuration is measured by the ledger (go run ./benchmark).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1|fig4|fig5|fig6|fig7|table2|sec5|resp|sparse|all")
	size := flag.String("size", "medium", "problem size preset: small|medium|paper")
	reps := flag.Int("reps", 3, "best-of repetitions (paper used 10)")
	benches := flag.String("bench", "", "comma-separated benchmark subset (default all)")
	seed := flag.Uint64("seed", 0, "RNG seed (0 = default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON file (per-eval spans from every harness engine) on exit")
	flag.Parse()

	// The results_*.txt files are stdout redirections, so the run
	// configuration goes in a header and the kernel-runtime counters in
	// a footer, keeping committed results self-describing.
	fmt.Printf("majic-bench: kernel threads %d (GOMAXPROCS %d)\n\n", parallel.DefaultThreads(), runtime.GOMAXPROCS(0))
	defer func() {
		ps := mat.ReadPoolStats()
		fmt.Printf("\nkernel runtime: threads %d, pool workers started %d; result buffers requested %d, built in a donor %d, offered a donor %d\n",
			parallel.DefaultThreads(), parallel.Workers(), ps.Gets, ps.Hits, ps.Recycles)
	}()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date allocation data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	sz, err := bench.ParseSize(*size)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var tracer *telemetry.Tracer
	if *traceFile != "" {
		tracer = telemetry.NewTracer(0)
		defer func() {
			if err := tracer.WriteFile(*traceFile); err != nil {
				fmt.Fprintf(os.Stderr, "majic-bench: -trace: %v\n", err)
			}
		}()
	}
	cfg := harness.Config{
		Size:   sz,
		Reps:   *reps,
		Out:    os.Stdout,
		Seed:   *seed,
		Tracer: tracer,
	}
	if *benches != "" {
		for _, name := range strings.Split(*benches, ",") {
			name = strings.TrimSpace(name)
			if bench.ByName(name) == nil {
				fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", name)
				os.Exit(2)
			}
			cfg.Benchmarks = append(cfg.Benchmarks, name)
		}
	}

	run := func(name string, f func() error) {
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}
	switch *exp {
	case "table1":
		run("table1", cfg.Table1)
	case "fig4":
		run("fig4", cfg.Fig4)
	case "fig5":
		run("fig5", cfg.Fig5)
	case "fig6":
		run("fig6", cfg.Fig6)
	case "fig7":
		run("fig7", cfg.Fig7)
	case "table2":
		run("table2", cfg.Table2)
	case "sec5":
		run("sec5", cfg.Sec5)
	case "resp":
		run("resp", cfg.Responsiveness)
	case "sparse":
		run("sparse", func() error {
			_, err := bench.SparseConfig{Size: sz, Reps: *reps, Out: os.Stdout}.Report()
			return err
		})
	case "all":
		run("table1", cfg.Table1)
		run("fig4", cfg.Fig4)
		run("fig5", cfg.Fig5)
		run("fig6", cfg.Fig6)
		run("fig7", cfg.Fig7)
		run("table2", cfg.Table2)
		run("sec5", cfg.Sec5)
		run("resp", cfg.Responsiveness)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
