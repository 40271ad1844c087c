// Command majic-bench reproduces the paper's evaluation from the
// command line:
//
//	majic-bench -exp=table1 -size=medium
//	majic-bench -exp=fig4 -reps=5
//	majic-bench -exp=all -size=paper -bench=dirich,finedif
//	majic-bench -exp=concurrent -clients=8 -async -workers=4
//	majic-bench -exp=server -clients=8 -sessions=2 -json
//	majic-bench -exp=fig4 -fuse                # fused elementwise kernels
//	majic-bench -exp=fig4 -threads=4           # 4 dense-kernel worker threads
//	majic-bench -exp=table1 -cpuprofile=cpu.pb.gz -memprofile=mem.pb.gz
//
// Experiments: table1, fig4, fig5, fig6, fig7, table2, sec5, resp,
// sparse, concurrent, server, all. The sparse, concurrent, and server
// experiments are not part of "all": sparse runs the iterative-solver
// tier over CSR operators at sizes a dense representation cannot reach
// (with -json it writes BENCH_sparse.json); concurrent measures the
// asynchronous compilation
// service (first-call latency and steady-state throughput for M
// goroutines sharing one engine repository); server drives a live
// majicd daemon with N clients x M sessions replaying fig4 programs
// and compares shared- vs isolated-repository hit rates and latency
// quantiles. With -json, fig4 also writes BENCH_fig4.json and server
// writes BENCH_server.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// writeJSONFile writes a machine-readable result file next to the
// results_*.txt redirections.
func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func main() {
	exp := flag.String("exp", "all", "experiment: table1|fig4|fig5|fig6|fig7|table2|sec5|resp|sparse|concurrent|server|cluster|all")
	size := flag.String("size", "medium", "problem size preset: small|medium|paper")
	reps := flag.Int("reps", 3, "best-of repetitions (paper used 10)")
	benches := flag.String("bench", "", "comma-separated benchmark subset (default all)")
	seed := flag.Uint64("seed", 0, "RNG seed (0 = default)")
	clients := flag.Int("clients", 8, "concurrent experiment: client goroutines sharing one engine")
	engineOptions := core.EngineFlags(flag.CommandLine)
	calls := flag.Int("calls", 20, "concurrent experiment: steady-state calls per client; server experiment: replay calls per session")
	sessions := flag.Int("sessions", 2, "server/cluster experiments: sessions per client")
	nodes := flag.Int("nodes", 3, "cluster experiment: fleet size (in-process majicd nodes behind a gateway)")
	addr := flag.String("addr", "", "server experiment: external majicd address (default: in-process daemons)")
	repoPath := flag.String("repo-path", "", "server experiment: persist the repository to this file and add warm-vs-cold restart arms")
	jsonOut := flag.Bool("json", false, "also write BENCH_fig4.json / BENCH_server.json for those experiments")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON file (per-eval spans from every harness engine) on exit")
	flag.Parse()

	// The results_*.txt files are stdout redirections, so the run
	// configuration goes in a header and the kernel-runtime counters in
	// a footer, keeping committed results self-describing.
	eo := engineOptions()
	fmt.Printf("majic-bench: kernel threads %d (GOMAXPROCS %d)\n\n", parallel.DefaultThreads(), runtime.GOMAXPROCS(0))
	defer func() {
		ps := mat.ReadPoolStats()
		fmt.Printf("\nkernel runtime: threads %d, pool workers started %d; buffer pool gets %d hits %d recycles %d\n",
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
		Size:          sz,
		Reps:          *reps,
		Out:           os.Stdout,
		Seed:          *seed,
		Fuse:          eo.FuseElemwise,
		Threads:       eo.Threads,
		Tiered:        eo.Tiered,
		TierThreshold: eo.TierThreshold,
		Tracer:        tracer,
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
		if *jsonOut {
			run("fig4", func() error {
				rows, err := cfg.SpeedupChart(core.PlatformSPARC)
				if err != nil {
					return err
				}
				harness.PrintSpeedups(os.Stdout, "Figure 4: Performance on the SPARC platform (speedup vs interpreter)", rows)
				return writeJSONFile("BENCH_fig4.json", map[string]any{
					"size": sz.String(), "reps": cfg.Reps, "rows": harness.SpeedupsJSON(rows),
				})
			})
		} else {
			run("fig4", cfg.Fig4)
		}
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
		scfg := bench.SparseConfig{
			Size:    sz,
			Reps:    *reps,
			Out:     os.Stdout,
			Threads: eo.Threads,
		}
		run("sparse", func() error {
			rep, err := scfg.Report()
			if err != nil {
				return err
			}
			if *jsonOut {
				return writeJSONFile("BENCH_sparse.json", rep)
			}
			return nil
		})
	case "concurrent":
		ccfg := bench.ConcurrentConfig{
			Size:           sz,
			Clients:        *clients,
			Async:          eo.AsyncCompile,
			Workers:        eo.CompileWorkers,
			CallsPerClient: *calls,
			Benchmarks:     cfg.Benchmarks,
			Out:            os.Stdout,
			Fuse:           eo.FuseElemwise,
			Threads:        eo.Threads,
		}
		run("concurrent", ccfg.Report)
	case "cluster":
		kcfg := cluster.BenchConfig{
			Size:              sz,
			Nodes:             *nodes,
			Clients:           *clients,
			SessionsPerClient: *sessions,
			CallsPerSession:   *calls,
			Benchmarks:        cfg.Benchmarks,
			Out:               os.Stdout,
			Async:             eo.AsyncCompile,
			Workers:           eo.CompileWorkers,
			Threads:           eo.Threads,
		}
		run("cluster", func() error {
			rep, err := kcfg.Report()
			if err != nil {
				return err
			}
			if *jsonOut {
				return writeJSONFile("BENCH_cluster.json", rep)
			}
			return nil
		})
	case "server":
		lcfg := server.LoadConfig{
			Size:              sz,
			Clients:           *clients,
			SessionsPerClient: *sessions,
			CallsPerSession:   *calls,
			Benchmarks:        cfg.Benchmarks,
			Addr:              *addr,
			RepoPath:          *repoPath,
			Out:               os.Stdout,
			Async:             eo.AsyncCompile,
			Workers:           eo.CompileWorkers,
			Fuse:              eo.FuseElemwise,
			Threads:           eo.Threads,
			Tiered:            eo.Tiered,
			TierThreshold:     eo.TierThreshold,
		}
		run("server", func() error {
			rep, err := lcfg.Report()
			if err != nil {
				return err
			}
			if *jsonOut {
				return writeJSONFile("BENCH_server.json", rep)
			}
			return nil
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
