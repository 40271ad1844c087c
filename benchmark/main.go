// Command benchmark is the repository's perf ledger: four workloads,
// noise-robust end-to-end metrics and a traced run with one number per
// layer. See README.md in this directory.
//
//	go run ./benchmark --workload steady-scalar --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "steady-scalar | steady-kernel | cold-session | serve-mixed")
	flag.Int64Var(&c.seed, "seed", 1, "seeds visiting order, redefinition variants and the request mix")
	flag.Float64Var(&c.seconds, "seconds", runSeconds, "how long the run measures")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file; 0 = end-to-end metrics")
	flag.StringVar(&c.outDir, "out", "benchmark/out", "directory for span files and scratch snapshots")
	record := flag.String("record", "", "append the run's result to this file, for -compare")
	doManifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	doGolden := flag.Bool("update-golden", false, "regenerate benchmark/golden.json from the interpreter and exit")
	doCalibrate := flag.Bool("calibrate", false, "run every workload once per -seeds entry and print the spread table")
	seeds := flag.String("seeds", "1,2,1", "seeds for -calibrate")
	doCompare := flag.Bool("compare", false, "compare two -record files: -compare base.json new.json")
	flag.Parse()

	// One process generates all load, with no more threads than cores.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var err error
	switch {
	case *doManifest:
		_, err = os.Stdout.Write(manifest())
	case *doGolden:
		err = updateGolden("benchmark")
	case *doCalibrate:
		err = calibrate(c, *seeds, *record)
	case *doCompare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two files: base.json new.json")
		} else {
			err = compare(flag.Arg(0), flag.Arg(1))
		}
	default:
		c.trace = *trace != 0
		err = runAndPrint(c, *record)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runAndPrint runs one workload and prints its result line last.
func runAndPrint(c config, record string) error {
	if c.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	res, err := run(c)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if record != "" {
		if err := appendRecord(record, c, res); err != nil {
			return err
		}
	}
	fmt.Println(string(line))
	return nil
}
