// Concurrent-clients benchmark: M goroutines firing paper workloads at
// one shared engine repository. This is the workload the async
// compilation service exists for — the ROADMAP's "heavy concurrent
// traffic" scenario — and it reports the two numbers that matter for
// it: first-call latency (how long a cold client stalls on the compile)
// and steady-state throughput (aggregate calls/sec once the repository
// is warm). With AsyncCompile, concurrent cold misses on one signature
// coalesce into a single-flight compile job; without it, the engine
// serializes compilation inline on the first caller.
package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/parallel"
)

// ConcurrentSet lists the Table 1 benchmarks used for the concurrent
// workload: deterministic, argument-taking programs with no globals and
// no output, so concurrent invocations are independent.
var ConcurrentSet = []string{"fibonacci", "adapt", "cgopt", "sor", "qmr"}

// ConcurrentConfig drives the concurrent-clients benchmark.
type ConcurrentConfig struct {
	Size    Size
	Clients int // M concurrent goroutines (default 8)
	// Async enables the background compilation service on the shared
	// engine; Workers bounds its pool (0 = GOMAXPROCS).
	Async   bool
	Workers int
	// CallsPerClient is the steady-state call count per client after
	// the timed first call (default 20).
	CallsPerClient int
	// Benchmarks selects a subset of ConcurrentSet (default: all).
	Benchmarks []string
	Out        io.Writer
	// Fuse enables elementwise fusion on the shared engine: concurrent
	// clients then run fused kernels, each building results in buffers
	// its own frame owns.
	Fuse bool
	// Threads sets the shared engine's dense-kernel worker count
	// (0 = process default): client goroutines then fan work out to the
	// internal/parallel pool from inside their calls, the nested-
	// parallelism stress case for the worker pool.
	Threads int
}

// ConcurrentRow is one benchmark's result.
type ConcurrentRow struct {
	Bench        string
	FirstCallMin time.Duration // best cold-start latency across clients
	FirstCallMax time.Duration // worst cold-start stall across clients
	Steady       time.Duration // wall time of the steady-state phase
	TotalCalls   int           // calls in the steady-state phase
	Throughput   float64       // steady-state calls/sec, all clients
	Inserts      int           // repository inserts (single-flight: 1 per signature)
	CompileJobs  int           // async compile jobs executed (0 in sync mode)
	Deduped      int           // async requests coalesced onto in-flight jobs
}

func (c ConcurrentConfig) defaults() ConcurrentConfig {
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.CallsPerClient <= 0 {
		c.CallsPerClient = 20
	}
	if len(c.Benchmarks) == 0 {
		c.Benchmarks = ConcurrentSet
	}
	return c
}

// Run executes the concurrent workload and returns one row per
// benchmark.
func (c ConcurrentConfig) Run() ([]ConcurrentRow, error) {
	c = c.defaults()
	rows := make([]ConcurrentRow, 0, len(c.Benchmarks))
	for _, name := range c.Benchmarks {
		b := ByName(name)
		if b == nil {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		row, err := c.runOne(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func (c ConcurrentConfig) runOne(b *Benchmark) (ConcurrentRow, error) {
	e := core.New(core.Options{
		Tier:           core.TierJIT,
		AsyncCompile:   c.Async,
		CompileWorkers: c.Workers,
		Seed:           1,
		FuseElemwise:   c.Fuse,
		Threads:        c.Threads,
	})
	defer e.Close()
	if err := e.Define(b.Source(c.Size)); err != nil {
		return ConcurrentRow{}, err
	}
	args := b.Args(c.Size)

	type clientResult struct {
		first time.Duration
		outs  []*mat.Value
		err   error
	}
	results := make([]clientResult, c.Clients)

	// Phase 1: cold start. Every client fires the same signature at an
	// empty repository simultaneously — the single-flight stress case.
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < c.Clients; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			t0 := time.Now()
			outs, err := e.Call(b.Fn, args, 1)
			results[i] = clientResult{first: time.Since(t0), outs: outs, err: err}
		}(i)
	}
	start.Done()
	done.Wait()
	row := ConcurrentRow{Bench: b.Name, FirstCallMin: time.Hour}
	for i, r := range results {
		if r.err != nil {
			return row, fmt.Errorf("client %d first call: %w", i, r.err)
		}
		if r.first < row.FirstCallMin {
			row.FirstCallMin = r.first
		}
		if r.first > row.FirstCallMax {
			row.FirstCallMax = r.first
		}
		// Concurrent clients running identical code on identical args
		// must agree exactly.
		if !sameValues(r.outs, results[0].outs) {
			return row, fmt.Errorf("client %d result diverged from client 0", i)
		}
	}
	e.Drain() // all background jobs published; steady state from here

	// Phase 2: steady state. Timed burst of warm calls from every
	// client against the now-populated repository.
	errs := make([]error, c.Clients)
	var start2, done2 sync.WaitGroup
	start2.Add(1)
	t0 := time.Now()
	for i := 0; i < c.Clients; i++ {
		done2.Add(1)
		go func(i int) {
			defer done2.Done()
			start2.Wait()
			for k := 0; k < c.CallsPerClient; k++ {
				if _, err := e.Call(b.Fn, args, 1); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	start2.Done()
	done2.Wait()
	row.Steady = time.Since(t0)
	for i, err := range errs {
		if err != nil {
			return row, fmt.Errorf("client %d steady state: %w", i, err)
		}
	}
	row.TotalCalls = c.Clients * c.CallsPerClient
	if row.Steady > 0 {
		row.Throughput = float64(row.TotalCalls) / row.Steady.Seconds()
	}
	st := e.Repo().Stats()
	row.Inserts = st.Inserts
	qs := e.QueueStats()
	row.CompileJobs = qs.Submitted
	row.Deduped = qs.Deduped
	return row, nil
}

// Report runs the workload and prints a results_medium.txt-style table.
func (c ConcurrentConfig) Report() error {
	c = c.defaults()
	mode := "sync (inline compile)"
	if c.Async {
		workers := c.Workers
		if workers <= 0 {
			mode = "async (workers=GOMAXPROCS)"
		} else {
			mode = fmt.Sprintf("async (workers=%d)", workers)
		}
	}
	threads := c.Threads
	if threads <= 0 {
		threads = parallel.DefaultThreads()
	}
	fmt.Fprintf(c.Out, "Concurrent clients: %d goroutines x shared JIT repository, %s, size %s, kernel threads %d\n",
		c.Clients, mode, c.Size, threads)
	fmt.Fprintln(c.Out, "=========================================================================================")
	fmt.Fprintf(c.Out, "%-10s %14s %14s %14s %12s %8s %6s %8s\n",
		"benchmark", "first(min)", "first(max)", "steady", "calls/s", "inserts", "jobs", "deduped")
	fmt.Fprintln(c.Out, "-----------------------------------------------------------------------------------------")
	rows, err := c.Run()
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(c.Out, "%-10s %14s %14s %14s %12.0f %8d %6d %8d\n",
			r.Bench,
			r.FirstCallMin.Round(time.Microsecond),
			r.FirstCallMax.Round(time.Microsecond),
			r.Steady.Round(time.Microsecond),
			r.Throughput, r.Inserts, r.CompileJobs, r.Deduped)
	}
	fmt.Fprintln(c.Out, `
first(min/max): cold-start latency across clients hitting an empty repository at once
  (async+single-flight: one compile serves all clients; sync: first caller compiles inline);
steady:         wall time for clients x calls-per-client warm calls through the locator;
inserts:        repository inserts (single-flight keeps this at one per compiled signature);
jobs/deduped:   background compile jobs executed / concurrent requests coalesced.`)
	return nil
}

// sameValues reports exact equality of two result lists (identical
// compiled code on identical deterministic args must agree bit-for-bit,
// whichever client computed it).
func sameValues(a, b []*mat.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Rows() != y.Rows() || x.Cols() != y.Cols() || x.Kind() != y.Kind() {
			return false
		}
		xr, yr := x.Re(), y.Re()
		for k := range xr {
			if xr[k] != yr[k] {
				return false
			}
		}
	}
	return true
}
