// Package parallel is the shared data-parallel runtime under the dense
// kernels: a persistent, lazily-started worker pool and a single
// primitive, For, that partitions an index range across workers. The
// blocked dgemm/dgemv kernels (internal/blas), the generic elementwise
// operators (internal/mat) and the fused elementwise programs
// (internal/vm) all schedule through it, so one engine option —
// core.Options.Threads — sizes every dense loop in the process.
//
// Design constraints, in order:
//
//  1. Bit-identity. For only ever partitions an index range into
//     disjoint [lo, hi) chunks; it never changes what a worker computes
//     for an index. Every kernel built on it keeps its per-element
//     operation sequence independent of the partitioning, so results
//     are byte-for-byte identical for every thread count (the
//     serial-vs-parallel differential suite in internal/core enforces
//     this).
//
//  2. Zero overhead when small. Below the caller's grain threshold For
//     degenerates to one inline call on the caller's goroutine — no
//     atomics, no channel sends — so the paper-benchmark operands
//     (hundreds of elements) never pay scheduling cost.
//
//  3. No deadlock under nesting or contention. Completion is tracked
//     per chunk, not per worker: the calling goroutine claims chunks
//     from the same shared counter as the pool workers, so a For call
//     completes even when every pool worker is busy (or the task queue
//     is full) — the caller just runs all chunks itself. Wait edges go
//     strictly from a nesting depth to the next, so cycles cannot form.
//
//  4. One allocation per fan-out. Everything the chunks of one For share
//     (the chunk counter, the completion count, the first panic) lives in
//     one job, and the pool workers receive the job itself.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers caps the persistent pool. Requests beyond it still
// complete (the caller participates); they just share the capped
// worker set. Deliberately above GOMAXPROCS so thread counts larger
// than the machine (used by the bit-identity tests) still exercise
// real cross-goroutine execution.
const maxWorkers = 64

var (
	// defaultThreads is the process-wide thread count: 0 = unset, which
	// resolves to GOMAXPROCS. core.Engine sets it from Options.Threads;
	// like the internal/mat buffer pool it is process-wide, so the last
	// engine configured with an explicit Threads wins.
	defaultThreads atomic.Int64

	poolOnce sync.Once
	tasks    chan *job
	nworkers atomic.Int64
)

// SetDefaultThreads sets the process-wide thread count used when a
// kernel asks for the default width. n <= 0 resets to "unset"
// (GOMAXPROCS); n == 1 makes every kernel run serially on the caller's
// goroutine, byte-for-byte the pre-parallel behavior.
func SetDefaultThreads(n int) {
	if n < 0 {
		n = 0
	}
	defaultThreads.Store(int64(n))
}

// DefaultThreads returns the resolved process-wide thread count:
// the value set by SetDefaultThreads, or GOMAXPROCS if unset.
func DefaultThreads() int {
	if n := defaultThreads.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Workers returns the number of persistent pool workers started so
// far (zero until the first parallel For); for diagnostics and the
// bench-report headers.
func Workers() int { return int(nworkers.Load()) }

func ensurePool(helpers int) {
	poolOnce.Do(func() {
		tasks = make(chan *job, 4*maxWorkers)
	})
	if helpers > maxWorkers {
		helpers = maxWorkers
	}
	for {
		cur := nworkers.Load()
		if cur >= int64(helpers) {
			return
		}
		if nworkers.CompareAndSwap(cur, cur+1) {
			go func() {
				for j := range tasks {
					j.run()
				}
			}()
		}
	}
}

// For runs fn over the disjoint chunks of [0, n) using up to threads
// goroutines (the caller plus pool workers). threads <= 0 means the
// process default (DefaultThreads). grain is the minimum chunk size:
// when n <= grain — or threads resolve to 1 — fn(0, n) runs inline on
// the caller's goroutine and For returns with no scheduling work at
// all. Chunk boundaries are multiples of grain (except the final
// chunk), so callers that need aligned blocks can pass their block
// size as the grain.
//
// fn must treat its [lo, hi) range as exclusive property; For
// guarantees every index is covered exactly once. A panic in any chunk
// is re-raised on the calling goroutine after all chunks complete.
func For(threads, n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if threads <= 0 {
		threads = DefaultThreads()
	}
	if grain < 1 {
		grain = 1
	}
	if threads == 1 || n <= grain {
		fn(0, n)
		return
	}

	// Chunk size: aim for a few chunks per thread so a slow chunk does
	// not serialize the tail, but never below the grain, and keep chunk
	// boundaries grain-aligned for callers with block structure.
	chunks := (n + grain - 1) / grain
	if max := 4 * threads; chunks > max {
		chunks = max
	}
	per := (n + chunks - 1) / chunks
	per = (per + grain - 1) / grain * grain
	chunks = (n + per - 1) / per

	j := &job{fn: fn, n: n, per: per, chunks: chunks}
	j.wg.Add(chunks)

	helpers := threads - 1
	if helpers > chunks-1 {
		helpers = chunks - 1
	}
	ensurePool(helpers)
submit:
	for i := 0; i < helpers; i++ {
		select {
		case tasks <- j:
		default:
			// Queue full (heavy concurrent For traffic): stop — the
			// caller and already-queued workers cover every chunk.
			break submit
		}
	}
	j.run()
	j.wg.Wait()
	if j.failed.Load() {
		panic(j.pval)
	}
}

// job is one fanned-out For: the range, its chunking and fn, plus what
// the goroutines running its chunks share.
type job struct {
	fn             func(lo, hi int)
	n, per, chunks int

	next   atomic.Int64 // chunks claimed so far
	wg     sync.WaitGroup
	failed atomic.Bool
	pmu    sync.Mutex
	pval   any // the first panic, re-raised on the calling goroutine
}

// run claims and runs chunks until none is left.
func (j *job) run() {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.chunks {
			return
		}
		j.chunk(i)
	}
}

func (j *job) chunk(i int) {
	defer j.wg.Done()
	if j.failed.Load() {
		return // drain remaining chunks after a panic
	}
	defer func() {
		if r := recover(); r != nil {
			j.failed.Store(true)
			j.pmu.Lock()
			if j.pval == nil {
				j.pval = r
			}
			j.pmu.Unlock()
		}
	}()
	lo := i * j.per
	j.fn(lo, min(lo+j.per, j.n))
}
