package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// coverage checks that For covers [0, n) exactly once by counting
// visits per index from inside the chunks.
func coverage(t *testing.T, threads, n, grain int) {
	t.Helper()
	if n == 0 {
		For(threads, n, grain, func(lo, hi int) { t.Fatalf("fn called for n=0") })
		return
	}
	seen := make([]int32, n)
	For(threads, n, grain, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
			return
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("threads=%d n=%d grain=%d: index %d visited %d times", threads, n, grain, i, c)
		}
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, threads := range []int{0, 1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 64, 513, 4096, 100003} {
			for _, grain := range []int{1, 8, 512, 100000} {
				coverage(t, threads, n, grain)
			}
		}
	}
}

func TestForSerialFallbackRunsInline(t *testing.T) {
	// n <= grain and threads == 1 must both run exactly one inline call
	// covering the whole range (the zero-overhead contract).
	for _, tc := range []struct{ threads, n, grain int }{
		{8, 100, 100}, // below grain
		{8, 1, 1},
		{1, 1 << 20, 64}, // serial thread count
	} {
		calls := 0
		For(tc.threads, tc.n, tc.grain, func(lo, hi int) {
			calls++
			if lo != 0 || hi != tc.n {
				t.Fatalf("inline call got [%d,%d), want [0,%d)", lo, hi, tc.n)
			}
		})
		if calls != 1 {
			t.Fatalf("threads=%d n=%d grain=%d: %d calls, want 1 inline call", tc.threads, tc.n, tc.grain, calls)
		}
	}
}

func TestForChunksAreGrainAligned(t *testing.T) {
	const n, grain = 10_000, 512
	For(4, n, grain, func(lo, hi int) {
		if lo%grain != 0 {
			t.Errorf("chunk start %d not a multiple of grain %d", lo, grain)
		}
		if hi != n && hi%grain != 0 {
			t.Errorf("chunk end %d not a multiple of grain %d", hi, grain)
		}
	})
}

func TestForPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	For(4, 1<<16, 16, func(lo, hi int) {
		if lo == 0 {
			panic("boom")
		}
	})
	t.Fatal("For returned instead of panicking")
}

func TestForNested(t *testing.T) {
	// Nested For calls must complete (chunk-counted completion means no
	// worker-starvation deadlock) and cover the full 2-D range.
	const rows, cols = 97, 61
	var total atomic.Int64
	For(4, rows, 1, func(rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			For(4, cols, 8, func(clo, chi int) {
				total.Add(int64(chi - clo))
			})
		}
	})
	if got := total.Load(); got != rows*cols {
		t.Fatalf("nested coverage %d, want %d", got, rows*cols)
	}
}

func TestForConcurrentCallers(t *testing.T) {
	// Many goroutines issuing For calls at once: the shared pool and
	// task queue must stay correct under contention (race-detector
	// target).
	const callers = 16
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				n := 1000 + g*37 + iter
				var sum atomic.Int64
				For(3, n, 64, func(lo, hi int) {
					s := int64(0)
					for i := lo; i < hi; i++ {
						s += int64(i)
					}
					sum.Add(s)
				})
				want := int64(n) * int64(n-1) / 2
				if sum.Load() != want {
					t.Errorf("caller %d iter %d: sum %d, want %d", g, iter, sum.Load(), want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestForAllocatesOneJob: a fanned-out For allocates its job and nothing
// else: no closure, counter, WaitGroup or mutex of its own.
func TestForAllocatesOneJob(t *testing.T) {
	var sum atomic.Int64
	fn := func(lo, hi int) { sum.Add(int64(hi - lo)) }
	const n = 4096
	allocs := testing.AllocsPerRun(50, func() { For(4, n, 64, fn) })
	if allocs > 1 {
		t.Errorf("a fanned-out For allocates %.2f objects, want <= 1", allocs)
	}
	if got := sum.Load(); got != 51*n {
		t.Fatalf("covered %d indices over 51 calls, want %d", got, 51*n)
	}
}

func TestDefaultThreads(t *testing.T) {
	old := int(defaultThreads.Load())
	defer defaultThreads.Store(int64(old))

	SetDefaultThreads(0)
	if DefaultThreads() < 1 {
		t.Fatalf("unset DefaultThreads = %d, want >= 1 (GOMAXPROCS)", DefaultThreads())
	}
	SetDefaultThreads(3)
	if DefaultThreads() != 3 {
		t.Fatalf("DefaultThreads = %d, want 3", DefaultThreads())
	}
	SetDefaultThreads(-5)
	if DefaultThreads() < 1 {
		t.Fatalf("negative reset: DefaultThreads = %d, want GOMAXPROCS", DefaultThreads())
	}
}

func BenchmarkForOverheadSmall(b *testing.B) {
	// The serial-fallback path: must be almost free.
	var sink float64
	for i := 0; i < b.N; i++ {
		For(8, 256, 4096, func(lo, hi int) {
			s := 0.0
			for j := lo; j < hi; j++ {
				s += float64(j)
			}
			sink = s
		})
	}
	_ = sink
}

func BenchmarkForLarge(b *testing.B) {
	buf := make([]float64, 1<<20)
	for i := 0; i < b.N; i++ {
		For(0, len(buf), 4096, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				buf[j] = float64(j) * 1.5
			}
		})
	}
}

// BenchmarkForJoinWait times what a two-thread fan-out waits for when the
// fan-outs are spaced as spcg's are. spcg's conjugate-gradient loop at
// the ledger's size (n = 10⁴, pentadiagonal) fans one CSR SpMV out per
// iteration, split by sparse.SpMV's grain into chunks of 5 958 and 4 042
// rows, about 270 µs apart under jit (p10 186 µs, p90 410 µs), the caller
// computing in between. Each fan-out here is that SpMV, after the caller
// spins for the gap. It reports:
//
//   - wake-ns: from the fan-out to the start of the worker's chunk, over
//     the fan-outs where the worker ran one;
//   - join-ns: from the end of the caller's last chunk to For's return,
//     the join's wait for the worker, over the same fan-outs;
//   - late-%: the fan-outs whose worker came too late to run a chunk, so
//     that the caller ran both.
//
// gap=0 is the back-to-back case the ledger's parallel.for_overhead_ns
// times, where the worker never parks; serial is the same SpMV on the
// caller alone at spcg's gap, for its ns/op to compare.
func BenchmarkForJoinWait(b *testing.B) {
	const n, nnz = 10000, 5
	const grain = 1 + (1<<16)/(2*nnz+1) // sparse.SpMV's grain at 5 nonzeros a row
	col := make([]int, n*nnz)
	val := make([]float64, n*nnz)
	for i := range n {
		for k, off := range []int{-100, -1, 0, 1, 100} {
			col[i*nnz+k] = min(max(i+off, 0), n-1)
			val[i*nnz+k] = float64(k) - 1.5
		}
	}
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = float64(i%7) + 0.5
	}
	spmv := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := 0.0
			for k := i * nnz; k < (i+1)*nnz; k++ {
				s += val[k] * x[col[k]]
			}
			y[i] = s
		}
	}
	b.Run("serial", func(b *testing.B) {
		for range b.N {
			for t := time.Now(); time.Since(t) < 270*time.Microsecond; {
			}
			For(1, n, grain, spmv)
		}
	})
	for _, gap := range []time.Duration{0, 50 * time.Microsecond, 270 * time.Microsecond, time.Millisecond} {
		b.Run("gap="+gap.String(), func(b *testing.B) {
			var start, end [2]time.Time
			var wake, join time.Duration
			ran := 0
			for range b.N {
				for t := time.Now(); time.Since(t) < gap; {
				}
				t0 := time.Now()
				For(2, n, grain, func(lo, hi int) {
					c := lo / grain
					start[c] = time.Now()
					spmv(lo, hi)
					end[c] = time.Now()
				})
				done := time.Now()
				// The caller claims chunk 0 first: chunk 1 ran on the worker
				// when it started before chunk 0 ended.
				if start[1].Before(end[0]) {
					ran++
					wake += start[1].Sub(t0)
					join += done.Sub(end[0])
				}
			}
			if ran > 0 {
				b.ReportMetric(float64(wake.Nanoseconds())/float64(ran), "wake-ns")
				b.ReportMetric(float64(join.Nanoseconds())/float64(ran), "join-ns")
			}
			b.ReportMetric(100*float64(b.N-ran)/float64(b.N), "late-%")
		})
	}
}
