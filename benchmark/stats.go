package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// row is one line of a workload's result table: the latency samples of
// one (program, arm) or request kind.
type row struct {
	name string
	// group labels the row for the per-layer sub-geomeans ("jit", "spec",
	// "interp", "prod", "first.jit", "call", "script", ...).
	group string
	// gated rows enter op_ms; the others (the interp arm of
	// steady-kernel) are denominators only.
	gated bool
	ms    []float64
	// rel holds, per sample, the op's time divided by the time of the
	// reference loop run right before it (see ref.go).
	rel []float64
}

// recorder collects what one measured stretch produced. Each client
// goroutine owns one; merge folds them together afterwards.
type recorder struct {
	rows      map[string]*row
	attempted int
	failed    int
	firstErr  string
	// inexact counts, per row, results that were correct within
	// tolerance but not bit-identical to the reference.
	inexact map[string]int
	// done holds each completed op's offset from the start of the
	// stretch, for the windowed throughput.
	done []time.Duration
	wall time.Duration
}

func newRecorder() *recorder {
	return &recorder{rows: make(map[string]*row), inexact: make(map[string]int)}
}

// add records one op: its row, its latency, when it completed, and
// whether its result matched the reference.
func (r *recorder) add(name, group string, gated bool, d, ref time.Duration, at time.Duration, err error) {
	rw := r.rows[name]
	if rw == nil {
		rw = &row{name: name, group: group, gated: gated}
		r.rows[name] = rw
	}
	r.attempted++
	if errors.Is(err, errInexact) {
		r.inexact[name]++
		err = nil
	}
	if err != nil {
		r.failed++
		if r.firstErr == "" {
			r.firstErr = name + ": " + err.Error()
		}
		return // a failed op has no latency worth keeping
	}
	rw.ms = append(rw.ms, float64(d)/1e6)
	rw.rel = append(rw.rel, float64(d)/float64(ref))
	r.done = append(r.done, at)
}

func (r *recorder) merge(o *recorder) {
	for name, orow := range o.rows {
		rw := r.rows[name]
		if rw == nil {
			r.rows[name] = orow
			continue
		}
		rw.ms = append(rw.ms, orow.ms...)
		rw.rel = append(rw.rel, orow.rel...)
	}
	for name, n := range o.inexact {
		r.inexact[name] += n
	}
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == "" {
		r.firstErr = o.firstErr
	}
	r.done = append(r.done, o.done...)
	if o.wall > r.wall {
		r.wall = o.wall
	}
}

// footprint is the memory, in bytes, the recorder's samples occupy. It
// grows with the number of ops a run completes, so live_heap_mb leaves
// it out.
func (r *recorder) footprint() int {
	n := cap(r.done)
	for _, rw := range r.rows {
		n += cap(rw.ms) + cap(rw.rel)
	}
	return 8 * n
}

func (r *recorder) sorted() []*row {
	out := make([]*row, 0, len(r.rows))
	for _, rw := range r.rows {
		out = append(out, rw)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; 0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile is the highest percentile that still has at least ten
// samples beyond it, or 0 when the row is too short to have one.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 0
	}
	return 1 - 10/float64(n)
}

// geomean of the positive values in xs (0 when there are none).
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// rowGeomean is the geomean over the selected rows of each row's
// q-quantile of wall time, for the ungated per-layer breakdowns.
func (r *recorder) rowGeomean(q float64, keep func(*row) bool) float64 {
	var qs []float64
	for _, rw := range r.rows {
		if keep(rw) {
			qs = append(qs, quantile(rw.ms, q))
		}
	}
	return geomean(qs)
}

// opVsRef is the gated estimator: the geomean over the gated rows of
// the relQuantile of each row's op/reference ratios.
func (r *recorder) opVsRef() float64 {
	var qs []float64
	for _, rw := range r.rows {
		if rw.gated {
			qs = append(qs, quantile(rw.rel, relQuantile))
		}
	}
	return geomean(qs)
}

// meanRate is completed ops per second over the whole stretch.
func (r *recorder) meanRate() float64 {
	if r.wall <= 0 {
		return 0
	}
	return float64(len(r.done)) / r.wall.Seconds()
}

func gatedRows(rw *row) bool { return rw.gated }

func inGroup(groups ...string) func(*row) bool {
	return func(rw *row) bool {
		for _, g := range groups {
			if rw.group == g {
				return true
			}
		}
		return false
	}
}

// windowRate is the median over whole one-second windows of the ops
// completed in each; with under two whole windows it falls back to the
// run's mean rate.
func (r *recorder) windowRate() float64 {
	n := int(r.wall / time.Second)
	if n < 2 {
		return r.meanRate()
	}
	counts := make([]float64, n)
	for _, at := range r.done {
		if w := int(at / time.Second); w < n {
			counts[w]++
		}
	}
	return quantile(counts, 0.5)
}

// --- process and machine readings --------------------------------------------

// memMark is a MemStats reading; delta against a later one gives the
// exact allocation volume of the stretch in between.
type memMark struct{ bytes, mallocs uint64 }

func readMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.TotalAlloc, ms.Mallocs}
}

// liveHeapMiB is the heap still reachable after a full collection, less
// the benchmark's own samples: the memory the engines, repository,
// pools and sessions hold on to. Peak RSS, which also counts garbage
// awaiting collection, moved 20-40 % between identical runs with the
// collector's timing; this repeats.
func liveHeapMiB(rec *recorder) float64 {
	// Twice: a sync.Pool's items survive one collection in its victim
	// cache, and how many buffers the mat and gemm pools happen to hold
	// when the stretch ends is not what this metric is about.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return (float64(ms.HeapAlloc) - float64(rec.footprint())) / (1 << 20)
}

// peakRSSMiB reads VmHWM from /proc/self/status (0 where unavailable).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64) // malformed reads as 0
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTicks is the aggregate "cpu" line of /proc/stat: all ticks, the
// ticks some thread ran (busy) and the ticks a thread wanted to run but
// the hypervisor withheld the processor (steal).
type cpuTicks struct{ total, busy, steal float64 }

func readCPU() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var c cpuTicks
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// the guest columns are already counted in user and nice.
	for i, f := range strings.Fields(line) {
		if i == 0 || i > 8 {
			continue
		}
		v, _ := strconv.ParseFloat(f, 64) // malformed reads as 0
		c.total += v
		switch i {
		case 4, 5: // idle, iowait
		case 8:
			c.steal = v
		default:
			c.busy += v
		}
	}
	return c
}

// stealPct is the share of machine time the hypervisor withheld between
// two readings — the explanation for a noisy run.
func stealPct(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * (b.steal - a.steal) / (b.total - a.total)
}

// stolenShare is the share of a stretch of wall time, between two
// readings, that its critical path spent waiting for a withheld
// processor. The machine's ticks add up to wall time x processors, so
// steal x processors / total is stolen time as a share of wall time,
// summed over the processors that wanted to run; dividing by how many
// wanted to (never less than one: the stretch itself) leaves one
// thread's share.
func stolenShare(a, b cpuTicks) float64 {
	total := b.total - a.total
	if total <= 0 {
		return 0
	}
	ncpu := float64(runtime.NumCPU())
	stolen := (b.steal - a.steal) * ncpu / total
	wanting := (b.busy - a.busy + b.steal - a.steal) * ncpu / total
	return stolen / math.Max(1, wanting)
}

// minPerOp times batches of n calls of fn and returns the fastest
// batch's nanoseconds per call: the layer probes' estimator (a probe
// has no queueing, so its floor is its cost).
func minPerOp(batches, n int, fn func()) float64 {
	best := math.Inf(1)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := float64(time.Since(t0)) / float64(n); d < best {
			best = d
		}
	}
	return best
}

// printRows writes the human-readable result table.
func printRows(r *recorder) {
	fmt.Printf("%-28s %-13s %6s %9s %10s %10s %16s\n", "row", "group", "n", "vs_ref", "p10_ms", "p50_ms", "tail_ms")
	for _, rw := range r.sorted() {
		tail := "-"
		if q := tailQuantile(len(rw.ms)); q > 0 {
			tail = fmt.Sprintf("p%.1f=%.4f", 100*q, quantile(rw.ms, q))
		}
		fmt.Printf("%-28s %-13s %6d %9.4f %10.4f %10.4f %16s\n",
			rw.name, rw.group, len(rw.ms), quantile(rw.rel, relQuantile), quantile(rw.ms, 0.10), quantile(rw.ms, 0.50), tail)
	}
	var inexact []string
	for name := range r.inexact {
		inexact = append(inexact, name)
	}
	sort.Strings(inexact)
	if len(inexact) > 0 {
		fmt.Printf("correct within %g but not bit-identical to the interpreter: %s\n", tolerance, strings.Join(inexact, " "))
	}
}
