package compilequeue

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSingleFlight: N concurrent requests for one key run the job once.
func TestSingleFlight(t *testing.T) {
	p := New(2)
	defer p.Close()

	var runs atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	const callers = 8
	tickets := make([]*Ticket, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tk, _ := p.Do("fib|int", func() error {
				runs.Add(1)
				<-release // hold the job so every caller coalesces
				return nil
			})
			tickets[i] = tk
		}(i)
	}
	wg.Wait() // all callers have their ticket; job still blocked
	close(release)
	for _, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("job ran %d times, want exactly 1", got)
	}
	st := p.Stats()
	if st.Submitted != 1 || st.Deduped != callers-1 {
		t.Fatalf("stats = %+v, want Submitted=1 Deduped=%d", st, callers-1)
	}
}

// TestDistinctKeysRunIndependently: different keys never coalesce.
func TestDistinctKeysRunIndependently(t *testing.T) {
	p := New(4)
	defer p.Close()
	var runs atomic.Int32
	for i := 0; i < 10; i++ {
		p.Do(fmt.Sprintf("k%d", i), func() error {
			runs.Add(1)
			return nil
		})
	}
	p.Drain()
	if got := runs.Load(); got != 10 {
		t.Fatalf("ran %d jobs, want 10", got)
	}
}

// TestWaitReturnsJobError: every coalesced waiter observes the error.
func TestWaitReturnsJobError(t *testing.T) {
	p := New(1)
	defer p.Close()
	boom := errors.New("boom")
	gate := make(chan struct{})
	t1, _ := p.Do("k", func() error { <-gate; return boom })
	t2, started := p.Do("k", func() error { t.Error("second fn must not run"); return nil })
	if started {
		t.Fatal("second Do must coalesce")
	}
	close(gate)
	if err := t1.Wait(); err != boom {
		t.Fatalf("t1.Wait() = %v, want boom", err)
	}
	if err := t2.Wait(); err != boom {
		t.Fatalf("t2.Wait() = %v, want boom", err)
	}
	if st := p.Stats(); st.Errors != 1 {
		t.Fatalf("stats = %+v, want Errors=1", st)
	}
}

// TestKeyReusableAfterCompletion: the single-flight window is the job's
// lifetime only; a later request with the same key runs a fresh job.
func TestKeyReusableAfterCompletion(t *testing.T) {
	p := New(1)
	defer p.Close()
	var runs atomic.Int32
	tk, _ := p.Do("k", func() error { runs.Add(1); return nil })
	tk.Wait()
	tk2, started := p.Do("k", func() error { runs.Add(1); return nil })
	if !started {
		t.Fatal("completed key must accept a new job")
	}
	tk2.Wait()
	if got := runs.Load(); got != 2 {
		t.Fatalf("ran %d jobs, want 2", got)
	}
}

// TestDrainWaitsForExecutingJobs: Drain returns only after in-flight
// work (not just the queue) finishes.
func TestDrainWaitsForExecutingJobs(t *testing.T) {
	p := New(2)
	defer p.Close()
	var done atomic.Bool
	p.Do("slow", func() error {
		time.Sleep(20 * time.Millisecond)
		done.Store(true)
		return nil
	})
	p.Drain()
	if !done.Load() {
		t.Fatal("Drain returned while a job was still executing")
	}
}

// TestBoundedWorkers: with one worker, jobs never execute concurrently.
func TestBoundedWorkers(t *testing.T) {
	p := New(1)
	defer p.Close()
	var cur, max atomic.Int32
	for i := 0; i < 6; i++ {
		p.Do(fmt.Sprintf("j%d", i), func() error {
			c := cur.Add(1)
			for {
				m := max.Load()
				if c <= m || max.CompareAndSwap(m, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil
		})
	}
	p.Drain()
	if max.Load() > 1 {
		t.Fatalf("observed %d concurrent jobs with 1 worker", max.Load())
	}
}

// TestDoAfterCloseRunsInline: a closed pool degrades to synchronous
// execution instead of deadlocking or dropping work.
func TestDoAfterCloseRunsInline(t *testing.T) {
	p := New(2)
	p.Close()
	ran := false
	tk, started := p.Do("k", func() error { ran = true; return nil })
	if !started || !ran {
		t.Fatal("Do after Close must run the job inline")
	}
	if !tk.TryDone() {
		t.Fatal("inline ticket must already be done")
	}
	if st := p.Stats(); st.Inline != 1 {
		t.Fatalf("stats = %+v, want Inline=1", st)
	}
	p.Close() // idempotent
}

// TestConcurrentChurn hammers the pool from many goroutines with
// overlapping keys — a -race correctness gate for the pool itself.
func TestConcurrentChurn(t *testing.T) {
	p := New(4)
	defer p.Close()
	var wg sync.WaitGroup
	var runs atomic.Int32
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tk, _ := p.Do(fmt.Sprintf("k%d", i%7), func() error {
					runs.Add(1)
					return nil
				})
				if g%2 == 0 {
					tk.Wait()
				}
			}
		}(g)
	}
	wg.Wait()
	p.Drain()
	st := p.Stats()
	if st.Completed != st.Submitted {
		t.Fatalf("stats = %+v: completed != submitted after drain", st)
	}
	if runs.Load() != int32(st.Submitted) {
		t.Fatalf("ran %d, submitted %d", runs.Load(), st.Submitted)
	}
}

// TestDoUnlessSkipsLandedWork pins the closed single-flight window: a
// request that arrives after the job for its key has published and
// retired must not run the job again.
func TestDoUnlessSkipsLandedWork(t *testing.T) {
	p := New(2)
	defer p.Close()
	var published atomic.Bool
	var runs atomic.Int32
	job := func() error {
		runs.Add(1)
		published.Store(true)
		return nil
	}
	first, started := p.DoUnless("k", published.Load, job)
	if !started {
		t.Fatal("the first request did not start the job")
	}
	if err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	p.Drain() // the ticket is retired
	late, started := p.DoUnless("k", published.Load, job)
	if started || !late.TryDone() {
		t.Fatalf("a late request re-submitted landed work (started=%v)", started)
	}
	if err := late.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("the job ran %d times", n)
	}
	if st := p.Stats(); st.Submitted != 1 || st.Deduped != 1 {
		t.Fatalf("stats %+v, want 1 submitted and 1 deduplicated", st)
	}
	// Without the check Do behaves as before.
	if _, started := p.Do("k", job); !started {
		t.Fatal("Do must submit when nothing is in flight")
	}
}
