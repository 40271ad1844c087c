// Package compilequeue implements the asynchronous compilation service
// behind the code repository. The paper's front end stays responsive
// because the repository compiles "behind the scenes" while snooping
// source directories (§2); this package supplies the machinery for that
// decoupling: a bounded worker pool that executes compile jobs off the
// interpreter goroutine, with a single-flight layer that deduplicates
// concurrent requests for the same (function, widened signature,
// generation) key so N simultaneous misses trigger exactly one compile.
//
// The pool knows nothing about compilation itself — jobs are opaque
// closures — so it is reusable for speculative ahead-of-time jobs,
// JIT-miss jobs, and hot-entry recompilation upgrades alike.
package compilequeue

import (
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Ticket is a handle on a submitted job. Every caller that requested
// the same key holds the same ticket; Wait blocks until the job's
// closure has returned (and therefore until anything the closure
// published — e.g. a repository entry — is visible to the waiter).
type Ticket struct {
	done chan struct{}
	err  error // written once, before done is closed
}

// Wait blocks until the job completes and returns its error.
func (t *Ticket) Wait() error {
	<-t.done
	return t.err
}

// TryDone reports whether the job has already completed, without
// blocking (the non-blocking fallback policy polls this).
func (t *Ticket) TryDone() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// Stats counts pool traffic.
type Stats struct {
	Submitted int `json:"submitted"` // unique jobs accepted (queued or run inline)
	Deduped   int `json:"deduped"`   // requests coalesced onto an in-flight job
	Completed int `json:"completed"` // jobs finished (with or without error)
	Errors    int `json:"errors"`    // jobs that returned a non-nil error
	Inline    int `json:"inline"`    // jobs run on the caller's goroutine (pool closed)
}

type job struct {
	key      string
	fn       func() error
	ticket   *Ticket
	enqueued time.Time // set when a tracer is attached; zero otherwise
}

// Pool is a bounded worker pool with single-flight keyed submission.
// The queue itself is unbounded (compile jobs are few and small); the
// bound is on concurrently executing workers, which is what limits CPU
// contention with the interpreter thread.
type Pool struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*job
	inflight map[string]*Ticket
	active   int // jobs currently executing on a worker
	stats    Stats
	closed   bool
	workers  int
	wg       sync.WaitGroup
	// tracer, when attached, receives one queue-wait span and one run
	// span per job (tid = worker index). Nil-safe; set it before traffic.
	tracer *telemetry.Tracer
}

// New starts a pool with the given number of workers (minimum 1).
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{inflight: make(map[string]*Ticket), workers: workers}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker(i)
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// SetTracer attaches a span tracer: each job then records a queue-wait
// span (submission to dequeue) and a run span, on the worker's lane.
// Attach before the pool sees traffic.
func (p *Pool) SetTracer(tr *telemetry.Tracer) {
	p.mu.Lock()
	p.tracer = tr
	p.mu.Unlock()
}

// jobCategory derives the span name from the single-flight key's prefix
// (jit, tier, osr, spec — see the engine's key formats).
func jobCategory(key string) string {
	if i := strings.IndexByte(key, 0); i > 0 {
		return key[:i]
	}
	return "job"
}

// Do submits fn under key. If a job with the same key is already in
// flight (queued or executing), fn is dropped and the existing job's
// ticket is returned with started=false — the single-flight guarantee.
// After Close, fn runs inline on the caller's goroutine so the engine
// keeps working (synchronously) once its pool is shut down.
func (p *Pool) Do(key string, fn func() error) (t *Ticket, started bool) {
	return p.DoUnless(key, nil, fn)
}

// Done returns a ticket for work that has already completed with err:
// the handle a caller holds when it ran the job itself instead of
// submitting it, so sync and async callers share one wait path.
func Done(err error) *Ticket {
	if err == nil {
		return finished
	}
	t := &Ticket{done: make(chan struct{}), err: err}
	close(t.done)
	return t
}

// finished is the ticket handed out when the work already landed.
var finished = func() *Ticket {
	t := &Ticket{done: make(chan struct{})}
	close(t.done)
	return t
}()

// DoUnless is Do with a last look before submitting: when no job for key
// is in flight and landed reports that the job's result is already
// published, nothing is submitted and a completed ticket is returned
// (counted as deduplicated). landed runs under the pool's lock, which is
// what closes the single-flight window: a job retires its ticket under
// that lock only after its closure returned, so a caller that finds no
// ticket either precedes every job for key or sees what the last one
// published. It must therefore be quick and must not call back into the
// pool.
func (p *Pool) DoUnless(key string, landed func() bool, fn func() error) (t *Ticket, started bool) {
	p.mu.Lock()
	if t, ok := p.inflight[key]; ok {
		p.stats.Deduped++
		p.mu.Unlock()
		return t, false
	}
	if landed != nil && landed() {
		p.stats.Deduped++
		p.mu.Unlock()
		return finished, false
	}
	t = &Ticket{done: make(chan struct{})}
	p.stats.Submitted++
	if p.closed {
		p.stats.Inline++
		p.mu.Unlock()
		t.err = fn()
		close(t.done)
		p.mu.Lock()
		p.stats.Completed++
		if t.err != nil {
			p.stats.Errors++
		}
		p.mu.Unlock()
		return t, true
	}
	j := &job{key: key, fn: fn, ticket: t}
	if p.tracer != nil {
		j.enqueued = time.Now()
	}
	p.inflight[key] = t
	p.queue = append(p.queue, j)
	p.cond.Broadcast()
	p.mu.Unlock()
	return t, true
}

func (p *Pool) worker(id int) {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			// closed and drained
			p.mu.Unlock()
			return
		}
		j := p.queue[0]
		p.queue = p.queue[1:]
		p.active++
		tr := p.tracer
		p.mu.Unlock()

		var start time.Time
		if tr != nil {
			start = time.Now()
			if !j.enqueued.IsZero() {
				tr.Span(telemetry.CatQueue, jobCategory(j.key)+" wait", id, j.enqueued, start.Sub(j.enqueued))
			}
		}
		err := j.fn()
		if tr != nil {
			tr.Span(telemetry.CatCompile, jobCategory(j.key), id, start, time.Since(start))
		}

		j.ticket.err = err
		close(j.ticket.done)
		p.mu.Lock()
		delete(p.inflight, j.key)
		p.active--
		p.stats.Completed++
		if err != nil {
			p.stats.Errors++
		}
		if len(p.queue) == 0 && p.active == 0 {
			p.cond.Broadcast() // wake Drain
		}
		p.mu.Unlock()
	}
}

// Drain blocks until the pool is idle: no queued and no executing jobs.
// Jobs submitted while draining extend the wait.
func (p *Pool) Drain() {
	p.mu.Lock()
	for len(p.queue) > 0 || p.active > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// Close finishes all queued jobs, stops the workers, and waits for them
// to exit. Later Do calls run inline. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
