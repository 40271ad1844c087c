package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/codegen"
	"repro/internal/interp"
	"repro/internal/mat"
	"repro/internal/profile"
	"repro/internal/repo"
	"repro/internal/telemetry"
	"repro/internal/types"
	"repro/internal/vm"
)

// repoState adapts the code repository to the engine: it implements the
// paper's invocation protocol — the front end passes (function name,
// argument values) to the repository, the function locator retrieves
// safe compiled code by type-signature matching, and a miss triggers
// JIT compilation (or, in speculative mode, usually hits ahead-of-time
// compiled code).
//
// With Options.AsyncCompile, misses do not compile on the caller's
// goroutine: they enqueue a job on the engine's worker pool, keyed by
// (function, widened signature, generation) so concurrent misses on the
// same key coalesce into a single compile (single flight). The tier
// decides what the caller does while the job runs — see invokeAsync.
type repoState struct {
	e *Engine
	r *repo.Repository
	// callDepth tracks nesting so execution time is only accumulated at
	// the outermost invocation (Figure 6 decomposition). It is atomic
	// because async mode allows concurrent callers; under concurrency
	// the "outermost" attribution becomes approximate (only the first
	// in-flight call times itself), which keeps the counter meaningful
	// without a per-goroutine side table.
	callDepth int32
}

func newRepoState(e *Engine) *repoState {
	return &repoState{e: e, r: e.lib.repo}
}

// Repo exposes the repository (stats for the harness and majicc). With
// a shared Library this is the library's process-wide repository.
func (e *Engine) Repo() *repo.Repository { return e.repo.r }

// precompile performs the speculative ahead-of-time compilation the
// repository does while "snooping the source code directories". In
// async mode the job runs on the worker pool — the paper's behind-the-
// scenes story — and publishes its entry when it lands; the single-
// flight key prevents duplicate speculative jobs for one source
// generation.
func (r *repoState) precompile(st *repo.FuncState) {
	name, gen := st.Fn.Name, st.Gen
	job := func() error {
		fn := r.e.LookupFunction(name)
		if fn == nil {
			return nil
		}
		sig, err := r.e.speculate(fn)
		if err != nil {
			return nil // speculation failure is not an error; JIT covers it
		}
		if r.r.Covered(name, sig) {
			return nil
		}
		c, err := r.e.compile(fn, sig, pipelineOpts{optimize: true})
		if err != nil {
			return nil
		}
		r.r.InsertAt(name, c.entry(sig, repo.QualityOpt, true), gen)
		return nil
	}
	if r.e.lib.queue == nil {
		job()
		return
	}
	r.e.lib.queue.Do(fmt.Sprintf("spec\x00%s\x00%d", name, gen), job)
}

// sigBuf is the stack room invoke reserves for an invocation signature;
// calls with more arguments fall back to a heap signature.
const sigBuf = 6

// invoke is the function locator's hit path, the layer every call
// crosses — Engine.Call, compiled code's OpCallUser and the daemon's
// evals alike. st is the callee's state as loaded once by the caller:
// definition, generation and entries from the same instant. A hit takes
// no lock and allocates nothing here (the signature lives in this
// frame); everything that retains the signature is on the miss path,
// which gets a copy.
func (r *repoState) invoke(st *repo.FuncState, args []*mat.Value, nout int, caller *vm.Frame) ([]*mat.Value, error) {
	var buf [sigBuf]types.Type
	sig := types.SignatureInto(buf[:0], args)
	entry := r.r.LookupIn(st, sig)
	if r.e.opts.Tiered && r.e.opts.Tier == TierJIT {
		if entry != nil && entry.Code != nil {
			return r.runEntry(entry, st.Fn, args, nout, caller)
		}
		return r.invokeTiered(st, append(types.Signature(nil), sig...), args, nout)
	}
	if entry != nil {
		r.maybeUpgrade(st.Fn, entry)
		return r.runEntry(entry, st.Fn, args, nout, caller)
	}
	return r.miss(st, append(types.Signature(nil), sig...), args, nout, caller)
}

// miss compiles for a signature no entry serves. The signature is
// widened when the repository has already compiled this function for
// the same intrinsic kinds: without widening, recursive calls such as
// fibonacci(n-1) would compile one version per distinct constant
// argument.
func (r *repoState) miss(st *repo.FuncState, sig types.Signature, args []*mat.Value, nout int, caller *vm.Frame) ([]*mat.Value, error) {
	e := r.e
	// A concurrent caller's compile (or a redefinition) may have landed
	// since the lookup that missed. Everything below — whether to widen,
	// which generation to publish at — is decided from one state, and
	// that state must still be missing the signature; otherwise this
	// caller would compile a widened sibling of the entry it just failed
	// to see.
	if fresh := r.r.State(st.Fn.Name); fresh != st {
		st = fresh
		if entry := r.r.LookupIn(st, sig); entry != nil {
			return r.runEntry(entry, st.Fn, args, nout, caller)
		}
	}
	csig := sig
	if st.SameKinds(sig) {
		csig = widen(sig)
	}

	var po pipelineOpts
	switch e.opts.Tier {
	case TierMCC:
		// Generic batch compilation: every parameter typed ⊤.
		csig = topSignature(len(sig))
		po = pipelineOpts{generic: true}
	case TierFalcon:
		po = pipelineOpts{optimize: true}
	default: // TierJIT, and TierSpec's runtime fallback
		po = pipelineOpts{optimize: e.opts.JITBackendOpts}
	}

	if e.lib.queue != nil {
		return r.invokeAsync(st, sig, csig, po, args, nout, caller)
	}
	// The original inline-compile miss path: the default, so
	// single-threaded behaviour (and the paper's Figure 4/6
	// reproductions) is unchanged when async mode is off. It publishes at
	// the generation the caller resolved, so another session's
	// redefinition landing mid-compile drops the entry instead of
	// installing code for a dead body.
	entry, err := r.compileEntry(st.Fn, csig, po)
	if err != nil {
		return nil, err
	}
	r.r.InsertAt(st.Fn.Name, entry, st.Gen)
	return r.runEntry(entry, st.Fn, args, nout, caller)
}

// compileEntry compiles fn for csig into a publishable entry. A construct
// the compiler does not support yields an interpret-only entry — defer to
// runtime, like MaJIC does for ambiguous symbols, and cache the decision.
func (r *repoState) compileEntry(fn *ast.Function, csig types.Signature, po pipelineOpts) (*repo.Entry, error) {
	c, err := r.e.compile(fn, csig, po)
	if err != nil {
		if _, unsupported := err.(*codegen.ErrUnsupported); unsupported {
			return &repo.Entry{Sig: topSignature(len(csig)), Quality: repo.QualityInterp}, nil
		}
		return nil, err
	}
	quality := repo.QualityJIT
	if po.optimize {
		quality = repo.QualityOpt
	}
	return c.entry(csig, quality, false), nil
}

// invokeAsync enqueues the miss's compile job and applies the per-tier
// responsiveness policy:
//
//   - TierJIT (and the batch tiers mcc/falcon): block on the job. The
//     first caller pays the compile latency exactly once; concurrent
//     callers coalesce on the single-flight ticket, so N simultaneous
//     misses cost one compile.
//   - TierSpec: never block. The caller interprets this invocation (the
//     paper's Figure 6 responsiveness story: speculative mode trades
//     first-call speed for zero perceived compile pauses) and the
//     compiled entry serves later calls once the job lands.
func (r *repoState) invokeAsync(st *repo.FuncState, sig, csig types.Signature, po pipelineOpts, args []*mat.Value, nout int, caller *vm.Frame) ([]*mat.Value, error) {
	e := r.e
	fn, name, gen := st.Fn, st.Fn.Name, st.Gen
	// The job re-resolves the function by name. If a redefinition landed
	// since st was loaded, the job compiles the new body but publishes at
	// the old generation and is dropped — conservative, never wrong.
	//
	// Single flight only spans a job's lifetime: a caller descheduled
	// between its miss and this submit may arrive after the job for its
	// key has published and retired. The landed check, made under the
	// pool's lock, sees that entry and submits nothing.
	key := fmt.Sprintf("jit\x00%s\x00%s\x00%d", name, csig.Key(), gen)
	ticket, _ := e.lib.queue.DoUnless(key,
		func() bool { return r.r.Covered(name, csig) },
		func() error { return r.compileJob(name, csig, po, gen) })

	if e.opts.Tier == TierSpec {
		// Non-blocking fallback: interpret now, hit compiled code later.
		// The fallback entry is transient — not inserted — so the
		// repository keeps exactly one (compiled) entry per key.
		return r.runEntry(&repo.Entry{Quality: repo.QualityInterp}, fn, args, nout, caller)
	}

	if e.tracer != nil {
		// Queue-wait span: how long this caller blocked on the compile
		// ticket (zero when the job already landed).
		tw := time.Now()
		err := ticket.Wait()
		e.tracer.Span(telemetry.CatQueue, name, e.id, tw, time.Since(tw))
		if err != nil {
			return nil, err
		}
	} else if err := ticket.Wait(); err != nil {
		return nil, err
	}
	if entry := r.r.Lookup(name, sig); entry != nil {
		return r.runEntry(entry, fn, args, nout, caller)
	}
	// The generation moved while the job was in flight (source
	// redefined) and the publish was dropped. Interpret this call with
	// the function the caller resolved; the next call recompiles fresh.
	return r.runEntry(&repo.Entry{Quality: repo.QualityInterp}, fn, args, nout, caller)
}

// compileJob is the worker-side body of a miss job. It re-resolves the
// function by name (see the ordering note in invokeAsync), compiles,
// and publishes through InsertAt so stale generations are dropped.
func (r *repoState) compileJob(name string, csig types.Signature, po pipelineOpts, gen uint64) error {
	fn := r.e.LookupFunction(name)
	if fn == nil {
		return nil // deleted while queued; nothing to publish
	}
	if r.r.Covered(name, csig) {
		// An entry that serves csig landed while this job was queued —
		// a job under another key (the widened sibling, say) can cover
		// it; don't duplicate.
		return nil
	}
	entry, err := r.compileEntry(fn, csig, po)
	if err != nil {
		return err
	}
	r.r.InsertAt(name, entry, gen)
	return nil
}

// runEntry executes one invocation through entry: compiled code on the
// VM, or the interpreter for an interpret-only entry. A compiled
// activation whose return-type guard misses (vm.ErrGuardMiss) is
// abandoned and the call re-run in the interpreter — invisible, because
// only replay-safe functions are compiled with guards — and the entry is
// retired in favour of an interpret-only one so later calls skip the
// detour until a redefinition clears the slate.
func (r *repoState) runEntry(entry *repo.Entry, fn *ast.Function, args []*mat.Value, nout int, caller *vm.Frame) ([]*mat.Value, error) {
	depth := atomic.AddInt32(&r.callDepth, 1)
	var t0 time.Time
	if depth == 1 {
		t0 = time.Now()
	}
	var outs []*mat.Value
	var err error
	if entry.Quality != repo.QualityInterp {
		outs, err = vm.Run(entry.Code, r.e, args, caller)
		if err == vm.ErrGuardMiss {
			r.r.Replace(fn.Name, entry, &repo.Entry{Sig: entry.Sig, Quality: repo.QualityInterp})
			r.e.lib.journal.Record(telemetry.Event{
				Kind:  telemetry.EventDeopt,
				Func:  fn.Name,
				Sig:   entry.Sig.Key(),
				Cause: telemetry.CauseReturnGuard,
			})
		}
	}
	if entry.Quality == repo.QualityInterp || err == vm.ErrGuardMiss {
		outs, err = r.e.in.CallFunction(fn, args, nout, r.e.globals)
	}
	if depth == 1 {
		d := time.Since(t0)
		atomic.AddInt64(&r.e.timing.Exec, d.Nanoseconds())
		r.e.tracer.Span(telemetry.CatExec, fn.Name, r.e.id, t0, d)
	}
	atomic.AddInt32(&r.callDepth, -1)
	if err != nil {
		return nil, err
	}
	if len(outs) > nout {
		outs = outs[:nout]
	}
	return outs, nil
}

// invokeTiered is the profile-guided execution path (Options.Tiered,
// TierJIT only). Calls start in the interpreter — a repository miss
// never compiles on the caller's goroutine, so first-eval latency stays
// interpreter-fast — while every call feeds the hotness profile for its
// (function, widened signature) bucket. A bucket that crosses the
// threshold enqueues a background recompile at QualityOpt with the
// profile-narrowed joined signature (maybePromote), and the published
// entry serves all later calls. While a call is still interpreting, the
// activation carries a tiered Frame: loop back-edges count toward the
// same bucket, and a hot loop transfers mid-run into compiled code via
// on-stack replacement (see osr.go).
func (r *repoState) invokeTiered(st *repo.FuncState, sig types.Signature, args []*mat.Value, nout int) ([]*mat.Value, error) {
	e := r.e
	// invoke already served compiled hits. Interpret-only lookup hits
	// (cached unsupported decisions) land here with the misses: the
	// interpreter serves them, and the profile keeps counting in case a
	// narrower profiled signature compiles where the widened one could
	// not.
	fn, gen := st.Fn, st.Gen
	sp := e.lib.profiles.Func(fn.Name, gen).Sig(widen(sig).Key())
	sp.Observe(sig)
	r.maybePromote(fn.Name, sp, gen, len(sig))

	fr := &interp.Frame{
		Fn:        fn,
		Nout:      nout,
		Host:      e,
		Gen:       gen,
		Threshold: int64(e.tierThreshold()),
		BackEdges: sp.BackEdgeCounter(),
		Prof:      sp,
	}
	depth := atomic.AddInt32(&r.callDepth, 1)
	var t0 time.Time
	if depth == 1 {
		t0 = time.Now()
	}
	outs, err := e.in.CallFunctionTiered(fn, args, nout, e.globals, fr)
	if depth == 1 {
		d := time.Since(t0)
		atomic.AddInt64(&e.timing.Exec, d.Nanoseconds())
		e.tracer.Span(telemetry.CatExec, fn.Name, e.id, t0, d)
	}
	atomic.AddInt32(&r.callDepth, -1)
	if err != nil {
		return nil, err
	}
	if len(outs) > nout {
		outs = outs[:nout]
	}
	return outs, nil
}

// maybePromote enqueues the background tier-up once a signature bucket
// crosses the hotness threshold. The compile signature is the join of
// every exact signature observed — strictly narrower than the widened
// lookup key, so ranges and shapes the workload never exceeds stay
// available to the optimizer — except on the final promotion round,
// which compiles the fully widened form so the entry stops churning.
func (r *repoState) maybePromote(name string, sp *profile.SigProfile, gen uint64, arity int) {
	e := r.e
	if !sp.ShouldPromote(int64(e.tierThreshold())) {
		return
	}
	csig := sp.Observed()
	if len(csig) == 0 {
		csig = topSignature(arity)
	}
	if sp.PromotionRound() >= profile.MaxPromotions-1 {
		csig = widen(csig)
	}
	job := func() error {
		if e.LookupFunction(name) == nil || r.r.Generation(name) != gen {
			sp.PromotionDone()
			return nil
		}
		if r.r.Covered(name, csig) {
			sp.PromotionDone()
			return nil
		}
		t0 := time.Now()
		c, err := e.compile(e.LookupFunction(name), csig, pipelineOpts{optimize: true})
		e.tracer.Span(telemetry.CatTierUp, name, e.id, t0, time.Since(t0))
		if err != nil {
			if _, unsupported := err.(*codegen.ErrUnsupported); unsupported {
				// Cache the decision so plain lookups stop missing, and
				// stop promoting this bucket.
				r.r.InsertAt(name, &repo.Entry{Sig: topSignature(arity), Quality: repo.QualityInterp}, gen)
			}
			sp.PromotionFailed()
			return nil
		}
		if r.r.InsertAt(name, c.entry(csig, repo.QualityOpt, false), gen) {
			e.lib.profiles.CountPromotion()
			e.lib.journal.Record(telemetry.Event{
				Kind:   telemetry.EventPromotion,
				Func:   name,
				Sig:    csig.Key(),
				Cause:  "hot-signature",
				Gen:    gen,
				Detail: fmt.Sprintf("entries=%d round=%d", sp.Entries(), sp.PromotionRound()+1),
			})
		}
		sp.PromotionDone()
		return nil
	}
	if e.lib.queue != nil {
		key := fmt.Sprintf("tier\x00%s\x00%s\x00%d", name, csig.Key(), gen)
		e.lib.queue.Do(key, job)
	} else {
		job()
	}
}

// maybeUpgrade recompiles a hot JIT entry with the optimizing backend,
// replacing the entry in the repository so every later lookup runs the
// better version (paper §2: "The generated code can later be
// recompiled (and replaced in the repository) using a better
// compiler"). The published entry is never mutated in place — a
// replacement entry is swapped in via Replace, which keeps concurrent
// executors of the old code safe and refuses to resurrect invalidated
// functions. In async mode the upgrade compiles on the worker pool.
func (r *repoState) maybeUpgrade(fn *ast.Function, entry *repo.Entry) {
	threshold := r.e.opts.RecompileThreshold
	if threshold <= 0 || entry.Quality != repo.QualityJIT || entry.Hits() < int64(threshold) {
		return
	}
	name := fn.Name
	if r.e.lib.queue != nil {
		gen := r.r.Generation(name)
		key := fmt.Sprintf("up\x00%s\x00%s\x00%d", name, entry.Sig.Key(), gen)
		r.e.lib.queue.Do(key, func() error {
			r.upgrade(name, entry)
			return nil
		})
		return
	}
	r.upgrade(name, entry)
}

func (r *repoState) upgrade(name string, entry *repo.Entry) {
	fn := r.e.LookupFunction(name)
	if fn == nil {
		return
	}
	c, err := r.e.compile(fn, entry.Sig, pipelineOpts{optimize: true})
	if err != nil {
		// Upgrade failure is harmless; keep the JIT code and stop trying
		// (the replacement carries QualityOpt so the threshold check
		// never fires again for this entry).
		c = &compiled{code: entry.Code, ret: entry.Ret, deps: entry.Deps}
	}
	r.r.Replace(name, entry, c.entry(entry.Sig, repo.QualityOpt, entry.Speculative))
}

// widen relaxes ranges (and, where bounds differ across calls, shapes
// would already differ in kind handling) so one compiled version covers
// a family of invocations.
func widen(sig types.Signature) types.Signature {
	out := make(types.Signature, len(sig))
	for i, t := range sig {
		t.R = types.RangeTop
		if !t.IsScalar() {
			// Non-scalar parameters widen their shape bounds too: the
			// same matrix-kind signature should serve all sizes.
			t.MinShape = types.ShapeBot
			t.MaxShape = types.ShapeTop
		}
		out[i] = t
	}
	return out
}

func topSignature(n int) types.Signature {
	sig := make(types.Signature, n)
	for i := range sig {
		sig[i] = types.Top
	}
	return sig
}
