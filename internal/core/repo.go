package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/codegen"
	"repro/internal/interp"
	"repro/internal/ir"
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
// safe compiled code by type-signature matching, and a miss compiles and
// publishes (or, in speculative mode, usually hits ahead-of-time
// compiled code).
//
// There is one miss pipeline, submit → job → wait: every compile goes
// through Library.submit (inline for a synchronous engine, single-flight
// on the worker pool otherwise), every repository insert is the one job
// body (publish), and what the caller does meanwhile is its missPolicy.
type repoState struct {
	e *Engine
	r *repo.Repository
	// policy and background are fixed from the engine's options — never
	// from whether the library happens to own a pool: what a caller does on
	// a miss, and whether this engine's jobs go to the pool at all.
	policy     missPolicy
	background bool
	// callDepth tracks nesting so execution time is only accumulated at
	// the outermost invocation (Figure 6 decomposition). It is atomic
	// because async mode allows concurrent callers; under concurrency
	// the "outermost" attribution becomes approximate (only the first
	// in-flight call times itself), which keeps the counter meaningful
	// without a per-goroutine side table.
	callDepth int32
}

// missPolicy is what a caller does while the compile for its miss runs.
type missPolicy uint8

const (
	// waitCompiled (jit, mcc, falcon; spec without AsyncCompile) promises
	// compiled execution: block on the ticket, run the entry. The first
	// caller pays the compile once and concurrent callers coalesce on its
	// ticket. A synchronous engine's ticket is done when submit returns,
	// so the paper reproductions' inline compile is the degenerate case.
	waitCompiled missPolicy = iota
	// neverBlock (spec with AsyncCompile) runs compiled code if the ticket
	// is already done and interprets this one invocation otherwise — the
	// paper's Figure 6 responsiveness story: speculative mode trades
	// first-call speed for zero perceived compile pauses.
	neverBlock
	// interpretProfiled (jit with Tiered) never compiles for a miss: the
	// call interprets while feeding the hotness profile (invokeProfiled).
	interpretProfiled
)

func newRepoState(e *Engine) *repoState {
	r := &repoState{e: e, r: e.lib.repo}
	switch o := e.opts; {
	case o.Tiered && o.Tier == TierJIT:
		r.policy = interpretProfiled
	case o.AsyncCompile && o.Tier == TierSpec:
		r.policy = neverBlock
	}
	r.background = e.opts.AsyncCompile || r.policy == interpretProfiled
	return r
}

// Repo exposes the repository (stats for the harness and majicc). With
// a shared Library this is the library's process-wide repository.
func (e *Engine) Repo() *repo.Repository { return e.repo.r }

// publish is the one job body behind every repository insert —
// speculative precompile, miss and tier-up promotion: compile the body
// the caller resolved (st.Fn) for csig and publish at the generation it
// resolved (st.Gen), so a redefinition landing mid-compile drops the
// entry (InsertAt) instead of installing code for a dead body. The entry
// is returned whether or not the repository took it: it is valid code
// for st.Fn and serves the invocation that asked for it. A nil entry and
// nil error mean there was nothing to do: the function was redefined
// while the job was queued, or an entry serving csig landed meanwhile —
// a job under another key (the widened sibling, say) can cover it.
func (r *repoState) publish(st *repo.FuncState, csig types.Signature, po pipelineOpts, speculative bool) (entry *repo.Entry, published bool, err error) {
	name := st.Fn.Name
	if now := r.r.State(name); now.Gen != st.Gen || now.Covers(csig) {
		return nil, false, nil
	}
	c, err := r.e.compile(st.Fn, csig, po)
	switch _, unsupported := err.(*codegen.ErrUnsupported); {
	case unsupported && speculative:
		// A rejected guess says nothing about the runtime signature.
		return nil, false, nil
	case unsupported:
		// Defer to runtime, like MaJIC does for ambiguous symbols, and
		// cache the decision as an interpret-only entry.
		entry = &repo.Entry{Sig: topSignature(len(csig)), Quality: repo.QualityInterp}
	case err != nil:
		return nil, false, err
	case po.optimize:
		entry = c.entry(csig, repo.QualityOpt, speculative)
	default:
		entry = c.entry(csig, repo.QualityJIT, speculative)
	}
	return entry, r.r.InsertAt(name, entry, st.Gen), nil
}

// precompile performs the speculative ahead-of-time compilation the
// repository does while "snooping the source code directories" — on the
// worker pool under AsyncCompile, the paper's behind-the-scenes story,
// with one job per source generation. A failed speculation or compile is
// not an error: the JIT covers the function at run time.
func (r *repoState) precompile(st *repo.FuncState) {
	r.e.lib.submit(r.background,
		func() string { return fmt.Sprintf("spec\x00%s\x00%d", st.Fn.Name, st.Gen) },
		nil,
		func() error {
			if sig, err := r.e.speculate(st.Fn); err == nil {
				r.publish(st, sig, pipelineOpts{optimize: true}, true)
			}
			return nil
		})
}

// sigBuf is the stack room invoke reserves for an invocation signature;
// calls with more arguments fall back to a heap signature.
const sigBuf = 6

// invoke is the function locator's hit path, the layer every call
// crosses — Engine.Call, compiled code's OpCallUser and the daemon's
// evals alike. st is the callee's state as loaded once by the caller:
// definition, generation and entries from the same instant. A hit takes
// no lock and allocates nothing here (the signature lives in this
// frame, read off the operands: a scalar that arrives in a register is
// typed as the box it replaces would be); everything that retains the
// signature is on the miss path, which gets a copy.
func (r *repoState) invoke(st *repo.FuncState, args []vm.Operand, nout int, caller *vm.Frame) ([]vm.Operand, error) {
	var buf [sigBuf]types.Type
	sig := types.Signature(buf[:0]) // a longer argument list grows onto the heap
	for i := range args {
		switch a := &args[i]; {
		case a.V != nil:
			sig = append(sig, types.OfValue(a.V))
		case a.Bank == ir.BankI:
			sig = append(sig, types.OfScalar(mat.Int, float64(a.I)))
		default:
			sig = append(sig, types.OfScalar(mat.Real, a.F))
		}
	}
	entry := r.r.LookupIn(st, sig)
	// The profiled policy serves an interpret-only hit (a cached
	// unsupported decision) like a miss: the interpreter runs it either
	// way, and the profile keeps counting in case a narrower profiled
	// signature compiles where the widened one could not.
	if entry != nil && (entry.Code != nil || r.policy != interpretProfiled) {
		return r.runEntry(entry, st.Fn, args, nout, caller)
	}
	return r.miss(st, append(types.Signature(nil), sig...), args, nout, caller)
}

// miss serves a signature no entry covers: submit the compile, then do
// what the engine's policy says. The compile signature is widened when
// the repository has already compiled this function for the same
// intrinsic kinds: without widening, recursive calls such as
// fibonacci(n-1) would compile one version per distinct constant
// argument.
func (r *repoState) miss(st *repo.FuncState, sig types.Signature, args []vm.Operand, nout int, caller *vm.Frame) ([]vm.Operand, error) {
	e := r.e
	if r.policy == interpretProfiled {
		return r.invokeProfiled(st, sig, args, nout)
	}
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

	// Single flight only spans a job's lifetime: a caller descheduled
	// between its miss and this submit may arrive after the job for its
	// key has published and retired. The landed check, made under the
	// pool's lock, sees that entry and submits nothing.
	name := st.Fn.Name
	var mine *repo.Entry // what this caller's own job compiled; read only once the ticket is done
	ticket, pooled := e.lib.submit(r.background,
		func() string { return fmt.Sprintf("jit\x00%s\x00%s\x00%d", name, csig.Key(), st.Gen) },
		func() bool { return r.r.Covered(name, csig) },
		func() (err error) {
			mine, _, err = r.publish(st, csig, po, false)
			return err
		})

	var entry *repo.Entry
	if r.policy == waitCompiled || ticket.TryDone() {
		var tw time.Time
		if pooled && e.tracer != nil {
			tw = time.Now()
		}
		err := ticket.Wait()
		if !tw.IsZero() {
			// Queue-wait span: how long this caller blocked on the compile
			// ticket (zero when the job already landed).
			e.tracer.Span(telemetry.CatQueue, name, e.id, tw, time.Since(tw))
		}
		if err != nil {
			return nil, err
		}
		if entry = mine; entry == nil {
			// Another caller's job, or a sibling key's, compiled it.
			entry = r.r.Lookup(name, sig)
		}
	}
	if entry == nil {
		// Interpret this one call with the function the caller resolved:
		// the never-blocking policy while its job is in flight, and any
		// caller whose job found the generation moved (the next call
		// recompiles fresh). The entry is transient — never inserted — so
		// the repository keeps exactly one (compiled) entry per key.
		entry = &repo.Entry{Quality: repo.QualityInterp}
	}
	return r.runEntry(entry, st.Fn, args, nout, caller)
}

// enter opens one invocation's execution accounting: only the outermost
// activation (depth 1) is timed. leave closes it.
func (r *repoState) enter() (t0 time.Time) {
	if atomic.AddInt32(&r.callDepth, 1) == 1 {
		t0 = time.Now()
	}
	return t0
}

// leave is the epilogue every execution path shares: charge the
// outermost activation's wall time to PhaseTimes.Exec (and its trace
// span), and trim the outputs to what the caller asked for.
func (r *repoState) leave(name string, t0 time.Time, nout int, outs []vm.Operand, err error) ([]vm.Operand, error) {
	if !t0.IsZero() {
		d := time.Since(t0)
		atomic.AddInt64(&r.e.timing.Exec, d.Nanoseconds())
		r.e.tracer.Span(telemetry.CatExec, name, r.e.id, t0, d)
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

// runEntry executes one invocation through entry: compiled code on the
// VM, or the interpreter for an interpret-only entry. A compiled
// activation whose return-type guard misses (vm.ErrGuardMiss) is
// abandoned and the call re-run in the interpreter — invisible, because
// only replay-safe functions are compiled with guards — and the entry is
// retired in favour of an interpret-only one so later calls skip the
// detour until a redefinition clears the slate. The interpreter is on
// the boxed side of the call boundary: its arguments are boxed here.
func (r *repoState) runEntry(entry *repo.Entry, fn *ast.Function, args []vm.Operand, nout int, caller *vm.Frame) ([]vm.Operand, error) {
	t0 := r.enter()
	var outs []vm.Operand
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
		var buf [sigBuf]*mat.Value
		var vals []*mat.Value
		vals, err = r.e.in.CallFunction(fn, vm.BoxAll(buf[:0], args), nout, r.e.globals)
		outs = vm.Boxed(nil, vals)
	}
	return r.leave(fn.Name, t0, nout, outs, err)
}

// invokeProfiled is the interpretProfiled policy (Options.Tiered,
// TierJIT only). A repository miss never compiles on the caller's
// goroutine, so first-eval latency stays interpreter-fast, while every
// call feeds the hotness profile for its (function, widened signature)
// bucket. A bucket that crosses the threshold submits a background
// recompile at QualityOpt with the profile-narrowed joined signature
// (maybePromote), and the published entry serves all later calls —
// tier-up is the one mechanism that replaces code with better code.
// While a call is still interpreting, the activation carries a tiered
// Frame: loop back-edges count toward the same bucket, and a hot loop
// transfers mid-run into compiled code via on-stack replacement (see
// osr.go).
func (r *repoState) invokeProfiled(st *repo.FuncState, sig types.Signature, args []vm.Operand, nout int) ([]vm.Operand, error) {
	e := r.e
	fn, gen := st.Fn, st.Gen
	sp := e.lib.profiles.Func(fn.Name, gen).Sig(widen(sig).Key())
	sp.Observe(sig)
	r.maybePromote(st, sp, len(sig))

	fr := &interp.Frame{
		Fn:        fn,
		Nout:      nout,
		Host:      e,
		Gen:       gen,
		Threshold: int64(e.tierThreshold()),
		BackEdges: sp.BackEdgeCounter(),
		Prof:      sp,
	}
	t0 := r.enter()
	var buf [sigBuf]*mat.Value
	vals, err := e.in.CallFunctionTiered(fn, vm.BoxAll(buf[:0], args), nout, e.globals, fr)
	return r.leave(fn.Name, t0, nout, vm.Boxed(nil, vals), err)
}

// maybePromote submits the background tier-up once a signature bucket
// crosses the hotness threshold: the shared job body plus the profile
// and journal bookkeeping. The compile signature is the join of every
// exact signature observed — strictly narrower than the widened lookup
// key, so ranges and shapes the workload never exceeds stay available to
// the optimizer — except on the final promotion round, which compiles
// the fully widened form so the entry stops churning.
func (r *repoState) maybePromote(st *repo.FuncState, sp *profile.SigProfile, arity int) {
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
	name := st.Fn.Name
	e.lib.submit(r.background,
		func() string { return fmt.Sprintf("tier\x00%s\x00%s\x00%d", name, csig.Key(), st.Gen) },
		nil,
		func() error {
			t0 := time.Now()
			entry, published, err := r.publish(st, csig, pipelineOpts{optimize: true}, false)
			if entry != nil || err != nil {
				e.tracer.Span(telemetry.CatTierUp, name, e.id, t0, time.Since(t0))
			}
			if err != nil || (entry != nil && entry.Quality == repo.QualityInterp) {
				// A compiler rejection has cached its interpret-only
				// decision, so plain lookups stop missing; either way, stop
				// promoting this bucket.
				sp.PromotionFailed()
				return nil
			}
			if published {
				e.lib.profiles.CountPromotion()
				e.lib.journal.Record(telemetry.Event{
					Kind:   telemetry.EventPromotion,
					Func:   name,
					Sig:    csig.Key(),
					Cause:  "hot-signature",
					Gen:    st.Gen,
					Detail: fmt.Sprintf("entries=%d round=%d", sp.Entries(), sp.PromotionRound()+1),
				})
			}
			sp.PromotionDone()
			return nil
		})
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
