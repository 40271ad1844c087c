package core

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/codegen"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mat"
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
// on the worker pool otherwise), every repository write is the one job
// body (publish), and what the caller does meanwhile is its missPolicy.
type repoState struct {
	e *Engine
	r *repo.Repository
	// parks and background are fixed from the engine's options — never
	// from whether the library happens to own a pool: what a caller does
	// on a miss, and whether this engine's jobs go to the pool at all.
	// An engine that parks (jit with Tiered) never compiles for a miss:
	// it parks a placeholder for the widened signature, which the call
	// and its successors interpret while the placeholder counts them
	// toward its replacement (upgradeCause). Every other engine waits for
	// its miss compile and runs the entry: the first caller pays the
	// compile once and concurrent callers coalesce on its ticket. A
	// synchronous engine's ticket is done when submit returns, so the
	// paper reproductions' inline compile is the degenerate case.
	parks      bool
	background bool
	// callDepth tracks nesting so execution time is only accumulated at
	// the outermost invocation (Figure 6 decomposition). It is atomic
	// because async mode allows concurrent callers; under concurrency
	// the "outermost" attribution becomes approximate (only the first
	// in-flight call times itself), which keeps the counter meaningful
	// without a per-goroutine side table.
	callDepth int32
}

func newRepoState(e *Engine) *repoState {
	parks := e.opts.Tiered && e.opts.Tier == TierJIT
	return &repoState{e: e, r: e.lib.repo, parks: parks, background: e.opts.AsyncCompile || parks}
}

// Repo exposes the repository (stats for the harness and majicc). With
// a shared Library this is the library's process-wide repository.
func (e *Engine) Repo() *repo.Repository { return e.repo.r }

// publish is the one job body behind every repository write of compiled
// code — speculative precompile, miss and the replacement of a hot
// entry: compile the body the caller resolved (st.Fn) for
// csig and publish at the generation it resolved (st.Gen), so a
// redefinition landing mid-compile drops the entry (InsertAt) instead of
// installing code for a dead body. With old set the entry replaces old
// (Replace), which only succeeds while old is still published, so it is
// generation-safe the same way. The entry is returned whether or not the
// repository took it: it is valid code for st.Fn and serves the
// invocation that asked for it. A nil entry and nil error mean there was
// nothing to do: the function was redefined while the job was queued, an
// entry serving csig landed meanwhile — a job under another key (the
// widened sibling, say) can cover it — or old is gone. fe is the front
// end the speculator ran, nil for every other compile.
func (r *repoState) publish(st *repo.FuncState, csig types.Signature, po pipelineOpts, speculative bool, old *repo.Entry, fe *frontEnd) (entry *repo.Entry, published bool, err error) {
	name := st.Fn.Name
	now := r.r.State(name)
	if now.Gen != st.Gen || old == nil && now.Covers(csig) || old != nil && !slices.Contains(now.Entries, old) {
		return nil, false, nil
	}
	c, err := r.e.compile(st.Fn, csig, po, fe, nil)
	switch _, unsupported := err.(*codegen.ErrUnsupported); {
	case unsupported && (speculative || old != nil):
		// A rejected guess says nothing about the runtime signature, and a
		// rejected replacement leaves the entry it was for serving.
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
	if old != nil {
		return entry, r.r.Replace(name, old, entry), nil
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
			if sig, fe, err := r.e.speculate(st.Fn, nil); err == nil {
				r.publish(st, sig, pipelineOpts{optimize: true}, true, nil, &fe)
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
// signature is on the miss path, which gets a copy. site is the calling
// instruction of compiled code (nil from the boxed side), where a hit is
// remembered.
func (r *repoState) invoke(st *repo.FuncState, args []vm.Operand, nout int, caller *vm.Frame, site *vm.CallSite) ([]vm.Operand, error) {
	var buf [sigBuf]types.Type
	sig := observedSig(buf[:0], args)
	entry := r.r.LookupIn(st, sig)
	switch {
	case entry == nil && !r.parks:
		return r.miss(st, append(types.Signature(nil), sig...), args, nout, caller)
	case entry == nil:
		entry = r.park(st, sig)
	case site != nil:
		r.remember(site, st, sig, args, entry)
	}
	if cause := r.upgradeCause(entry, sig, caller); cause != "" {
		if repl := r.specialise(st, entry, upgradeSig(entry, sig), cause); repl != nil {
			entry = repl
		}
	}
	return r.runEntry(entry, st, args, nout, caller)
}

// observedSig types the operands of a call as the function locator sees
// them, into buf (a longer argument list grows onto the heap): a boxed
// argument by its value, a scalar that arrives in a register as the box
// it replaces would be.
func observedSig(buf []types.Type, args []vm.Operand) types.Signature {
	sig := types.Signature(buf)
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
	return sig
}

// The journaled causes of a replacement: a placeholder whose calls made
// it hot, a speculative entry whose calls kept bringing narrower classes.
// One replaced because its return guard missed carries
// telemetry.CauseReturnGuard.
const (
	causeHotSignature    = "hot-signature"
	causeObservedClasses = "observed-classes"
)

// park is the miss of an engine that parks: it publishes a placeholder
// for the widened signature — no compile, so the first call of anything
// stays interpreter-fast — and returns the entry to run, the placeholder or
// one a concurrent caller published first. When a redefinition moved the
// generation the placeholder serves this one call unpublished.
func (r *repoState) park(st *repo.FuncState, sig types.Signature) *repo.Entry {
	p := &repo.Entry{Sig: widen(sig), Quality: repo.QualityInterp, Placeholder: true}
	if entry := r.r.Park(st.Fn.Name, p, st.Gen, sig); entry != nil {
		return entry
	}
	return p
}

// upgradeCause counts a call toward replacing entry, when a better
// compile would serve it better, and returns the cause to journal on the
// call that reaches DefaultTierThreshold ("" on every other call).
//
//   - A placeholder counts every call it serves.
//   - A speculative entry counts the calls from the boxed side that bring
//     some scalar in a lower class than it holds. A recursion's own calls
//     (caller != nil) would cross the threshold inside the first call.
//
// Nothing else counts. Compiled code that is not speculative is the best
// this function gets, and the other interpret-only entries are decisions
// (a compiler rejection, a retired return guard) that a retry would only
// repeat. The count is exact, so each entry submits one replacement.
func (r *repoState) upgradeCause(entry *repo.Entry, sig types.Signature, caller *vm.Frame) string {
	cause := causeHotSignature
	switch {
	case entry.Placeholder:
	case caller == nil && entry.Speculative && narrowerClass(entry.Sig, sig):
		cause = causeObservedClasses
	default:
		return ""
	}
	if entry.CountUpgrade() != DefaultTierThreshold {
		return ""
	}
	return cause
}

// upgradeSig is the signature old's replacement is compiled for, from the
// call that made it hot.
//
//   - A placeholder compiles the signature it was parked at. That is the
//     widened signature of its kind tuple, so every call it served is
//     safe under it, and the replacement takes its key: one compile per
//     kind tuple, the signature a JIT's second miss compiles.
//   - A speculative entry compiles the classes the call brought. Every
//     parameter it holds in a scalar register takes the observed class at
//     range ⊤ (widen), and the others keep the speculator's type. This is
//     Julia's bargain on top of the paper's speculation: specialise on
//     the types actually seen.
func upgradeSig(old *repo.Entry, sig types.Signature) types.Signature {
	if old.Placeholder {
		return slices.Clone(old.Sig)
	}
	csig := widen(sig)
	for i := range csig {
		if classRank(&old.Sig[i]) == 0 {
			csig[i] = old.Sig[i]
		}
	}
	return csig
}

// classRank orders the register classes codegen homes a scalar of type t
// in (codegen.ClassOf): int < real < complex. A boxed type ranks 0.
func classRank(t *types.Type) int {
	switch codegen.ClassOf(*t) {
	case ir.BankI:
		return 1
	case ir.BankF:
		return 2
	case ir.BankC:
		return 3
	}
	return 0
}

// narrowerClass reports whether some parameter that sig holds in a scalar
// register arrives, in observed, in a strictly lower class: an int where
// the entry expects a real, say. Boxed (⊤, array) parameters never count.
func narrowerClass(sig, observed types.Signature) bool {
	for i := range sig {
		if c := classRank(&sig[i]); c > 0 && classRank(&observed[i]) < c {
			return true
		}
	}
	return false
}

// specialise replaces old with an entry compiled at QualityOpt for csig:
// the one tier-up, whatever made old hot. The replacement takes old's
// place (publish with old): the function keeps one entry, with old's
// hits, and a call csig does not cover misses and is served like any
// other miss. The new entry is returned when the job ran on this
// goroutine and published; a background engine keeps old serving until
// the job lands, and gets nil.
func (r *repoState) specialise(st *repo.FuncState, old *repo.Entry, csig types.Signature, cause string) *repo.Entry {
	e := r.e
	name := st.Fn.Name
	var repl *repo.Entry
	_, pooled := e.lib.submit(r.background,
		func() string { return fmt.Sprintf("tier\x00%s\x00%s\x00%d", name, csig.Key(), st.Gen) },
		nil,
		func() error {
			t0 := time.Now()
			entry, published, err := r.publish(st, csig, pipelineOpts{optimize: true}, false, old, nil)
			if entry != nil || err != nil {
				e.tracer.Span(telemetry.CatTierUp, name, e.id, t0, time.Since(t0))
			}
			if published {
				e.lib.profiles.CountPromotion()
				e.lib.journal.Record(telemetry.Event{
					Kind:   telemetry.EventPromotion,
					Func:   name,
					Sig:    csig.Key(),
					Cause:  cause,
					Gen:    st.Gen,
					Detail: "replaces " + old.Sig.Key(),
				})
				repl = entry
			}
			return nil
		})
	if pooled {
		return nil
	}
	return repl
}

// miss serves a signature no entry covers: submit the compile, wait for
// it and run what it published. The compile signature is widened when
// the repository has already compiled this function for the same
// intrinsic kinds: without widening, recursive calls such as
// fibonacci(n-1) would compile one version per distinct constant
// argument.
func (r *repoState) miss(st *repo.FuncState, sig types.Signature, args []vm.Operand, nout int, caller *vm.Frame) ([]vm.Operand, error) {
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
			return r.runEntry(entry, st, args, nout, caller)
		}
	}
	csig := sig
	if st.SameKinds(sig) {
		csig = widen(sig)
	}
	var po pipelineOpts // TierJIT, and TierSpec's runtime fallback
	switch e.opts.Tier {
	case TierMCC:
		// Generic batch compilation: every parameter typed ⊤.
		csig = topSignature(len(sig))
		po = pipelineOpts{generic: true}
	case TierFalcon:
		po = pipelineOpts{optimize: true}
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
			mine, _, err = r.publish(st, csig, po, false, nil, nil)
			return err
		})

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
	entry := mine
	if entry == nil {
		// Another caller's job, or a sibling key's, compiled it.
		entry = r.r.Lookup(name, sig)
	}
	if entry == nil {
		// The job found the generation moved: interpret this one call
		// with the function the caller resolved (the next call recompiles
		// fresh). The entry is transient — never inserted — so the
		// repository keeps exactly one (compiled) entry per key.
		entry = &repo.Entry{Quality: repo.QualityInterp}
	}
	return r.runEntry(entry, st, args, nout, caller)
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

// runEntry executes one invocation through entry, an entry of st:
// compiled code on the VM, or the interpreter for an interpret-only
// entry, which on a tiered engine runs with a Frame so its hot loops can
// transfer into compiled code (osr.go). A compiled activation whose
// return-type guard misses (vm.ErrGuardMiss) is abandoned and the call
// re-run in the interpreter — invisible, because only replay-safe
// functions are compiled with guards. A speculative entry is then
// replaced by one compiled for the classes this call brought
// (specialise); any other is retired in favour of an interpret-only one,
// so later calls skip the detour until a redefinition clears the slate.
// The interpreter is on the boxed side of the call boundary: its
// arguments are boxed here.
func (r *repoState) runEntry(entry *repo.Entry, st *repo.FuncState, args []vm.Operand, nout int, caller *vm.Frame) ([]vm.Operand, error) {
	t0 := r.enter()
	var outs []vm.Operand
	var err error
	if entry.Quality != repo.QualityInterp {
		outs, err = vm.Run(entry.Code, r.e, args, caller)
	}
	if entry.Quality == repo.QualityInterp || err == vm.ErrGuardMiss {
		outs, err = r.interpret(entry, st, args, nout, err == vm.ErrGuardMiss)
	}
	return r.leave(st.Fn.Name, t0, nout, outs, err)
}

// interpret runs the call through the interpreter, for an interpret-only
// entry or, when missed, for compiled code whose return guard missed:
// that entry is journaled and then replaced (runEntry).
func (r *repoState) interpret(entry *repo.Entry, st *repo.FuncState, args []vm.Operand, nout int, missed bool) ([]vm.Operand, error) {
	e, fn := r.e, st.Fn
	if missed {
		e.lib.journal.Record(telemetry.Event{
			Kind:  telemetry.EventDeopt,
			Func:  fn.Name,
			Sig:   entry.Sig.Key(),
			Cause: telemetry.CauseReturnGuard,
		})
		if entry.Speculative {
			var buf [sigBuf]types.Type
			r.specialise(st, entry, upgradeSig(entry, observedSig(buf[:0], args)), telemetry.CauseReturnGuard)
		} else {
			r.r.Replace(fn.Name, entry, &repo.Entry{Sig: entry.Sig, Quality: repo.QualityInterp})
		}
	}
	var fr *interp.Frame
	if r.parks && entry.Quality == repo.QualityInterp {
		fr = &interp.Frame{Fn: fn, Nout: nout, Host: e, Gen: st.Gen, Threshold: DefaultTierThreshold, Entry: entry}
	}
	var buf [sigBuf]*mat.Value
	vals, err := e.in.CallFunction(fn, vm.BoxAll(buf[:0], args), nout, e.globals, fr)
	if fr != nil {
		e.lib.profiles.CountActivation(fr.BackEdges())
	}
	return vm.Boxed(nil, vals), err
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
