package core

// On-stack replacement: the engine side of the tiering pipeline's
// mid-loop transfer. A hot interpreter loop (detected by the back-edge
// counters in internal/interp) asks the engine for a compiled
// continuation; the engine synthesizes one — a function whose body is
// the remainder of the activation from the loop safepoint — compiles it
// in the background at QualityOpt, and on a later back-edge
// materializes the interpreter frame into VM registers and resumes in
// compiled code. Every transfer is guarded: the repository generation
// must not have moved (redefinition deopts), every compiled-in live
// variable must still be bound, and the live values must satisfy the
// compiled signature (a range violation deopts). A deopt simply keeps
// interpreting — never a wrong answer.
//
// Frame mapping. The continuation's formals are the activation's live
// variable names in sorted order, so "materializing the frame" is
// nothing more than an argument list built by environment lookup;
// vm.Run's ordinary parameter binding then scatters the values into
// F/I/C/V registers per the register allocator's decisions. The transfer
// is on the boxed side of the call boundary in both directions: boxed
// values in, and whatever the continuation returns in a register boxed
// on the way back to the interpreter.
//
// Counted loops re-derive the loop variable instead of resuming a
// float range mid-stream: the continuation
//
//	for __osr_iv = __osr_iv0 : __osr_n
//	    v = __osr_lo + __osr_iv .* __osr_step;
//	    <original body>
//	end
//	<rest of the function>
//
// computes v = lo + k*step with an exact integer induction variable —
// the same expression, in the same evaluation order, as both the
// interpreter's range fast path and the code generator's forRange
// lowering, so a run that transfers mid-loop is bit-identical to one
// that never does. (Resuming a synthesized range lo+k*step : step : hi
// would not be: (lo+k*step)+j*step differs from lo+(k+j)*step in
// floating point.)

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/mat"
	"repro/internal/profile"
	"repro/internal/repo"
	"repro/internal/telemetry"
	"repro/internal/types"
	"repro/internal/vm"
)

// Synthetic parameter names for counted-loop continuations. User code
// whose frame contains names with this prefix never transfers.
const (
	osrPrefix = "__osr_"
	osrIv     = "__osr_iv"
	osrIv0    = "__osr_iv0"
	osrN      = "__osr_n"
	osrLo     = "__osr_lo"
	osrStep   = "__osr_step"
)

// osrDeoptBudget bounds guarded-transfer failures per site: past it the
// site recompiles once against the current frame shape, and past that
// it stops trying.
const osrDeoptBudget = 16

var _ interp.OSRHost = (*Engine)(nil)

// TryOSR implements interp.OSRHost: the interpreter offers a hot
// activation at a loop back-edge safepoint.
func (e *Engine) TryOSR(fr *interp.Frame, loop ast.Stmt, env *interp.Env, fs *interp.ForOSR) ([]*mat.Value, interp.OSRResult, error) {
	entry, ok := fr.Entry.(*repo.Entry)
	if !ok {
		return nil, interp.OSRNever, nil
	}
	st := profile.Site(entry.OSRSites(), loop)
	if st.Failed.Load() {
		return nil, interp.OSRNever, nil
	}
	if entry := st.Entry(); entry != nil {
		return e.repo.osrTransfer(fr, st, entry, env, fs)
	}
	if st.Requested.CompareAndSwap(false, true) {
		if !e.repo.requestOSR(fr, loop, st, env, fs) {
			st.Failed.Store(true)
			return nil, interp.OSRNever, nil
		}
	}
	return nil, interp.OSRNo, nil
}

// requestOSR checks a loop site's eligibility and submits the
// background continuation compile. It returns false when the site can
// never transfer (the caller latches Failed).
func (r *repoState) requestOSR(fr *interp.Frame, loop ast.Stmt, st *profile.OSRState, env *interp.Env, fs *interp.ForOSR) bool {
	e := r.e
	fn := fr.Fn
	// Eligibility: the loop must be a direct child of the function body
	// (the continuation is simply the body's tail), and the frame must
	// not touch the global workspace (compiled code has none).
	idx := -1
	for i, s := range fn.Body {
		if s == loop {
			idx = i
			break
		}
	}
	if idx < 0 || env.HasGlobals() {
		return false
	}
	live := env.LiveVars()
	for _, n := range live {
		if strings.HasPrefix(n, osrPrefix) {
			return false
		}
	}

	// The interpreter offers a counted for loop with its induction state
	// and a while loop without; no other loop offers.
	synth := synthWhileContinuation(fn, idx, live)
	params := append([]string(nil), live...)
	if fs != nil {
		synth = synthForContinuation(fn, loop.(*ast.For), idx, live)
		params = append(params, osrIv0, osrN, osrLo, osrStep)
	}

	// The compile signature is the widened frame signature: ranges and
	// non-scalar shapes open, so one continuation serves every later
	// activation of the same kind tuple (transfer points vary, so exact
	// ranges would deopt constantly). Every live name is bound here, and
	// none globally (HasGlobals above).
	vals := make([]*mat.Value, 0, len(live))
	for _, n := range live {
		v, _ := env.Lookup(n)
		vals = append(vals, v)
	}
	sig := widen(types.SignatureOf(vals))
	if fs != nil {
		sig = append(sig, intScalarType(), intScalarType(), realScalarType(), realScalarType())
	}

	name := fn.Name
	gen := fr.Gen
	e.lib.profiles.CountOSRRequest()
	job := func() error {
		if r.r.Generation(name) != gen {
			// Redefined while queued: the continuation would belong to
			// a dead body.
			st.Failed.Store(true)
			return nil
		}
		t0 := time.Now()
		c, err := e.compile(synth, sig, pipelineOpts{optimize: true, boxedCalls: true}, nil, nil)
		e.tracer.Span(telemetry.CatOSR, name+" compile", e.id, t0, time.Since(t0))
		if err != nil {
			st.Failed.Store(true)
			return nil
		}
		st.Publish(&profile.OSREntry{Params: params, Sig: sig, Code: c.code, Deps: c.deps, Gen: gen})
		e.lib.profiles.CountOSRCompile()
		e.lib.journal.Record(telemetry.Event{
			Kind:   telemetry.EventOSRCompile,
			Func:   name,
			Sig:    sig.Key(),
			Cause:  "hot-loop",
			Gen:    gen,
			Detail: fmt.Sprintf("loop=%d live=%d", idx, len(live)),
		})
		return nil
	}
	e.lib.submit(r.background,
		func() string { return fmt.Sprintf("osr\x00%s\x00%d\x00%d\x00%s", name, gen, idx, sig.Key()) },
		nil, job)
	return true
}

// osrTransfer attempts the guarded transfer into a published
// continuation. Guard failures deopt — the interpreter keeps running —
// and a deopt streak recompiles the site once before giving up on it.
func (r *repoState) osrTransfer(fr *interp.Frame, st *profile.OSRState, entry *profile.OSREntry, env *interp.Env, fs *interp.ForOSR) ([]*mat.Value, interp.OSRResult, error) {
	e := r.e
	deopt := func(cause profile.DeoptCause) ([]*mat.Value, interp.OSRResult, error) {
		e.lib.profiles.CountOSRDeopt(cause)
		e.lib.journal.Record(telemetry.Event{
			Kind:  telemetry.EventDeopt,
			Func:  fr.Fn.Name,
			Sig:   entry.Sig.Key(),
			Cause: cause.String(),
			Gen:   entry.Gen,
		})
		if st.Deopts.Add(1) >= osrDeoptBudget {
			if st.Recompiles.CompareAndSwap(0, 1) {
				// One fresh request against the current frame shape.
				st.Publish(nil)
				st.Deopts.Store(0)
				st.Requested.Store(false)
			} else {
				// The adaptive recompile was already spent and the site
				// still churns: give up on it for good.
				e.lib.profiles.CountDeoptBudgetExhausted()
				e.lib.journal.Record(telemetry.Event{
					Kind:   telemetry.EventDeopt,
					Func:   fr.Fn.Name,
					Sig:    entry.Sig.Key(),
					Cause:  telemetry.CauseBudgetExhausted,
					Gen:    entry.Gen,
					Detail: fmt.Sprintf("site abandoned after %d deopts", osrDeoptBudget),
				})
				st.Failed.Store(true)
				return nil, interp.OSRNever, nil
			}
		}
		return nil, interp.OSRNo, nil
	}

	// Generation guard: a redefinition (even mid-activation) deopts —
	// the continuation must never outlive its source.
	if entry.Gen != fr.Gen || r.r.Generation(fr.Fn.Name) != entry.Gen || !r.r.Current(entry.Deps) {
		return deopt(profile.DeoptGeneration)
	}

	// Materialize the frame: live values in compiled formal order. A
	// compiled-in name that is no longer bound deopts — except the
	// counted loop's own variable, whose value at this safepoint is by
	// definition lo + k*step (the continuation rebinds it before the
	// body runs either way).
	nlive := len(entry.Params)
	if fs != nil {
		nlive -= 4
	}
	vals := make([]*mat.Value, 0, len(entry.Params))
	for _, n := range entry.Params[:nlive] {
		v, ok := env.Lookup(n)
		if !ok {
			if fs != nil && n == fs.Var {
				v = mat.Scalar(fs.Lo + float64(fs.K)*fs.Step)
			} else {
				return deopt(profile.DeoptBinding)
			}
		}
		vals = append(vals, v)
	}
	if fs != nil {
		vals = append(vals,
			mat.IntScalar(float64(fs.K)), mat.IntScalar(float64(fs.N)),
			mat.Scalar(fs.Lo), mat.Scalar(fs.Step))
	}

	// Range/shape guard: every live value must satisfy the compiled
	// assumptions, or the transfer would compute with the wrong
	// specialization.
	if !entry.Sig.Safe(types.SignatureOf(vals)) {
		return deopt(profile.DeoptRange)
	}

	var t0 time.Time
	if e.tracer != nil {
		t0 = time.Now()
	}
	outs, err := vm.Run(entry.Code, e, vm.Boxed(nil, vals), nil)
	if e.tracer != nil {
		e.tracer.Span(telemetry.CatOSR, fr.Fn.Name+" transfer", e.id, t0, time.Since(t0))
	}
	if err != nil {
		// Not a deopt: the continuation may have performed side
		// effects, so re-interpreting could double them. The error is
		// the program's own (the same operation would fail interpreted
		// too — or it is a deadline kill, which must propagate). Rewrap
		// under the user's function name so the synthetic continuation
		// never leaks into error messages.
		if ve, ok := err.(*vm.Error); ok {
			ve.Fn = fr.Fn.Name
		}
		return nil, interp.OSRNo, err
	}
	e.lib.profiles.CountOSRTransfer()
	e.lib.journal.Record(telemetry.Event{
		Kind:  telemetry.EventOSRTransfer,
		Func:  fr.Fn.Name,
		Sig:   entry.Sig.Key(),
		Cause: "guards-passed",
		Gen:   entry.Gen,
	})
	return vm.BoxAll(nil, outs), interp.OSRDone, nil
}

// synthWhileContinuation builds the continuation for a while-loop
// safepoint: the safepoint sits at the loop header, so the continuation
// is simply the function body's tail starting at the loop — the
// compiled while re-evaluates the condition exactly where the
// interpreter stopped.
func synthWhileContinuation(fn *ast.Function, idx int, live []string) *ast.Function {
	return &ast.Function{
		P:    fn.P,
		Name: fn.Name + "__osr",
		Ins:  append([]string(nil), live...),
		Outs: fn.Outs,
		Body: fn.Body[idx:],
	}
}

// synthForContinuation builds the counted-loop continuation (see the
// package comment for the bit-identity argument).
func synthForContinuation(fn *ast.Function, x *ast.For, idx int, live []string) *ast.Function {
	p := x.P
	rebind := &ast.Assign{
		P:   p,
		LHS: []ast.Expr{&ast.Ident{P: p, Name: x.Var}},
		RHS: &ast.Binary{P: p, Op: ast.OpAdd,
			L: &ast.Ident{P: p, Name: osrLo},
			R: &ast.Binary{P: p, Op: ast.OpEMul,
				L: &ast.Ident{P: p, Name: osrIv},
				R: &ast.Ident{P: p, Name: osrStep}}},
	}
	loop := &ast.For{
		P:   p,
		Var: osrIv,
		Iter: &ast.Range{P: p,
			Lo:   &ast.Ident{P: p, Name: osrIv0},
			Step: &ast.NumberLit{P: p, Value: 1, IsInt: true},
			Hi:   &ast.Ident{P: p, Name: osrN}},
		Body: append([]ast.Stmt{ast.Stmt(rebind)}, x.Body...),
	}
	body := make([]ast.Stmt, 0, 1+len(fn.Body)-idx-1)
	body = append(body, loop)
	body = append(body, fn.Body[idx+1:]...)
	ins := append(append([]string(nil), live...), osrIv0, osrN, osrLo, osrStep)
	return &ast.Function{P: fn.P, Name: fn.Name + "__osr", Ins: ins, Outs: fn.Outs, Body: body}
}

func intScalarType() types.Type { return types.ScalarOf(types.IInt, types.RangeTop) }

func realScalarType() types.Type { return types.ScalarOf(types.IReal, types.RangeTop) }
