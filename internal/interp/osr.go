// Tiered-execution support: the interpreter's half of tiered
// recompilation with on-stack replacement. The engine attaches a Frame
// to a function activation; the loop safepoints that already poll the
// cancel flag then also count the activation's back-edges (no new work
// on untiered activations beyond a nil check), and a hot activation
// offers its host the chance to transfer mid-loop into compiled code.
package interp

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/mat"
)

// OSRResult is the host's answer to a transfer offer.
type OSRResult uint8

const (
	// OSRNo: no compiled continuation yet (or a guard failed); keep
	// interpreting and offer again at the next back-edge.
	OSRNo OSRResult = iota
	// OSRNever: this site can never transfer (nested loop, globals,
	// uncompilable continuation); stop offering it.
	OSRNever
	// OSRDone: the continuation ran to function return; outs are the
	// function's return values.
	OSRDone
)

// OSRHost is implemented by the engine when tiered execution is on.
type OSRHost interface {
	// TryOSR is offered a hot activation at a loop back-edge safepoint.
	// loop is the statement whose back-edge fired; env is the live
	// frame; forState is non-nil for counted-range for loops and
	// carries the induction state at the safepoint. On OSRDone the
	// returned values are the function's outputs (the continuation ran
	// to return) and the interpreter unwinds the activation.
	TryOSR(fr *Frame, loop ast.Stmt, env *Env, forState *ForOSR) ([]*mat.Value, OSRResult, error)
}

// ForOSR is the induction state of a counted-range for loop at a
// back-edge safepoint: the interpreter is about to run iteration K of
// `for Var = Lo : Step : Hi`, whose trip count is N+1 (K and N use the
// interpreter's own integer induction variable, so a continuation that
// re-derives Var as Lo + k*Step reproduces the interpreted values bit
// for bit).
type ForOSR struct {
	Var      string
	Lo, Step float64
	K, N     int
}

// Frame is the tiered state of one function activation. It is created
// by the engine per call and used by one goroutine.
type Frame struct {
	Fn   *ast.Function
	Nout int
	Host OSRHost
	// Gen is the repository generation the activation started under;
	// OSR entries compiled at another generation must not transfer in.
	Gen uint64
	// Threshold is the back-edge count after which the activation is
	// hot.
	Threshold int64
	// Entry is the repository entry the activation serves, carried
	// opaquely for the host: its OSR sites hang off it.
	Entry any

	count   int64
	denied  map[ast.Stmt]bool
	osrOuts []*mat.Value
}

// tick counts one back-edge and reports whether the activation is hot
// enough to offer the host a transfer at this loop.
func (fr *Frame) tick(loop ast.Stmt) bool {
	fr.count++
	return fr.Host != nil && fr.count >= fr.Threshold && !fr.denied[loop]
}

// BackEdges returns the loop back-edges the activation has run.
func (fr *Frame) BackEdges() int64 { return fr.count }

// deny stops further transfer offers for a loop this activation.
func (fr *Frame) deny(loop ast.Stmt) {
	if fr.denied == nil {
		fr.denied = make(map[ast.Stmt]bool)
	}
	fr.denied[loop] = true
}

// offer runs one transfer attempt and translates the host's answer
// into the interpreter's control signal.
func (fr *Frame) offer(loop ast.Stmt, env *Env, fs *ForOSR) (ctl, error) {
	outs, res, err := fr.Host.TryOSR(fr, loop, env, fs)
	if err != nil {
		return ctlNone, err
	}
	switch res {
	case OSRDone:
		fr.osrOuts = outs
		return ctlOSR, nil
	case OSRNever:
		fr.deny(loop)
	}
	return ctlNone, nil
}

// LiveVars returns the frame-local variable names, sorted — the OSR
// frame-materialization order.
func (e *Env) LiveVars() []string {
	out := make([]string, 0, len(e.vars))
	for n := range e.vars {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// HasGlobals reports whether any name in this frame is bound to the
// global workspace (such frames never transfer: compiled code has no
// global-workspace access).
func (e *Env) HasGlobals() bool {
	for _, g := range e.isGlob {
		if g {
			return true
		}
	}
	return false
}
