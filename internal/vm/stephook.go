package vm

import (
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/mat"
)

// StepHook observes an activation after an instruction that wrote a V
// register (no other instruction can change which register owns which
// value): p.Ins[pc] is that instruction, regs the V bank (registers,
// then spill slots), args the activation's boxed arguments (nil where
// the argument arrived in a register).
type StepHook func(p *ir.Prog, pc int, regs, args []*mat.Value)

// stepHook is test instrumentation: internal/vm/vmtest checks the
// single-owner invariant through it. The dispatch loop carries no test
// for it (one per instruction cost steady-scalar 3 %; so did a call from
// the boxed instructions alone). Instead Prepare, while a hook is
// installed, follows every V-writing instruction with an OpVCheck, and
// only that instruction looks at the hook. Install the hook before the
// programs of interest are compiled.
var stepHook atomic.Pointer[StepHook]

// SetStepHook installs h for programs prepared from now on; nil removes
// it (programs prepared meanwhile keep their checks, which then do
// nothing).
func SetStepHook(h StepHook) {
	if h == nil {
		stepHook.Store(nil)
		return
	}
	stepHook.Store(&h)
}

// runStepHook executes an OpVCheck. Out of line: the dispatch loop's
// code should not depend on what a test hook needs.
//
//go:noinline
func (fr *Frame) runStepHook(p *ir.Prog, pc int, args []Operand) {
	if h := stepHook.Load(); h != nil {
		boxed := make([]*mat.Value, len(args))
		for i := range args {
			boxed[i] = args[i].V
		}
		(*h)(p, pc, fr.v[:p.NumV+p.SlotsV], boxed)
	}
}

// writesV reports whether op assigns a V register or spill slot.
func writesV(op ir.Op) bool {
	switch op {
	case ir.OpVMov, ir.OpVMovSwap, ir.OpVClone, ir.OpBoxF, ir.OpBoxI, ir.OpBoxC,
		ir.OpVNewZeros, ir.OpVEnsure, ir.OpVEnsureOwn, ir.OpVConst,
		ir.OpGBin, ir.OpGUn, ir.OpGIndex, ir.OpGAssign, ir.OpGColon, ir.OpGCat,
		ir.OpGBuiltin, ir.OpCallUser, ir.OpGEMV, ir.OpVFused, ir.OpVLdSlot, ir.OpVStSlot:
		return true
	}
	return false
}

// withStepChecks returns a copy of p with an OpVCheck after every
// V-writing instruction, jump targets moved along. A jump to the
// instruction after a write lands past that write's check: it did not
// execute the write.
func withStepChecks(p *ir.Prog) *ir.Prog {
	remap := make([]int32, len(p.Ins)+1)
	out := make([]ir.Instr, 0, 2*len(p.Ins))
	for pos, in := range p.Ins {
		remap[pos] = int32(len(out))
		out = append(out, in)
		if writesV(in.Op) {
			out = append(out, ir.Instr{Op: ir.OpVCheck})
		}
	}
	remap[len(p.Ins)] = int32(len(out))
	for i := range out {
		switch in := &out[i]; {
		case in.Op == ir.OpJmp:
			in.A = remap[in.A]
		case in.Op >= ir.OpBrTrueF && in.Op <= ir.OpBrINe:
			in.C = remap[in.C]
		}
	}
	q := *p
	q.Ins = out
	return &q
}
