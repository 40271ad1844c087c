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

// BlockHook observes an activation entering a basic block: ins is the
// block, every instruction of which is about to run (an instruction that
// faults leaves the rest uncounted).
type BlockHook func(ins []ir.Instr)

// blockHook is test instrumentation built the way stepHook is: while one
// is installed, Prepare heads every basic block with an OpCount that
// carries the block's length, and only that instruction looks at the
// hook. internal/vm/vmtest counts dispatched instructions through it.
var blockHook atomic.Pointer[BlockHook]

// SetBlockHook installs h for programs prepared from now on; nil removes
// it.
func SetBlockHook(h BlockHook) {
	if h == nil {
		blockHook.Store(nil)
		return
	}
	blockHook.Store(&h)
}

// runBlockHook executes the OpCount at pc. Out of line, like runStepHook.
//
//go:noinline
func runBlockHook(p *ir.Prog, pc int) {
	if h := blockHook.Load(); h != nil {
		(*h)(p.Ins[pc+1 : pc+1+int(p.Ins[pc].A)])
	}
}

// writesV reports whether op assigns a V register or spill slot.
func writesV(op ir.Op) bool {
	switch op {
	case ir.OpVMov, ir.OpVMovSwap, ir.OpVClone, ir.OpBoxF, ir.OpBoxI, ir.OpBoxC,
		ir.OpVNewZeros, ir.OpVEnsure, ir.OpVConst,
		ir.OpFSt1, ir.OpFSt1I, ir.OpFSt1U, ir.OpFSt2, ir.OpFSt2I, ir.OpFSt2U, // a store clones a shared base
		ir.OpGBin, ir.OpGUn, ir.OpGIndex, ir.OpGAssign, ir.OpGColon, ir.OpGCat,
		ir.OpGBuiltin, ir.OpCallUser, ir.OpGEMV, ir.OpVFused, ir.OpVLdSlot, ir.OpVStSlot:
		return true
	}
	return false
}

// instrumented returns a copy of p with the installed hooks' probes,
// jump targets moved along: an OpVCheck after every V-writing
// instruction (checks), an OpCount in front of every basic block
// (blocks). A jump to the instruction after a write lands past that
// write's check — it did not execute the write — and on the count of the
// block it enters.
func instrumented(p *ir.Prog, checks, blocks bool) *ir.Prog {
	leader := make([]bool, len(p.Ins)+1)
	leader[0] = blocks
	for pos := range p.Ins {
		if t := p.Ins[pos].Target(); t != nil && blocks {
			leader[*t], leader[pos+1] = true, true
		} else if p.Ins[pos].Op == ir.OpRet {
			leader[pos+1] = blocks
		}
	}
	remap := make([]int32, len(p.Ins)+1)
	out := make([]ir.Instr, 0, 2*len(p.Ins))
	count := -1 // the OpCount of the block being copied
	for pos, in := range p.Ins {
		remap[pos] = int32(len(out))
		if leader[pos] {
			count = len(out)
			out = append(out, ir.Instr{Op: ir.OpCount})
		}
		out = append(out, in)
		if checks && writesV(in.Op) {
			out = append(out, ir.Instr{Op: ir.OpVCheck})
		}
		if count >= 0 {
			out[count].A = int32(len(out) - count - 1)
		}
	}
	remap[len(p.Ins)] = int32(len(out))
	for i := range out {
		if t := out[i].Target(); t != nil {
			*t = remap[*t]
		}
	}
	q := *p
	q.Ins = out
	return &q
}
