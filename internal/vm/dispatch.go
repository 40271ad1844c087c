package vm

import (
	"fmt"
	"math"
	"math/cmplx"
	"unsafe"

	"repro/internal/ast"
	"repro/internal/builtins"
	"repro/internal/cancel"
	"repro/internal/ir"
	"repro/internal/mat"
)

// Dispatch. An activation runs in two parts (DESIGN.md §19, "The dispatch
// loop"): loop, a leaf function that executes the scalar instruction set
// with its whole state in machine registers, and step (vm.go), which
// executes any one other instruction with the checked banks. exec drives
// them, and runs the call protocol (call, fetch.f, fetch.i) and ret
// itself, between runs of the loop.
//
// The loop addresses the register banks through their base pointers,
// without a length check: verify, run by Prepare, has proven every
// register operand of every instruction in range of its bank, every
// branch target inside the program, every math-function id inside its
// table, and the last instruction a ret or jmp, so that no pc runs past
// the end; it also holds every parameter, output and spill slot inside
// the banks that bind, ret and step index. Prepare sizes the call slots
// from the instructions that name them. Test instrumentation aside
// (vmtest), this is the one file that does pointer arithmetic.

// lastOp is the highest opcode the VM executes; verify rejects the rest
// (a snapshot can hold any 16-bit number).
const lastOp = ir.OpCount

// verify checks the invariants the loop and step take on trust, aux
// blocks included, through ir's own operand table. It allocates nothing
// unless it fails.
func verify(p *ir.Prog) error {
	if min(p.NumF, p.NumI, p.NumC, p.NumV, p.SlotsF, p.SlotsI, p.SlotsC) < 0 {
		return fmt.Errorf("vm: %s: negative bank size", p.Name)
	}
	n := len(p.Ins)
	if n == 0 || p.Ins[n-1].Op != ir.OpRet && p.Ins[n-1].Op != ir.OpJmp {
		return fmt.Errorf("vm: %s: control can fall off the end", p.Name)
	}
	regs := [...]int32{ir.BankF: p.NumF, ir.BankI: p.NumI, ir.BankC: p.NumC, ir.BankV: p.NumV}
	slots := [...]int32{ir.BankF: p.SlotsF, ir.BankI: p.SlotsI, ir.BankC: p.SlotsC, ir.BankV: 0}
	// bind writes each parameter into its register or spill slot, and ret
	// reads each output from its V register unless it is staged.
	for k, b := range p.Params {
		if int(b.Bank) >= len(regs) {
			return fmt.Errorf("vm: %s: parameter %d in bank %d", p.Name, k+1, b.Bank)
		}
		what, lim := "register", regs[b.Bank]
		if b.Slot {
			what, lim = "spill slot", slots[b.Bank]
		}
		if b.Reg < 0 || b.Reg >= lim {
			return fmt.Errorf("vm: %s: parameter %d in %v %s %d of %d", p.Name, k+1, b.Bank, what, b.Reg, lim)
		}
	}
	for k, r := range p.OutRegs {
		if r != ir.Staged && (r < 0 || r >= p.NumV) {
			return fmt.Errorf("vm: %s: output %d in V register %d outside its bank of %d", p.Name, k+1, r, p.NumV)
		}
	}
	var uses [3]ir.Operand
	for pc := range p.Ins {
		in := &p.Ins[pc]
		if in.Op > lastOp {
			return fmt.Errorf("vm: %s+%d: unknown opcode %d", p.Name, pc, in.Op)
		}
		if d, ok := in.Def(); ok && (*d.Reg < 0 || *d.Reg >= regs[d.Bank]) {
			return operandError(p, pc, d.Bank, *d.Reg, regs[d.Bank])
		}
		for _, u := range in.Uses(&uses) {
			if *u.Reg < 0 || *u.Reg >= regs[u.Bank] {
				return operandError(p, pc, u.Bank, *u.Reg, regs[u.Bank])
			}
		}
		if r, slot, ok := in.Spill(); ok {
			if *r.Reg < 0 || *r.Reg >= regs[r.Bank] {
				return operandError(p, pc, r.Bank, *r.Reg, regs[r.Bank])
			}
			if slot < 0 || slot >= slots[r.Bank] {
				return fmt.Errorf("vm: %s+%d: %v spill slot %d of %d", p.Name, pc, r.Bank, slot, slots[r.Bank])
			}
		}
		bad, outside := int32(0), false
		end, ok := in.VOperands(p.Aux, func(r int32, _ ir.Access) {
			if (r < 0 || r >= p.NumV) && !(r == ir.Staged && in.Op == ir.OpCallUser) {
				bad, outside = r, true
			}
		})
		if !ok {
			return fmt.Errorf("vm: %s+%d: aux block outside the %d words of aux", p.Name, pc, len(p.Aux))
		}
		if outside {
			return operandError(p, pc, ir.BankV, bad, p.NumV)
		}
		if t := in.Target(); t != nil && (*t < 0 || int(*t) >= n) {
			return fmt.Errorf("vm: %s+%d: branch to %d outside %d instructions", p.Name, pc, *t, n)
		}
		// The words that are no register: an index into a table of p or of
		// the frame, or a code the code generator emits.
		what, x, lim := "", int32(0), 0 // x must lie in [0, lim)
		switch in.Op {
		case ir.OpFMath, ir.OpCMath:
			what, x, lim = "math function", in.C, len(p.MathFns)
		case ir.OpGUn:
			what, x, lim = "unary operator", in.D, int(ir.UnCTrans)+1
		case ir.OpGBuiltin:
			what, x, lim = "builtin", p.Aux[in.A], len(p.Builtins)
		case ir.OpCallUser:
			what, x, lim = "user function", p.Aux[in.A], len(p.Calls)
		case ir.OpVConst:
			what, x, lim = "boxed constant", in.B, len(p.VPoolStrs)
		case ir.OpVFuseArgF:
			what, x, lim = "fuse slot", in.A, ir.MaxFuseOperands
		case ir.OpGEMV:
			what, x, lim = "transposed-operand flag", in.C, int(ir.GEMVConjTrans)+1
			if b := p.Aux[end-1]; in.Imm != 1 && in.Imm != -1 || b < -1 || b > 1 {
				return fmt.Errorf("vm: %s+%d: gemv coefficients α = %g, β = %d", p.Name, pc, in.Imm, b)
			}
		case ir.OpBrNCAbs:
			if !ast.BinOp(in.B).IsRelational() {
				return fmt.Errorf("vm: %s+%d: relation %d", p.Name, pc, in.B)
			}
		case ir.OpVFused:
			if !fusedOK(p, in, end) {
				return fmt.Errorf("vm: %s+%d: malformed fused kernel at aux %d", p.Name, pc, in.B)
			}
		}
		if what != "" && (x < 0 || int(x) >= lim) {
			return fmt.Errorf("vm: %s+%d: %s %d of %d", p.Name, pc, what, x, lim)
		}
		if in.Op == ir.OpCMath {
			if f, _ := builtins.Elementary(p.MathFns[in.C]); f.Complex == nil {
				return fmt.Errorf("vm: %s+%d: %q has no complex form", p.Name, pc, p.MathFns[in.C])
			}
		}
	}
	return nil
}

// fusedOK reports whether a fused kernel's micro-ops (ir.FuseLoadV) have
// known codes and operands in range, and whether its stack stays within
// 1..MaxFuseOperands values after each and ends holding the result.
func fusedOK(p *ir.Prog, in *ir.Instr, end int) bool {
	nv, code := p.Aux[in.B], ir.FuseCode(p.Aux, int(in.B), end)
	depth := 0
	for j := 0; j < len(code); j += 2 {
		switch op, arg := code[j], code[j+1]; {
		case op == ir.FuseLoadV && arg >= 0 && arg < nv,
			(op == ir.FuseLoadSF || op == ir.FuseLoadSI) && arg >= 0 && arg < ir.MaxFuseOperands:
			depth++
		case op == ir.FuseNeg, op == ir.FuseMath && arg >= 0 && int(arg) < len(p.MathFns):
		case op >= ir.FuseAdd && op <= ir.FusePow:
			depth--
		default:
			return false
		}
		if depth < 1 || depth > ir.MaxFuseOperands {
			return false
		}
	}
	return depth == 1 && nv <= ir.MaxFuseOperands && len(code) <= 2*ir.MaxFuseOps
}

func operandError(p *ir.Prog, pc int, b ir.Bank, r, n int32) error {
	return fmt.Errorf("vm: %s+%d: %v register %d outside its bank of %d", p.Name, pc, b, r, n)
}

// Register addressing: element r of the bank at base. Only the loop and
// exec use these, on operands Prepare has checked.

func regF(base *float64, r int32) *float64 {
	return (*float64)(unsafe.Add(unsafe.Pointer(base), int(r)*8))
}

func regI(base *int64, r int32) *int64 {
	return (*int64)(unsafe.Add(unsafe.Pointer(base), int(r)*8))
}

func regC(base *complex128, r int32) *complex128 {
	return (*complex128)(unsafe.Add(unsafe.Pointer(base), int(r)*16))
}

func regV(base **mat.Value, r int32) **mat.Value {
	return (**mat.Value)(unsafe.Add(unsafe.Pointer(base), int(r)*int(unsafe.Sizeof(base))))
}

func callSlot(base *Operand, k int32) *Operand {
	return (*Operand)(unsafe.Add(unsafe.Pointer(base), int(k)*int(unsafe.Sizeof(Operand{}))))
}

// instr is the instruction k after in.
func instr(in *ir.Instr, k int32) *ir.Instr {
	return (*ir.Instr)(unsafe.Add(unsafe.Pointer(in), int(k)*int(unsafe.Sizeof(*in))))
}

// pcOf is in's index in the program at ins.
func pcOf(ins, in *ir.Instr) int {
	return int((uintptr(unsafe.Pointer(in)) - uintptr(unsafe.Pointer(ins))) / unsafe.Sizeof(*in))
}

// after reports whether instruction x comes after y: a transfer to an
// instruction that does not is backward.
func after(x, y *ir.Instr) bool { return uintptr(unsafe.Pointer(x)) > uintptr(unsafe.Pointer(y)) }

// mathFn is entry k of the math-function table at base.
func mathFn(base *func(float64) float64, k int32) func(float64) float64 {
	return *(*func(float64) float64)(unsafe.Add(unsafe.Pointer(base), int(k)*int(unsafe.Sizeof(*base))))
}

// exec runs the activation on fr: it binds the arguments, then alternates
// between the loop and the instructions the loop stops at.
func (fr *Frame) exec(c *Compiled, host Host, args, dst []Operand) ([]Operand, error) {
	p := c.P
	fr.outsAt = int32(c.callSlots)
	if err := fr.bind(p, args); err != nil {
		return nil, err
	}

	// The host's cancel flag (nil when it has none) is polled at every
	// backward transfer, conditional or not (a while loop closes with a
	// jump to its test, a counted for loop with the test itself). Every
	// cycle in the code contains one, so a raised flag aborts
	// `while 1; end` and `for i = 1:1e12, end` within one trip.
	var cflag *cancel.Flag
	if c, ok := host.(cancel.Checker); ok {
		cflag = c.CancelFlag()
	}

	f, i, cb, v, ops := unsafe.SliceData(fr.f), unsafe.SliceData(fr.i), unsafe.SliceData(fr.c), unsafe.SliceData(fr.v), unsafe.SliceData(fr.ops)
	fns := unsafe.SliceData(c.mathFns)
	ins := p.Ins
	base := unsafe.SliceData(ins)
	pc := 0
	for {
		var interrupted bool
		pc, interrupted = loop(f, i, cb, v, ops, base, pc, fns, cflag)
		if interrupted {
			return nil, &Error{Fn: p.Name, PC: pc, Err: cancel.ErrInterrupted}
		}
		// Out of line until the next instruction that is not the call
		// protocol's: that one may be the loop's.
		for {
			in := &ins[pc]
			var err error
			switch in.Op {
			case ir.OpCallUser:
				err = userCall(c.site(pc), host, p.Aux, int(in.A), fr.v[:p.NumV], fr.ops[:c.callSlots], fr.ops[c.callSlots:], fr)
			case ir.OpFetchF:
				x, ok := callSlot(ops, fr.outsAt+in.B).fetchF()
				if !ok {
					return nil, ErrGuardMiss
				}
				*regF(f, in.A) = x
			case ir.OpFetchI:
				x, ok := callSlot(ops, fr.outsAt+in.B).fetchI()
				if !ok {
					return nil, ErrGuardMiss
				}
				*regI(i, in.A) = x
			case ir.OpRet:
				return fr.ret(c, dst), nil
			default:
				err = fr.step(c, host, args, in, pc)
			}
			if err != nil {
				return nil, &Error{Fn: p.Name, PC: pc, Err: err}
			}
			pc++
			if op := ins[pc].Op; op != ir.OpCallUser && op != ir.OpFetchF && op != ir.OpFetchI && op != ir.OpRet {
				break
			}
		}
	}
}

// loop executes ins from pc until an instruction it does not run, and
// returns that instruction's pc; interrupted when the cancel flag stopped
// it at a backward transfer (pc is then the transfer's). Its arguments
// are its whole live state, so that the dispatch keeps them in registers:
// the bank bases, the instructions, pc, the math-function table and the
// cancel flag. An instruction with a common case here (a checked load, a
// store, vensure) stops the loop when its operands miss that case, and
// step runs it in full.
func loop(f *float64, i *int64, c *complex128, v **mat.Value, ops *Operand, ins *ir.Instr, pc int, fns *func(float64) float64, cflag *cancel.Flag) (int, bool) {
	in := instr(ins, int32(pc))
	var target int32
	for {
		switch in.Op {
		case ir.OpNop:
		case ir.OpJmp:
			target = in.A
			goto taken

		case ir.OpBrTrueF:
			if *regF(f, in.A) != 0 {
				target = in.C
				goto taken
			}
		case ir.OpBrFalseF:
			if *regF(f, in.A) == 0 {
				target = in.C
				goto taken
			}
		case ir.OpBrFLt:
			if *regF(f, in.A) < *regF(f, in.B) {
				target = in.C
				goto taken
			}
		case ir.OpBrFLe:
			if *regF(f, in.A) <= *regF(f, in.B) {
				target = in.C
				goto taken
			}
		case ir.OpBrFEq:
			if *regF(f, in.A) == *regF(f, in.B) {
				target = in.C
				goto taken
			}
		case ir.OpBrFNe:
			if *regF(f, in.A) != *regF(f, in.B) {
				target = in.C
				goto taken
			}
		case ir.OpBrFNLt:
			if !(*regF(f, in.A) < *regF(f, in.B)) {
				target = in.C
				goto taken
			}
		case ir.OpBrFNLe:
			if !(*regF(f, in.A) <= *regF(f, in.B)) {
				target = in.C
				goto taken
			}
		case ir.OpBrILt:
			if *regI(i, in.A) < *regI(i, in.B) {
				target = in.C
				goto taken
			}
		case ir.OpBrILe:
			if *regI(i, in.A) <= *regI(i, in.B) {
				target = in.C
				goto taken
			}
		case ir.OpBrIEq:
			if *regI(i, in.A) == *regI(i, in.B) {
				target = in.C
				goto taken
			}
		case ir.OpBrINe:
			if *regI(i, in.A) != *regI(i, in.B) {
				target = in.C
				goto taken
			}

		// The instructions that call a function share one call site:
		// Go keeps no register across a call, so the loop's state spills
		// and reloads around that site alone.
		case ir.OpBrFalseV, ir.OpBrTrueV, ir.OpBrNCAbs, ir.OpFPow, ir.OpFMod, ir.OpFRem, ir.OpFMath, ir.OpCDiv, ir.OpCPow, ir.OpFPowC, ir.OpCAbs:
			var interrupted bool
			if in, interrupted = calling(in, ins, f, c, v, fns, cflag); interrupted {
				return pcOf(ins, in), true
			}
			continue

		case ir.OpFMov:
			*regF(f, in.A) = *regF(f, in.B)
		case ir.OpIMov:
			*regI(i, in.A) = *regI(i, in.B)
		case ir.OpCMov:
			*regC(c, in.A) = *regC(c, in.B)
		case ir.OpVMov:
			*regV(v, in.A) = *regV(v, in.B)
		case ir.OpVMovSwap:
			x, y := regV(v, in.A), regV(v, in.B)
			*x, *y = *y, *x
		case ir.OpItoF:
			*regF(f, in.A) = float64(*regI(i, in.B))
		case ir.OpFtoI:
			*regI(i, in.A) = int64(*regF(f, in.B))
		case ir.OpFtoC:
			*regC(c, in.A) = complex(*regF(f, in.B), 0)
		case ir.OpItoC:
			*regC(c, in.A) = complex(float64(*regI(i, in.B)), 0)

		case ir.OpFAdd:
			*regF(f, in.A) = *regF(f, in.B) + *regF(f, in.C)
		case ir.OpFSub:
			*regF(f, in.A) = *regF(f, in.B) - *regF(f, in.C)
		case ir.OpFMul:
			*regF(f, in.A) = *regF(f, in.B) * *regF(f, in.C)
		case ir.OpFDiv:
			*regF(f, in.A) = *regF(f, in.B) / *regF(f, in.C)
		case ir.OpFNeg:
			*regF(f, in.A) = -*regF(f, in.B)
		case ir.OpFAnd:
			*regF(f, in.A) = b2f(*regF(f, in.B) != 0 && *regF(f, in.C) != 0)
		case ir.OpFOr:
			*regF(f, in.A) = b2f(*regF(f, in.B) != 0 || *regF(f, in.C) != 0)
		case ir.OpFNot:
			*regF(f, in.A) = b2f(*regF(f, in.B) == 0)
		case ir.OpFCmpEq:
			*regF(f, in.A) = b2f(*regF(f, in.B) == *regF(f, in.C))
		case ir.OpFCmpNe:
			*regF(f, in.A) = b2f(*regF(f, in.B) != *regF(f, in.C))
		case ir.OpFCmpLt:
			*regF(f, in.A) = b2f(*regF(f, in.B) < *regF(f, in.C))
		case ir.OpFCmpLe:
			*regF(f, in.A) = b2f(*regF(f, in.B) <= *regF(f, in.C))

		case ir.OpIAdd:
			*regI(i, in.A) = *regI(i, in.B) + *regI(i, in.C)
		case ir.OpISub:
			*regI(i, in.A) = *regI(i, in.B) - *regI(i, in.C)
		case ir.OpIMul:
			*regI(i, in.A) = *regI(i, in.B) * *regI(i, in.C)
		case ir.OpINeg:
			*regI(i, in.A) = -*regI(i, in.B)
		case ir.OpIMod:
			*regI(i, in.A) = imod(*regI(i, in.B), *regI(i, in.C))
		case ir.OpICmpEq:
			*regF(f, in.A) = b2f(*regI(i, in.B) == *regI(i, in.C))
		case ir.OpICmpNe:
			*regF(f, in.A) = b2f(*regI(i, in.B) != *regI(i, in.C))
		case ir.OpICmpLt:
			*regF(f, in.A) = b2f(*regI(i, in.B) < *regI(i, in.C))
		case ir.OpICmpLe:
			*regF(f, in.A) = b2f(*regI(i, in.B) <= *regI(i, in.C))

		case ir.OpCAdd:
			*regC(c, in.A) = *regC(c, in.B) + *regC(c, in.C)
		case ir.OpCSub:
			*regC(c, in.A) = *regC(c, in.B) - *regC(c, in.C)
		case ir.OpCMul:
			*regC(c, in.A) = cmul(*regC(c, in.B), *regC(c, in.C))
		case ir.OpCNeg:
			*regC(c, in.A) = -*regC(c, in.B)
		case ir.OpCCmpEq:
			*regF(f, in.A) = b2f(*regC(c, in.B) == *regC(c, in.C))
		case ir.OpCCmpNe:
			*regF(f, in.A) = b2f(*regC(c, in.B) != *regC(c, in.C))
		case ir.OpCReal:
			*regF(f, in.A) = real(*regC(c, in.B))
		case ir.OpCImag:
			*regF(f, in.A) = imag(*regC(c, in.B))
		case ir.OpCConj:
			*regC(c, in.A) = cmplx.Conj(*regC(c, in.B))

		case ir.OpFLd1U:
			*regF(f, in.A) = (*regV(v, in.B)).FastGet1(int(*regI(i, in.C)) - 1)
		case ir.OpFLd2U:
			*regF(f, in.A) = (*regV(v, in.B)).FastGet2(int(*regI(i, in.C))-1, int(*regI(i, in.D))-1)
		case ir.OpCLd1U:
			*regC(c, in.A) = (*regV(v, in.B)).FastGet1C(int(*regI(i, in.C)) - 1)
		case ir.OpCLd2U:
			*regC(c, in.A) = (*regV(v, in.B)).FastGet2C(int(*regI(i, in.C))-1, int(*regI(i, in.D))-1)

		// The common cases of instructions step also runs.
		case ir.OpFLd1:
			x, ok := (*regV(v, in.B)).TryGet1(*regF(f, in.C))
			if !ok {
				return pcOf(ins, in), false
			}
			*regF(f, in.A) = x
		case ir.OpFLd1I:
			x, ok := (*regV(v, in.B)).TryGet1I(*regI(i, in.C))
			if !ok {
				return pcOf(ins, in), false
			}
			*regF(f, in.A) = x
		case ir.OpFLd2:
			x, ok := (*regV(v, in.B)).TryGet2(*regF(f, in.C), *regF(f, in.D))
			if !ok {
				return pcOf(ins, in), false
			}
			*regF(f, in.A) = x
		case ir.OpFLd2I:
			x, ok := (*regV(v, in.B)).TryGet2I(*regI(i, in.C), *regI(i, in.D))
			if !ok {
				return pcOf(ins, in), false
			}
			*regF(f, in.A) = x
		case ir.OpFSt1:
			if !(*regV(v, in.A)).TrySet1(*regF(f, in.B), *regF(f, in.C)) {
				return pcOf(ins, in), false
			}
		case ir.OpFSt1I:
			if !(*regV(v, in.A)).TrySet1I(*regI(i, in.B), *regF(f, in.C)) {
				return pcOf(ins, in), false
			}
		case ir.OpFSt1U:
			x := *regV(v, in.A)
			if !x.Owned() {
				return pcOf(ins, in), false
			}
			x.FastSet1(int(*regI(i, in.B))-1, *regF(f, in.C))
		case ir.OpFSt2:
			if !(*regV(v, in.A)).TrySet2(*regF(f, in.B), *regF(f, in.C), *regF(f, in.D)) {
				return pcOf(ins, in), false
			}
		case ir.OpFSt2I:
			if !(*regV(v, in.A)).TrySet2I(*regI(i, in.B), *regI(i, in.C), *regF(f, in.D)) {
				return pcOf(ins, in), false
			}
		case ir.OpFSt2U:
			x := *regV(v, in.A)
			if !x.Owned() {
				return pcOf(ins, in), false
			}
			x.FastSet2(int(*regI(i, in.B))-1, int(*regI(i, in.C))-1, *regF(f, in.D))
		case ir.OpVEnsure:
			if !(*regV(v, in.A)).Reusable(int(*regI(i, in.B)), int(*regI(i, in.C))) {
				return pcOf(ins, in), false
			}

		case ir.OpStageF:
			*callSlot(ops, in.A) = Operand{F: *regF(f, in.B), Bank: ir.BankF}
		case ir.OpStageI:
			*callSlot(ops, in.A) = Operand{I: *regI(i, in.B), Bank: ir.BankI}

		default:
			return pcOf(ins, in), false
		}
		in = instr(in, 1)
		continue
	taken:
		if to := instr(ins, target); !after(to, in) && cflag != nil && cflag.Raised() {
			return pcOf(ins, in), true
		} else {
			in = to
		}
	}
}

// calling executes an instruction of the loop's that calls a function,
// and returns the pc to continue at. Nothing of the loop's but its
// arguments is live across the call, so the loop spills no register of
// its own for it.
//
//go:noinline
func calling(in, ins *ir.Instr, f *float64, c *complex128, v **mat.Value, fns *func(float64) float64, cflag *cancel.Flag) (*ir.Instr, bool) {
	taken := false
	switch in.Op {
	case ir.OpBrFalseV:
		x := *regV(v, in.A)
		taken = x == nil || !x.IsTrue()
	case ir.OpBrTrueV:
		x := *regV(v, in.A)
		taken = x != nil && x.IsTrue()
	case ir.OpBrNCAbs:
		taken = !absHolds(*regC(c, in.A), ast.BinOp(in.B), in.Imm)
	case ir.OpFPow:
		*regF(f, in.A) = mat.FPow(*regF(f, in.B), *regF(f, in.C))
	case ir.OpFMod:
		*regF(f, in.A) = builtins.Mod(*regF(f, in.B), *regF(f, in.C))
	case ir.OpFRem:
		*regF(f, in.A) = builtins.Rem(*regF(f, in.B), *regF(f, in.C))
	case ir.OpFMath:
		*regF(f, in.A) = mathFn(fns, in.C)(*regF(f, in.B))
	case ir.OpCDiv:
		*regC(c, in.A) = cdiv(*regC(c, in.B), *regC(c, in.C))
	case ir.OpCPow:
		*regC(c, in.A) = cpow(*regC(c, in.B), *regC(c, in.C))
	case ir.OpFPowC:
		*regC(c, in.A) = mat.RealPow(*regF(f, in.B), *regF(f, in.C))
	case ir.OpCAbs:
		*regF(f, in.A) = cmplx.Abs(*regC(c, in.B))
	}
	if !taken {
		return instr(in, 1), false
	}
	to := instr(ins, in.C)
	if !after(to, in) && cflag != nil && cflag.Raised() {
		return in, true
	}
	return to, false
}

// absBand is the relative half-width of the band around c² inside which
// absHolds takes the square root after all. Outside it re²+im², whose
// rounding error is a few units in the last place, cannot fall on the
// other side of c² from |z|², and math.Hypot, within one unit of |z|,
// cannot fall on the other side of c.
const absBand = 0x1p-40

// absHolds is cmplx.Abs(z) rel c for a c whose square is normal and
// positive, decided from re²+im² where that is outside the band around
// c²; inside it, and for NaN, it calls cmplx.Abs. An overflowing square
// decides |z| > c rightly: c² is finite, so c is below the part that
// overflowed, and math.Hypot is never below its larger part.
func absHolds(z complex128, rel ast.BinOp, c float64) bool {
	re, im := real(z), imag(z)
	s, c2 := re*re+im*im, c*c
	// a is |z| or, outside the band, a value on the same side of c.
	var a float64
	switch {
	case s < c2*(1-absBand):
		a = 0
	case s > c2*(1+absBand):
		a = math.Inf(1)
	default:
		a = cmplx.Abs(z)
	}
	switch rel {
	case ast.OpLt:
		return a < c
	case ast.OpLe:
		return a <= c
	case ast.OpGt:
		return a > c
	case ast.OpGe:
		return a >= c
	case ast.OpEq:
		return a == c
	case ast.OpNe:
		return a != c
	}
	return false
}
