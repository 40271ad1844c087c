package ir

import "slices"

// Opcode metadata, once for every opcode: which of an instruction's A-D
// fields name registers (and whether it reads or writes them), which one
// holds a branch target or the offset of an aux block, and what the
// optimiser may do with it. The compiler and the VM read it through Def,
// Uses, Target, Effect, VOperands and WritesV; nothing else keeps a
// per-opcode list. For the disassembler it also marks plain words, gemv's
// transposed-operand flag and the registers of the slot instructions.

// role says what one instruction field holds.
type role uint8

const (
	none role = iota
	useF
	useI
	useC
	defF
	defI
	defC
	target
	// Invisible to Def and Uses:
	vRead   // a V register the instruction reads (VOperands)
	vWrite  // a V register it sets
	vUpdate // a V register it reads and may replace
	word    // an integer that is not a register
	trans   // a transposed-operand flag (GEMVNoTrans, GEMVTrans, GEMVConjTrans)
	physF   // a register of a spill instruction, which the allocator
	physI   // emits after every pass that asks for defs and uses
	physC
	// The offset of an aux block, one role per layout (VOperands):
	auxSubs  // [n, sub...]: the subscripts of OpGIndex and OpGAssign
	auxRows  // [nrows, ncols, elem..., ncols, elem...]: OpGCat's rows
	auxCall  // [id, nout, dst..., nargs, arg...]: OpGBuiltin's, OpCallUser's
	auxGEMV  // [M, x, y or -1, β]
	auxFused // [nv, operand..., nslots, nops, (code, arg)...]
)

func (r role) isUse() bool { return r >= useF && r <= useC }
func (r role) isDef() bool { return r >= defF && r <= defC }
func (r role) isV() bool   { return r >= vRead && r <= vUpdate }

// bank is meaningful for use, def and phys roles only.
func (r role) bank() Bank {
	if r >= physF {
		return Bank(r - physF)
	}
	return Bank((r - useF) % 3)
}

// opRoles is the descriptor of one opcode: the roles of A, B, C, D.
type opRoles [4]role

// Effect is what the optimiser may do with an instruction.
type Effect uint8

const (
	Pure      Effect = iota + 1 // it cannot fault: value numbering may merge it, LICM hoist it, DCE delete it
	Removable                   // DCE may delete it when its result is dead
	Kept                        // it can fault or has an effect beyond its result
)

var operands, effects = func() ([]opRoles, []Effect) {
	t, e := make([]opRoles, numOps), make([]Effect, numOps)
	set := func(eff Effect, d opRoles, ops ...Op) {
		for _, o := range ops {
			t[o], e[o] = d, eff
		}
	}
	set(Removable, opRoles{}, OpNop, OpVCheck)
	set(Kept, opRoles{}, OpRet)
	set(Kept, opRoles{target}, OpJmp)
	set(Kept, opRoles{vRead, none, target}, OpBrFalseV, OpBrTrueV)
	set(Kept, opRoles{useF, none, target}, OpBrTrueF, OpBrFalseF)
	set(Kept, opRoles{useF, useF, target}, OpBrFLt, OpBrFLe, OpBrFEq, OpBrFNe, OpBrFNLt, OpBrFNLe)
	set(Kept, opRoles{useI, useI, target}, OpBrILt, OpBrILe, OpBrIEq, OpBrINe)
	set(Kept, opRoles{useC, word, target}, OpBrNCAbs)

	set(Kept, opRoles{defF, vRead}, OpUnboxF) // an unbox can fault
	set(Kept, opRoles{defI, vRead}, OpUnboxI)
	set(Removable, opRoles{defI, vRead}, OpVRows, OpVCols, OpVNumel)
	set(Kept, opRoles{defC, vRead}, OpUnboxC)
	set(Kept, opRoles{defF, word}, OpFetchF, OpFRand) // the return-type guard; a draw advances the generator
	set(Kept, opRoles{defI, word}, OpFetchI)
	set(Kept, opRoles{vWrite, useF}, OpBoxF)
	set(Kept, opRoles{vWrite, useI}, OpBoxI)
	set(Kept, opRoles{vWrite, useC}, OpBoxC)
	set(Kept, opRoles{word, useF}, OpVFuseArgF, OpStageF)
	set(Kept, opRoles{word, useI}, OpStageI)

	set(Removable, opRoles{defF, useF}, OpFMov) // copy propagation's, not value numbering's
	set(Pure, opRoles{defF, useF}, OpFNeg, OpFNot)
	set(Pure, opRoles{defF, useF, word}, OpFMath) // C is a function id
	set(Pure, opRoles{defF, useI}, OpItoF)
	set(Removable, opRoles{defF, useC}, OpCAbs, OpCReal, OpCImag)
	set(Removable, opRoles{defI, useI}, OpIMov)
	set(Pure, opRoles{defI, useI}, OpINeg)
	set(Pure, opRoles{defI, useF}, OpFtoI)
	set(Removable, opRoles{defC, useC}, OpCMov)
	set(Pure, opRoles{defC, useC}, OpCNeg, OpCConj)
	set(Removable, opRoles{defC, useC, word}, OpCMath)
	set(Removable, opRoles{defC, useF}, OpFtoC)
	set(Removable, opRoles{defC, useI}, OpItoC)

	set(Pure, opRoles{defF, useF, useF}, OpFAdd, OpFSub, OpFMul, OpFDiv, OpFPow, OpFMod, OpFRem,
		OpFAnd, OpFOr, OpFCmpEq, OpFCmpNe, OpFCmpLt, OpFCmpLe)
	set(Pure, opRoles{defI, useI, useI}, OpIAdd, OpISub, OpIMul, OpIMod)
	set(Pure, opRoles{defF, useI, useI}, OpICmpEq, OpICmpNe, OpICmpLt, OpICmpLe)
	set(Pure, opRoles{defC, useC, useC}, OpCAdd, OpCSub, OpCMul, OpCDiv, OpCPow)
	set(Pure, opRoles{defC, useF, useF}, OpFPowC)
	set(Removable, opRoles{defF, useC, useC}, OpCCmpEq, OpCCmpNe)

	// Array access: the array itself is a V register (B of a load, A of
	// a store, which clones a shared base). A checked access can fault.
	set(Kept, opRoles{defF, vRead, useF}, OpFLd1)
	set(Kept, opRoles{defF, vRead, useI}, OpFLd1I)
	set(Removable, opRoles{defF, vRead, useI}, OpFLd1U)
	set(Kept, opRoles{defF, vRead, useF, useF}, OpFLd2)
	set(Kept, opRoles{defF, vRead, useI, useI}, OpFLd2I)
	set(Removable, opRoles{defF, vRead, useI, useI}, OpFLd2U)
	set(Kept, opRoles{defC, vRead, useF}, OpCLd1)
	set(Kept, opRoles{defC, vRead, useI}, OpCLd1I)
	set(Removable, opRoles{defC, vRead, useI}, OpCLd1U)
	set(Kept, opRoles{defC, vRead, useF, useF}, OpCLd2)
	set(Kept, opRoles{defC, vRead, useI, useI}, OpCLd2I)
	set(Removable, opRoles{defC, vRead, useI, useI}, OpCLd2U)
	set(Kept, opRoles{vUpdate, useF, useF}, OpFSt1)
	set(Kept, opRoles{vUpdate, useI, useF}, OpFSt1I, OpFSt1U)
	set(Kept, opRoles{vUpdate, useF, useF, useF}, OpFSt2)
	set(Kept, opRoles{vUpdate, useI, useI, useF}, OpFSt2I, OpFSt2U)
	set(Kept, opRoles{vWrite, useI, useI}, OpVNewZeros)
	set(Kept, opRoles{vUpdate, useI, useI}, OpVEnsure)

	// A consumed temporary that lends the result its buffer is cleared.
	set(Kept, opRoles{vRead}, OpVMarkShared)
	set(Kept, opRoles{vWrite, vRead}, OpVMov, OpVClone)
	set(Kept, opRoles{vUpdate, vUpdate}, OpVMovSwap)
	set(Kept, opRoles{vWrite, vUpdate, vUpdate, word}, OpGBin)
	set(Kept, opRoles{vWrite, vUpdate, none, word}, OpGUn)
	set(Kept, opRoles{vWrite, vRead, auxSubs}, OpGIndex)
	set(Kept, opRoles{vUpdate, none, auxSubs, vRead}, OpGAssign)
	set(Kept, opRoles{vWrite, vRead, vRead, vRead}, OpGColon)
	set(Kept, opRoles{vWrite, auxRows}, OpGCat)
	set(Kept, opRoles{vWrite, word}, OpVConst)
	set(Kept, opRoles{vWrite, auxGEMV, trans}, OpGEMV)
	set(Kept, opRoles{vWrite, auxFused, word}, OpVFused)
	set(Kept, opRoles{auxCall}, OpGBuiltin, OpCallUser)
	set(Removable, opRoles{word}, OpCount)

	set(Removable, opRoles{physF, word}, OpFLdSlot)
	set(Removable, opRoles{physI, word}, OpILdSlot)
	set(Removable, opRoles{physC, word}, OpCLdSlot)
	set(Removable, opRoles{word, physF}, OpFStSlot)
	set(Removable, opRoles{word, physI}, OpIStSlot)
	set(Removable, opRoles{word, physC}, OpCStSlot)
	return t, e
}()

// Effect returns the opcode's effect class.
func (o Op) Effect() Effect { return effects[o] }

// WritesV reports whether the opcode may set a V register, one of its
// fields' or one of its aux block's.
func (o Op) WritesV() bool {
	return slices.ContainsFunc(operands[o][:], func(r role) bool {
		return r == vWrite || r == vUpdate || r == auxCall || r == auxFused
	})
}

// Operand is one scalar-register field of an instruction: its bank and
// the field itself, so that a pass can rename the register in place.
type Operand struct {
	Bank Bank
	Reg  *int32
}

// Const reports whether the operand names a constant register of code
// that is not allocated yet (ConstReg): it has no definition, never
// changes, and must not index a table of virtual registers.
func (o Operand) Const() bool { return *o.Reg < 0 }

// Def returns the scalar register the instruction writes. No opcode
// writes more than one, and the one is always field A.
func (in *Instr) Def() (Operand, bool) {
	if r := operands[in.Op][0]; r.isDef() {
		return Operand{r.bank(), &in.A}, true
	}
	return Operand{}, false
}

// Uses returns the scalar registers the instruction reads, in field
// order, written into buf.
func (in *Instr) Uses(buf *[3]Operand) []Operand {
	n := 0
	for i, r := range operands[in.Op] {
		if r.isUse() {
			buf[n] = Operand{r.bank(), in.field(i)}
			n++
		}
	}
	return buf[:n]
}

// Spill returns the register and the spill slot of a spill-slot load or
// store (fldslot…cstslot), which Def and Uses do not report: the
// allocator emits these after every pass that asks for them.
func (in *Instr) Spill() (reg Operand, slot int32, ok bool) {
	for i, r := range operands[in.Op][:2] {
		if r >= physF && r <= physC {
			return Operand{r.bank(), in.field(i)}, *in.field(1 - i), true
		}
	}
	return Operand{}, 0, false
}

// Access says how an instruction uses a V register.
type Access uint8

const (
	Read   Access = iota // it reads the register
	Write                // it sets it, perhaps in the buffer of the value it displaces
	Update               // it reads it and may replace it
)

// VOperands calls f with each V register the instruction names, in its
// fields and then in its aux block in aux (the program's pool), and how
// it uses the register; a word of an OpCallUser block may be Staged. It
// returns where the block ends (0 without one), and false when the block
// is not within aux or holds a negative count.
func (in *Instr) VOperands(aux []int32, f func(r int32, a Access)) (end int, ok bool) {
	k, layout := 0, none
	for i, r := range operands[in.Op] {
		switch {
		case r.isV():
			f(*in.field(i), Access(r-vRead))
		case r >= auxSubs:
			k, layout = int(*in.field(i)), r
		}
	}
	ok = k >= 0
	// skip steps past the count at k and the n*size words it counts.
	skip := func(size int) (int, bool) {
		if k < 0 || k >= len(aux) || aux[k] < 0 || int(aux[k])*size >= len(aux)-k {
			return 0, false
		}
		n := int(aux[k])
		k += 1 + n*size
		return n, true
	}
	run := func(a Access) bool {
		n, ok := skip(1)
		if ok {
			for _, r := range aux[k-n : k] {
				f(r, a)
			}
		}
		return ok
	}
	var n int
	switch layout {
	case auxSubs:
		ok = run(Read)
	case auxRows:
		for n, ok = skip(0); ok && n > 0; n-- {
			ok = run(Read)
		}
	case auxCall:
		k++ // the function's id
		ok = ok && run(Write) && run(Read)
	case auxGEMV:
		if ok = ok && k+4 <= len(aux); ok {
			f(aux[k], Read)
			f(aux[k+1], Read)
			if aux[k+2] != -1 { // -1: no y
				f(aux[k+2], Read)
			}
			k += 4
		}
	case auxFused:
		if ok = run(Update); ok {
			k++ // nslots
			_, ok = skip(2)
		}
	}
	return k, ok
}

// Target returns the field holding the instruction's branch target, nil
// when it is not a jump or branch.
func (in *Instr) Target() *int32 {
	for i, r := range operands[in.Op] {
		if r == target {
			return in.field(i)
		}
	}
	return nil
}

// Leaders marks in l (len(ins)+1 false entries) the positions that start
// a basic block: 0, every branch target, every one after a branch or ret.
func Leaders(ins []Instr, l []bool) []bool {
	l[0] = true
	for pos := range ins {
		if t := ins[pos].Target(); t != nil {
			l[*t], l[pos+1] = true, true
		} else if ins[pos].Op == OpRet {
			l[pos+1] = true
		}
	}
	return l
}

func (in *Instr) field(i int) *int32 {
	switch i {
	case 0:
		return &in.A
	case 1:
		return &in.B
	case 2:
		return &in.C
	}
	return &in.D
}
