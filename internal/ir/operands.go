package ir

// Operand metadata: which of an instruction's A-D fields name scalar
// registers (and whether the instruction reads or writes them) and which
// field holds a branch target. The optimiser and the register allocator
// read it through Def, Uses and Target; nothing else in the compiler
// keeps a per-opcode operand list. V operands are never renamed, and half
// of them live in aux blocks: the table names the ones in fields (VRegs),
// and for the disassembler plain words (aux offsets, call slots, spill
// slots, function ids) and the registers of the allocator's own slot
// instructions.

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
	regV  // a V register (VRegs)
	word  // an integer that is not a register
	physF // a register of a spill instruction, which the allocator
	physI // emits after every pass that asks for defs and uses
	physC
)

func (r role) isUse() bool { return r >= useF && r <= useC }
func (r role) isDef() bool { return r >= defF && r <= defC }

// bank is meaningful for use, def and phys roles only.
func (r role) bank() Bank {
	if r >= physF {
		return Bank(r - physF)
	}
	return Bank((r - useF) % 3)
}

// opRoles is the descriptor of one opcode: the roles of A, B, C, D.
type opRoles [4]role

var operands = func() []opRoles {
	t := make([]opRoles, numOps)
	set := func(d opRoles, ops ...Op) {
		for _, o := range ops {
			t[o] = d
		}
	}
	set(opRoles{target}, OpJmp)
	set(opRoles{regV, none, target}, OpBrFalseV, OpBrTrueV)
	set(opRoles{useF, none, target}, OpBrTrueF, OpBrFalseF)
	set(opRoles{useF, useF, target}, OpBrFLt, OpBrFLe, OpBrFEq, OpBrFNe, OpBrFNLt, OpBrFNLe)
	set(opRoles{useI, useI, target}, OpBrILt, OpBrILe, OpBrIEq, OpBrINe)

	set(opRoles{defF, regV}, OpUnboxF)
	set(opRoles{defI, regV}, OpUnboxI, OpVRows, OpVCols, OpVNumel)
	set(opRoles{defC, regV}, OpUnboxC)
	set(opRoles{defF, word}, OpFetchF, OpFRand)
	set(opRoles{defI, word}, OpFetchI)
	set(opRoles{regV, useF}, OpBoxF)
	set(opRoles{regV, useI}, OpBoxI)
	set(opRoles{regV, useC}, OpBoxC)
	set(opRoles{word, useF}, OpVFuseArgF, OpStageF)
	set(opRoles{word, useI}, OpStageI)

	set(opRoles{defF, useF}, OpFMov, OpFNeg, OpFNot)
	set(opRoles{defF, useF, word}, OpFMath) // C is a function id
	set(opRoles{defF, useI}, OpItoF)
	set(opRoles{defF, useC}, OpCAbs, OpCReal, OpCImag)
	set(opRoles{defI, useI}, OpIMov, OpINeg)
	set(opRoles{defI, useF}, OpFtoI)
	set(opRoles{defC, useC}, OpCMov, OpCNeg, OpCConj)
	set(opRoles{defC, useC, word}, OpCMath)
	set(opRoles{defC, useF}, OpFtoC)
	set(opRoles{defC, useI}, OpItoC)

	set(opRoles{defF, useF, useF}, OpFAdd, OpFSub, OpFMul, OpFDiv, OpFPow, OpFMod, OpFRem,
		OpFAnd, OpFOr, OpFCmpEq, OpFCmpNe, OpFCmpLt, OpFCmpLe)
	set(opRoles{defI, useI, useI}, OpIAdd, OpISub, OpIMul, OpIMod)
	set(opRoles{defF, useI, useI}, OpICmpEq, OpICmpNe, OpICmpLt, OpICmpLe)
	set(opRoles{defC, useC, useC}, OpCAdd, OpCSub, OpCMul, OpCDiv, OpCPow)
	set(opRoles{defF, useC, useC}, OpCCmpEq, OpCCmpNe)

	// Array access: the array itself is a V register (B of a load, A of
	// a store).
	set(opRoles{defF, regV, useF}, OpFLd1)
	set(opRoles{defF, regV, useI}, OpFLd1I, OpFLd1U)
	set(opRoles{defF, regV, useF, useF}, OpFLd2)
	set(opRoles{defF, regV, useI, useI}, OpFLd2I, OpFLd2U)
	set(opRoles{regV, useF, useF}, OpFSt1)
	set(opRoles{regV, useI, useF}, OpFSt1I, OpFSt1U)
	set(opRoles{regV, useF, useF, useF}, OpFSt2)
	set(opRoles{regV, useI, useI, useF}, OpFSt2I, OpFSt2U)
	set(opRoles{regV, useI, useI}, OpVNewZeros, OpVEnsure)

	set(opRoles{regV}, OpVMarkShared)
	set(opRoles{regV, regV}, OpVMov, OpVMovSwap, OpVClone)
	set(opRoles{regV, regV, regV, word}, OpGBin)
	set(opRoles{regV, regV, none, word}, OpGUn)
	set(opRoles{regV, regV, word}, OpGIndex)
	set(opRoles{regV, none, word, regV}, OpGAssign)
	set(opRoles{regV, regV, regV, regV}, OpGColon)
	set(opRoles{regV, word}, OpGCat, OpGEMV, OpVConst, OpVDisplay)
	set(opRoles{regV, word, word}, OpVFused)
	set(opRoles{word}, OpGBuiltin, OpCallUser, OpCount)

	set(opRoles{physF, word}, OpFLdSlot)
	set(opRoles{physI, word}, OpILdSlot)
	set(opRoles{physC, word}, OpCLdSlot)
	set(opRoles{regV, word}, OpVLdSlot)
	set(opRoles{word, physF}, OpFStSlot)
	set(opRoles{word, physI}, OpIStSlot)
	set(opRoles{word, physC}, OpCStSlot)
	set(opRoles{word, regV}, OpVStSlot)
	return t
}()

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

// VRegs returns the V registers the instruction names in its fields (not
// the ones in its aux block), read or written, written into buf.
func (in *Instr) VRegs(buf *[4]int32) []int32 {
	n := 0
	for i, r := range operands[in.Op] {
		if r == regV {
			buf[n] = *in.field(i)
			n++
		}
	}
	return buf[:n]
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
