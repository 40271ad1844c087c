package ir

// Operand metadata: which of an instruction's A-D fields name scalar
// registers (and whether the instruction reads or writes them) and which
// field holds a branch target. The optimiser and the register allocator
// read it through Def, Uses and Target; nothing else in the compiler
// keeps a per-opcode operand list. V operands are not described: they
// are never renamed, and half of them live in aux blocks.

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
)

func (r role) isUse() bool { return r >= useF && r <= useC }
func (r role) isDef() bool { return r >= defF && r <= defC }

// bank is meaningful for use and def roles only.
func (r role) bank() Bank { return Bank((r - useF) % 3) }

// opRoles is the descriptor of one opcode: the roles of A, B, C, D.
type opRoles [4]role

var operands = func() []opRoles {
	t := make([]opRoles, OpVCheck+1)
	set := func(d opRoles, ops ...Op) {
		for _, o := range ops {
			t[o] = d
		}
	}
	set(opRoles{target}, OpJmp)
	set(opRoles{none, none, target}, OpBrFalseV, OpBrTrueV)
	set(opRoles{useF, none, target}, OpBrTrueF, OpBrFalseF)
	set(opRoles{useF, useF, target}, OpBrFLt, OpBrFLe, OpBrFEq, OpBrFNe, OpBrFNLt, OpBrFNLe)
	set(opRoles{useI, useI, target}, OpBrILt, OpBrILe, OpBrIEq, OpBrINe)

	set(opRoles{defF}, OpFConst, OpUnboxF, OpFetchF)
	set(opRoles{defI}, OpIConst, OpUnboxI, OpFetchI, OpVRows, OpVCols, OpVNumel)
	set(opRoles{defC}, OpCConst, OpUnboxC)
	set(opRoles{none, useF}, OpBoxF, OpVFuseArgF, OpStageF)
	set(opRoles{none, useI}, OpBoxI, OpStageI)
	set(opRoles{none, useC}, OpBoxC)

	// OpFMath and OpCMath keep a function id in C.
	set(opRoles{defF, useF}, OpFMov, OpFNeg, OpFNot, OpFMath)
	set(opRoles{defF, useI}, OpItoF)
	set(opRoles{defF, useC}, OpCAbs, OpCReal, OpCImag)
	set(opRoles{defI, useI}, OpIMov, OpINeg)
	set(opRoles{defI, useF}, OpFtoI)
	set(opRoles{defC, useC}, OpCMov, OpCNeg, OpCConj, OpCMath)
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
	set(opRoles{defF, none, useF}, OpFLd1)
	set(opRoles{defF, none, useI}, OpFLd1U)
	set(opRoles{defF, none, useF, useF}, OpFLd2)
	set(opRoles{defF, none, useI, useI}, OpFLd2U)
	set(opRoles{none, useF, useF}, OpFSt1)
	set(opRoles{none, useI, useF}, OpFSt1U)
	set(opRoles{none, useF, useF, useF}, OpFSt2)
	set(opRoles{none, useI, useI, useF}, OpFSt2U)
	set(opRoles{none, useI, useI}, OpVNewZeros, OpVEnsure)
	return t
}()

// Operand is one scalar-register field of an instruction: its bank and
// the field itself, so that a pass can rename the register in place.
type Operand struct {
	Bank Bank
	Reg  *int32
}

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
