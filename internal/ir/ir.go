// Package ir defines MaJIC's typed linear intermediate representation —
// the analog of the ICODE register language the original system adopted
// from tcc (paper §4). Instructions operate on four virtual register
// banks: F (float64 scalars, also 0/1 logicals), I (int64 scalars: loop
// counters and subscripts), C (complex128 scalars) and V (boxed
// *mat.Value arrays). Typed instructions are the fast path the JIT's
// code selection emits for inferred types; the G* ("generic") opcodes
// are the boxed fallback path used when inference yields ⊤ — the same
// split as the paper's inlined scalar operations versus MATLAB C
// library calls.
//
// A literal is an operand, not an instruction: each scalar bank ends in a
// read-only constant area that Prog.ConstF/ConstI/ConstC fill (vcode's
// immediate forms, without an opcode per operator and position). Any
// field that reads a scalar register may name a constant; see ConstReg.
package ir

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
)

// Bank identifies a register bank.
type Bank uint8

const (
	BankF Bank = iota
	BankI
	BankC
	BankV
	BankNone
)

func (b Bank) String() string {
	return [...]string{"f", "i", "c", "v", "-"}[b]
}

// Op is an instruction opcode.
type Op uint16

// Instruction operand conventions: A is the destination (or first
// operand for stores/branches), B and C are sources, D is the extra
// operand 2-D array ops and a few others need. Imm carries float
// immediates; branch targets live in C (or A for OpJmp).
const (
	OpNop Op = iota

	// control flow
	OpJmp      // pc = A
	OpRet      // return
	OpBrTrueF  // if F[A] != 0: pc = C
	OpBrFalseF // if F[A] == 0: pc = C
	OpBrFalseV // if !V[A].IsTrue(): pc = C
	OpBrTrueV  // if V[A].IsTrue(): pc = C
	OpBrFLt    // if F[A] <  F[B]: pc = C
	OpBrFLe    // if F[A] <= F[B]: pc = C
	OpBrFEq    // if F[A] == F[B]: pc = C
	OpBrFNe    // if F[A] != F[B]: pc = C
	OpBrFNLt   // if !(F[A] < F[B]): pc = C (NaN-correct negation)
	OpBrFNLe   // if !(F[A] <= F[B]): pc = C
	OpBrILt    // if I[A] <  I[B]: pc = C
	OpBrILe    // if I[A] <= I[B]: pc = C
	OpBrIEq    // if I[A] == I[B]: pc = C
	OpBrINe    // if I[A] != I[B]: pc = C

	// moves (from a constant register: the one way to materialise a literal)
	OpFMov     // F[A] = F[B]
	OpIMov     // I[A] = I[B]
	OpCMov     // C[A] = C[B]
	OpVMov     // V[A] = V[B] (aliasing move)
	OpVMovSwap // V[A], V[B] = V[B], V[A] (assignment of a fresh temp: the
	// destination takes the value and the temp register inherits the old
	// buffer, which OpVEnsure can then recycle — pre-allocated
	// temporaries without an allocation per loop iteration)
	OpVClone // V[A] = V[B].Clone() (value-semantics copy)

	// conversions
	OpItoF   // F[A] = float64(I[B])
	OpFtoI   // I[A] = int64(F[B]) (value known integral)
	OpFtoC   // C[A] = complex(F[B], 0)
	OpItoC   // C[A] = complex(float64(I[B]), 0)
	OpBoxF   // V[A] = scalar(F[B])
	OpBoxI   // V[A] = int scalar(I[B])
	OpBoxC   // V[A] = complex scalar(C[B])
	OpUnboxF // F[A] = V[B] as real scalar (checked)
	OpUnboxI // I[A] = V[B] as integer scalar (checked)
	OpUnboxC // C[A] = V[B] as complex scalar (checked)

	// F arithmetic (scalar doubles; also 0/1 logicals)
	OpFAdd  // F[A] = F[B] + F[C]
	OpFSub  // F[A] = F[B] - F[C]
	OpFMul  // F[A] = F[B] * F[C]
	OpFDiv  // F[A] = F[B] / F[C]
	OpFNeg  // F[A] = -F[B]
	OpFPow  // F[A] = pow(F[B], F[C])
	OpFMod  // F[A] = matlab mod(F[B], F[C])
	OpFRem  // F[A] = matlab rem(F[B], F[C])
	OpFMath // F[A] = mathfn[C](F[B])
	OpFAnd  // F[A] = F[B] != 0 && F[C] != 0
	OpFOr   // F[A] = F[B] != 0 || F[C] != 0
	OpFNot  // F[A] = F[B] == 0
	OpFRand // F[A] = next uniform (B = 0) or normal (B = 1) deviate of the context's generator

	// F comparisons producing 0/1
	OpFCmpEq // F[A] = F[B] == F[C]
	OpFCmpNe
	OpFCmpLt
	OpFCmpLe

	// I arithmetic (int64 scalars)
	OpIAdd
	OpISub
	OpIMul
	OpINeg
	OpIMod // matlab mod on integers
	OpICmpEq
	OpICmpNe // I comparisons produce F 0/1 for uniformity
	OpICmpLt
	OpICmpLe

	// C arithmetic (complex128 scalars)
	OpCAdd
	OpCSub
	OpCMul
	OpCDiv
	OpCNeg
	OpCPow
	OpCAbs  // F[A] = |C[B]|
	OpCMath // C[A] = cmathfn[C](C[B])
	OpCCmpEq
	OpCCmpNe
	OpCReal // F[A] = real(C[B])
	OpCImag // F[A] = imag(C[B])
	OpCConj // C[A] = conj(C[B])

	// typed array access; subscripts are 1-based
	// Checked forms validate bounds (loads) and growth (stores): with F
	// subscripts also that they are positive integers, with I subscripts
	// (the I forms) the bank has proven that. Unchecked forms take I
	// subscripts proven in-bounds by range ∧ shape analysis — the
	// subscript-check removal of §2.4. A store clones a shared base first
	// (call-by-value copy for written parameters, B = A aliases).
	OpFLd1  // F[A] = V[B](F[C]) checked linear load
	OpFLd1I // F[A] = V[B](I[C]) bounds-checked
	OpFLd1U // F[A] = V[B] at I[C] unchecked
	OpFLd2  // F[A] = V[B](F[C], F[D]) checked
	OpFLd2I // F[A] = V[B](I[C], I[D]) bounds-checked
	OpFLd2U // F[A] = V[B] at (I[C], I[D]) unchecked
	OpFSt1  // V[A](F[B]) = F[C] checked store with growth
	OpFSt1I // V[A](I[B]) = F[C] bounds-checked store with growth
	OpFSt1U // V[A] at I[B] = F[C] unchecked
	OpFSt2  // V[A](F[B], F[C]) = F[D] checked
	OpFSt2I // V[A](I[B], I[C]) = F[D] bounds-checked
	OpFSt2U // V[A] at (I[B], I[C]) = F[D] unchecked

	// array management
	OpVNewZeros   // V[A] = zeros(I[B], I[C]) fast typed allocation
	OpVEnsure     // V[A]: reuse as zeros(I[B], I[C]) if owned & matching, else allocate (pre-allocated temporaries)
	OpVRows       // I[A] = V[B].Rows()
	OpVCols       // I[A] = V[B].Cols()
	OpVNumel      // I[A] = V[B].Numel()
	OpVMarkShared // V[A].MarkShared() (aliasing assignment B = A)

	// generic boxed operations (the MATLAB C library path)
	OpGBin     // V[A] = binop[D](V[B], V[C]); Imm: bit 0/1 set when V[B]/V[C] is a consumed temporary (mat.Donors)
	OpGUn      // V[A] = unop[D](V[B]); Imm: 1 when V[B] is a consumed temporary
	OpGIndex   // V[A] = V[B](args); aux at C: [n, argreg...]
	OpGAssign  // V[A](args) = V[D]; aux at C: [n, argreg...]; result back in V[A]
	OpGColon   // V[A] = V[B]:V[C]:V[D]
	OpGCat     // V[A] = [rows]; aux at B: [nrows, ncols1, regs..., ncols2, regs...]
	OpGBuiltin // builtin call; aux at A: [builtinID, nout, dst..., nargs, arg...]
	OpCallUser // user function call; aux at A: [fnID, nout, dst..., nargs, arg...]; a dst or arg word is a V register or Staged
	// Scalars cross a call in their register class. OpStageF/I put one in
	// call slot A of the frame, tagged with its bank: argument A of the
	// OpCallUser that follows, or output A of the OpRet that follows.
	// OpFetchF/I read result B of the OpCallUser before them behind the
	// return-type guard: a result of another class, or a box that does not
	// hold exactly that kind of scalar, abandons the activation. The
	// registers are ordinary A-D operands, so the optimiser and the
	// allocator need no knowledge of the call's aux block.
	OpStageF   // call slot A = F[B]
	OpStageI   // call slot A = I[B]
	OpFetchF   // F[A] = call result B (guarded)
	OpFetchI   // I[A] = call result B (guarded)
	OpGEMV     // V[A] = Imm*V[B]*V[C] + beta*V[D] (beta = 0 when D < 0, else ±1 encoded in aux via BetaNeg bit)
	OpVConst   // V[A] = vpool[B] (boxed constant: string or colon marker)
	OpVDisplay // display V[A] as name vpool[B] (echo of unsuppressed statements)

	// elementwise fusion: a maximal tree of elementwise operators runs as
	// one loop over the output with no intermediate arrays. The aux block
	// at B holds a postfix micro-op program (layout documented at
	// FuseLoadV below); scalar leaves are staged into a fixed slot file by
	// OpVFuseArgF immediately before the kernel so register allocation
	// sees ordinary F-register uses.
	OpVFused    // V[A] = eval of fused micro-op program; aux at B: [nv, vreg..., nslots, nops, (code,arg)...]; C: bit k set when vreg k is a consumed temporary
	OpVFuseArgF // fuse slot A = F[B] (stages a scalar operand for the next OpVFused)

	// spill support: the linear-scan allocator rewrites spilled virtual
	// registers into slot loads/stores around each use (the Figure 7
	// "no regalloc" ablation spills everything).
	OpFLdSlot // F[A] = fslots[B]
	OpFStSlot // fslots[A] = F[B]
	OpILdSlot
	OpIStSlot
	OpCLdSlot
	OpCStSlot
	OpVLdSlot
	OpVStSlot

	// test instrumentation: while a hook is installed vm.Prepare follows
	// V-writing instructions with OpVCheck (vm.SetStepHook) and heads basic
	// blocks with OpCount (vm.SetBlockHook); no compiler pass emits them.
	OpVCheck // run the VM's step hook on the instruction before
	OpCount  // run the VM's block hook on the A instructions after

	numOps
)

var opNames = map[Op]string{
	OpNop: "nop", OpJmp: "jmp", OpRet: "ret",
	OpBrTrueF: "brtrue.f", OpBrFalseF: "brfalse.f", OpBrFalseV: "brfalse.v", OpBrTrueV: "brtrue.v",
	OpBrFLt: "br.flt", OpBrFLe: "br.fle", OpBrFEq: "br.feq", OpBrFNe: "br.fne",
	OpBrFNLt: "br.fnlt", OpBrFNLe: "br.fnle",
	OpBrILt: "br.ilt", OpBrILe: "br.ile", OpBrIEq: "br.ieq", OpBrINe: "br.ine",
	OpFMov: "fmov", OpIMov: "imov", OpCMov: "cmov", OpVMov: "vmov",
	OpVMovSwap: "vmovswap", OpVClone: "vclone",
	OpItoF: "itof", OpFtoI: "ftoi", OpFtoC: "ftoc", OpItoC: "itoc",
	OpBoxF: "box.f", OpBoxI: "box.i", OpBoxC: "box.c",
	OpUnboxF: "unbox.f", OpUnboxI: "unbox.i", OpUnboxC: "unbox.c",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv", OpFNeg: "fneg",
	OpFPow: "fpow", OpFMod: "fmod", OpFRem: "frem", OpFMath: "fmath",
	OpFAnd: "fand", OpFOr: "for", OpFNot: "fnot", OpFRand: "frand",
	OpFCmpEq: "fcmp.eq", OpFCmpNe: "fcmp.ne", OpFCmpLt: "fcmp.lt", OpFCmpLe: "fcmp.le",
	OpIAdd: "iadd", OpISub: "isub", OpIMul: "imul", OpINeg: "ineg", OpIMod: "imod",
	OpICmpEq: "icmp.eq", OpICmpNe: "icmp.ne", OpICmpLt: "icmp.lt", OpICmpLe: "icmp.le",
	OpCAdd: "cadd", OpCSub: "csub", OpCMul: "cmul", OpCDiv: "cdiv", OpCNeg: "cneg",
	OpCPow: "cpow", OpCAbs: "cabs", OpCMath: "cmath", OpCCmpEq: "ccmp.eq", OpCCmpNe: "ccmp.ne",
	OpCReal: "creal", OpCImag: "cimag", OpCConj: "cconj",
	OpFLd1: "fld1", OpFLd1I: "fld1i", OpFLd1U: "fld1u", OpFLd2: "fld2", OpFLd2I: "fld2i", OpFLd2U: "fld2u",
	OpFSt1: "fst1", OpFSt1I: "fst1i", OpFSt1U: "fst1u", OpFSt2: "fst2", OpFSt2I: "fst2i", OpFSt2U: "fst2u",
	OpVNewZeros: "vnew", OpVEnsure: "vensure",
	OpVRows: "vrows", OpVCols: "vcols", OpVNumel: "vnumel", OpVMarkShared: "vshare",
	OpGBin: "gbin", OpGUn: "gun", OpGIndex: "gindex", OpGAssign: "gassign",
	OpVConst: "vconst", OpVDisplay: "vdisplay",
	OpGColon: "gcolon", OpGCat: "gcat", OpGBuiltin: "gbuiltin", OpCallUser: "call",
	OpStageF: "stage.f", OpStageI: "stage.i", OpFetchF: "fetch.f", OpFetchI: "fetch.i",
	OpGEMV:   "gemv",
	OpVFused: "vfused", OpVFuseArgF: "vfusearg.f",
	OpFLdSlot: "fldslot", OpFStSlot: "fstslot", OpILdSlot: "ildslot", OpIStSlot: "istslot",
	OpCLdSlot: "cldslot", OpCStSlot: "cstslot", OpVLdSlot: "vldslot", OpVStSlot: "vstslot",
	OpVCheck: "vcheck", OpCount: "count",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op%d", uint16(o))
}

// Fingerprint hashes the IR's codec-relevant shape: the opcode table
// (numbering and mnemonics), the fuse micro-op codes, and the bank
// count. A serialized program is only meaningful to a build whose IR
// assigns the same numbers to the same operations — opcodes are
// iota-assigned, so inserting an opcode renumbers everything after it.
// The persistence layer stamps snapshots with this fingerprint and
// rejects (falls back to a cold start on) snapshots written by a build
// with a different IR, instead of misdecoding instructions.
func Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "banks=%d ops=%d", int(BankNone)+1, len(opNames))
	for o := Op(0); int(o) < len(opNames); o++ {
		fmt.Fprintf(h, "|%d=%s", uint16(o), opNames[o])
	}
	fmt.Fprintf(h, "|fuse=%d..%d lim=%d/%d",
		FuseLoadV, FuseMath, MaxFuseOperands, MaxFuseOps)
	return h.Sum64()
}

// Instr is one IR instruction.
type Instr struct {
	Op         Op
	A, B, C, D int32
	Imm        float64
}

// String prints the fields the opcode has; a constant register shows as
// its table index (Prog.Disasm, which has the tables, shows the value).
func (in Instr) String() string { return in.format(nil) }

// ConstReg names entry k of a bank's constant table in code that is not
// register-allocated yet: a negative register number, which no table
// indexed by virtual register ever sees (Operand.Const). The allocator
// renames it to the bank's constant area, register NumX-len(ConstX)+k.
func ConstReg(k int) int32 { return ^int32(k) }

// ParamBinding says where a function argument lands on entry: the bank
// and register, so the VM unboxes typed scalar parameters once. Slot
// marks a spilled parameter whose Reg indexes the bank's spill slots.
type ParamBinding struct {
	Bank Bank
	Reg  int32
	Slot bool
}

// Staged stands where a V register would in an OpCallUser aux block or in
// Prog.OutRegs: the operand at that position is not boxed but a scalar
// in the call slot of the same number (see OpStageF).
const Staged int32 = -1

// MathFn identifies scalar math functions for OpFMath/OpCMath.
type MathFn int32

// Fuse micro-op codes for OpVFused. The aux block at Instr.B is
//
//	[nv, vreg_0..vreg_{nv-1}, nslots, nops, (code_0,arg_0)...(code_{nops-1},arg_{nops-1})]
//
// and describes a postfix (stack) program evaluated once per output
// element. FuseLoadV pushes element i of V operand arg (broadcast when
// the operand is 1×1); FuseLoadSF/FuseLoadSI push the scalar staged in
// fuse slot arg by a preceding OpVFuseArgF (SI marks the value as
// integer-kinded for MATLAB's Int/Real result-kind refinement). The
// binary codes pop y then x and push x∘y; FuseNeg and FuseMath (arg =
// MathFns index) are unary. Postfix order is exactly the generic
// evaluation order, so shape errors and NaN/Inf propagation match the
// unfused path operator for operator.
const (
	FuseLoadV  int32 = iota // push V operand arg's element (or its scalar broadcast)
	FuseLoadSF              // push staged real scalar from fuse slot arg
	FuseLoadSI              // push staged integer-valued scalar from fuse slot arg
	FuseAdd
	FuseSub
	FuseMul
	FuseDiv
	FusePow
	FuseNeg
	FuseMath // apply MathFns[arg]
)

// Limits on a single fused kernel: operand count doubles as the fuse
// slot file size the VM preallocates, and the op cap bounds the stack.
const (
	MaxFuseOperands = 16
	MaxFuseOps      = 32
)

// VConstDesc describes one boxed constant.
type VConstDesc struct {
	Str     string
	IsColon bool
}

// Prog is a compiled function body.
type Prog struct {
	Name string
	Ins  []Instr

	// Register file sizes per bank (physical registers after
	// allocation; virtual count before).
	NumF, NumI, NumC, NumV int32
	// Spill slot counts per bank.
	SlotsF, SlotsI, SlotsC, SlotsV int32

	// Constant tables: the values of the read-only registers that end
	// each scalar bank, [NumX-len(ConstX), NumX) once allocated (vm.Run
	// copies them in). Entries are distinct by bit pattern.
	ConstF []float64
	ConstI []int64
	ConstC []complex128

	Aux      []int32
	MathFns  []string // names for OpFMath/OpCMath C-index
	Builtins []string // names for OpGBuiltin
	Calls    []string // user function names for OpCallUser

	// VPoolStrs describes boxed constants for OpVConst: string literals
	// and the ':' subscript marker.
	VPoolStrs []VConstDesc

	Params []ParamBinding
	// OutRegs says where each declared output is at OpRet: the V register
	// of an output whose home is V (or C, which the epilogue boxes), or
	// Staged for one whose home is F or I — the epilogue's OpStageF/I has
	// put it, unboxed and tagged with its bank, in the call slot of the
	// output's position, and whoever receives it boxes it if it must.
	OutRegs []int32

	// Stats for the harness.
	Allocated bool // register allocation done
}

// AddAux appends words to the aux pool, returning the starting index.
func (p *Prog) AddAux(words ...int32) int32 {
	at := int32(len(p.Aux))
	p.Aux = append(p.Aux, words...)
	return at
}

// internWindow bounds how far back FConst/IConst/CConst look for an equal
// entry, so that interning costs a constant per literal however many
// distinct literals a program has; beyond it a value may get a second
// register, which costs eight bytes of frame.
const internWindow = 32

// FConst returns the constant register holding v, by bit pattern: -0 and
// 0, and NaNs of different payloads, are different constants.
func (p *Prog) FConst(v float64) int32 {
	t := p.ConstF
	for k := len(t) - 1; k >= 0 && k >= len(t)-internWindow; k-- {
		if math.Float64bits(t[k]) == math.Float64bits(v) {
			return ConstReg(k)
		}
	}
	p.ConstF = append(t, v)
	return ConstReg(len(t))
}

// IConst returns the constant register holding v.
func (p *Prog) IConst(v int64) int32 {
	t := p.ConstI
	for k := len(t) - 1; k >= 0 && k >= len(t)-internWindow; k-- {
		if t[k] == v {
			return ConstReg(k)
		}
	}
	p.ConstI = append(t, v)
	return ConstReg(len(t))
}

// CConst returns the constant register holding v, by bit pattern.
func (p *Prog) CConst(v complex128) int32 {
	t := p.ConstC
	for k := len(t) - 1; k >= 0 && k >= len(t)-internWindow; k-- {
		if math.Float64bits(real(t[k])) == math.Float64bits(real(v)) &&
			math.Float64bits(imag(t[k])) == math.Float64bits(imag(v)) {
			return ConstReg(k)
		}
	}
	p.ConstC = append(t, v)
	return ConstReg(len(t))
}

// FoldF computes a binary F-bank operation on constant operands exactly as
// the VM would; ok is false for an opcode it does not fold. FoldI is the
// I-bank's. The code generator folds literals with them as it selects,
// the optimiser whatever else turns out constant.
func FoldF(op Op, b, c float64) (v float64, ok bool) {
	switch op {
	case OpFAdd:
		return b + c, true
	case OpFSub:
		return b - c, true
	case OpFMul:
		return b * c, true
	case OpFDiv:
		return b / c, true
	case OpFPow:
		return math.Pow(b, c), true
	}
	return 0, false
}

func FoldI(op Op, b, c int64) (v int64, ok bool) {
	switch op {
	case OpIAdd:
		return b + c, true
	case OpISub:
		return b - c, true
	case OpIMul:
		return b * c, true
	}
	return 0, false
}

// ConstBase returns the first register of each scalar bank's constant
// area in allocated code, and whether the areas fit their banks.
func (p *Prog) ConstBase() (f, i, c int32, ok bool) {
	f, i, c = p.NumF-int32(len(p.ConstF)), p.NumI-int32(len(p.ConstI)), p.NumC-int32(len(p.ConstC))
	return f, i, c, f >= 0 && i >= 0 && c >= 0
}

// constText renders register r of bank b by value when it is a constant.
func (p *Prog) constText(b Bank, r int32) (string, bool) {
	f, i, c, _ := p.ConstBase()
	k := int(^r)
	if r >= 0 {
		k = int(r - [...]int32{f, i, c}[b])
		if !p.Allocated || k < 0 {
			return "", false
		}
	}
	switch {
	case b == BankF && k < len(p.ConstF):
		return fmt.Sprintf("=%v", p.ConstF[k]), true
	case b == BankI && k < len(p.ConstI):
		return fmt.Sprintf("=%d", p.ConstI[k]), true
	case b == BankC && k < len(p.ConstC):
		return fmt.Sprintf("=%v", p.ConstC[k]), true
	}
	return "", false
}

// format prints an instruction from its operand descriptor: registers
// with their bank letter, constants by value (p nil: by index), branch
// targets as @pc, other words bare, Imm when set.
func (in Instr) format(p *Prog) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s", in.Op)
	sep := " "
	for i, r := range operands[in.Op] {
		x := *in.field(i)
		switch {
		case r == none:
			continue
		case r == target:
			fmt.Fprintf(&b, "%s@%d", sep, x)
		case r == word:
			fmt.Fprintf(&b, "%s%d", sep, x)
		case r == regV:
			fmt.Fprintf(&b, "%sv%d", sep, x)
		default:
			text, isConst := "", false
			if p != nil {
				text, isConst = p.constText(r.bank(), x)
			}
			switch {
			case isConst:
				fmt.Fprintf(&b, "%s%s", sep, text)
			case x < 0:
				fmt.Fprintf(&b, "%s=%s#%d", sep, r.bank(), ^x)
			default:
				fmt.Fprintf(&b, "%s%s%d", sep, r.bank(), x)
			}
		}
		sep = ", "
	}
	if in.Imm != 0 {
		fmt.Fprintf(&b, "%simm=%g", sep, in.Imm)
	}
	return strings.TrimRight(b.String(), " ")
}

// Disasm renders the program for debugging and golden tests.
func (p *Prog) Disasm() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s: f=%d i=%d c=%d v=%d (slots %d/%d/%d/%d, consts %d/%d/%d)\n",
		p.Name, p.NumF, p.NumI, p.NumC, p.NumV, p.SlotsF, p.SlotsI, p.SlotsC, p.SlotsV,
		len(p.ConstF), len(p.ConstI), len(p.ConstC))
	for i, in := range p.Ins {
		fmt.Fprintf(&b, "%4d  %s\n", i, in.format(p))
	}
	return b.String()
}
