package vm

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cancel"
	"repro/internal/ir"
	"repro/internal/mat"
)

// TestPrepareRejects: the loop addresses registers without a bounds
// check, and step trusts what it reads from aux blocks and the tables
// words index, so Prepare must refuse every program whose operands could
// reach outside their bank or table — programs come from snapshots and
// /cluster/ingest too.
func TestPrepareRejects(t *testing.T) {
	ret := ir.Instr{Op: ir.OpRet}
	mop := func(code, arg int32) []int32 { return []int32{code, arg} }
	fused := func(nv int32, code ...[]int32) []int32 { // nv operands v0, v0, ...
		aux := append(make([]int32, nv+1), 0, int32(len(code)))
		aux[0] = nv
		for _, c := range code {
			aux = append(aux, c...)
		}
		return aux
	}
	for name, p := range map[string]*ir.Prog{
		"F register equal to NumF": {NumF: 2, Ins: []ir.Instr{{Op: ir.OpFAdd, A: 0, B: 1, C: 2}, ret}},
		"I use past NumI":          {NumI: 1, Ins: []ir.Instr{{Op: ir.OpItoF, A: 0, B: 1}, ret}, NumF: 1},
		"C def past NumC":          {NumC: 1, Ins: []ir.Instr{{Op: ir.OpCMov, A: 1, B: 0}, ret}},
		"negative V register":      {NumV: 2, NumF: 1, Ins: []ir.Instr{{Op: ir.OpFLd1, A: 0, B: -1, C: 0}, ret}},
		"V register equal to NumV": {NumV: 2, Ins: []ir.Instr{{Op: ir.OpVMov, A: 0, B: 2}, ret}},
		"branch to len(Ins)":       {NumI: 2, Ins: []ir.Instr{{Op: ir.OpBrILt, A: 0, B: 1, C: 2}, ret}},
		"negative jump":            {Ins: []ir.Instr{{Op: ir.OpJmp, A: -1}, ret}},
		"fmath id past MathFns":    {NumF: 1, MathFns: []string{"sin"}, Ins: []ir.Instr{{Op: ir.OpFMath, A: 0, B: 0, C: 1}, ret}},
		"negative cmath id":        {NumC: 1, MathFns: []string{"sin"}, Ins: []ir.Instr{{Op: ir.OpCMath, A: 0, B: 0, C: -1}, ret}},
		"abs compare, no relation": {NumC: 1, Ins: []ir.Instr{{Op: ir.OpBrNCAbs, A: 0, B: -1, C: 1, Imm: 2}, ret}},
		"gemv flag out of range":   {NumV: 1, Aux: []int32{0, 0, -1, 0}, Ins: []ir.Instr{{Op: ir.OpGEMV, A: 0, B: 0, C: 3, Imm: 1}, ret}},
		"gemv α = 2":               {NumV: 1, Aux: []int32{0, 0, -1, 0}, Ins: []ir.Instr{{Op: ir.OpGEMV, A: 0, B: 0, Imm: 2}, ret}},
		"gemv β code 2":            {NumV: 1, Aux: []int32{0, 0, 0, 2}, Ins: []ir.Instr{{Op: ir.OpGEMV, A: 0, B: 0, Imm: 1}, ret}},
		"gemv aux out of range":    {NumV: 1, Aux: []int32{0, 0, -1}, Ins: []ir.Instr{{Op: ir.OpGEMV, A: 0, B: 0, Imm: 1}, ret}},
		"cmath of floor":           {NumC: 1, MathFns: []string{"floor"}, Ins: []ir.Instr{{Op: ir.OpCMath, A: 0, B: 0, C: 0}, ret}},
		"unknown opcode":           {Ins: []ir.Instr{{Op: lastOp + 1}, ret}},
		"falls off the end":        {NumF: 1, Ins: []ir.Instr{{Op: ir.OpFMov, A: 0, B: 0}}},
		"no instructions":          {},
		"negative bank":            {NumF: -1, Ins: []ir.Instr{ret}},
		"negative spill slots":     {SlotsC: -3, Ins: []ir.Instr{ret}},

		// One row per aux layout and what can go wrong in it.
		"gindex subscript past NumV":   {NumV: 2, Aux: []int32{1, 2}, Ins: []ir.Instr{{Op: ir.OpGIndex, A: 0, B: 1, C: 0}, ret}},
		"gindex block past aux":        {NumV: 2, Aux: []int32{2, 1}, Ins: []ir.Instr{{Op: ir.OpGIndex, A: 0, B: 1, C: 0}, ret}},
		"gindex negative block offset": {NumV: 2, Aux: []int32{1, 1}, Ins: []ir.Instr{{Op: ir.OpGIndex, A: 0, B: 1, C: -1}, ret}},
		"gassign negative count":       {NumV: 2, Aux: []int32{-1, 1}, Ins: []ir.Instr{{Op: ir.OpGAssign, A: 0, C: 0, D: 1}, ret}},
		"gcat v7 of one register":      {NumV: 1, Aux: []int32{1, 1, 7}, Ins: []ir.Instr{{Op: ir.OpGCat, A: 0, B: 0}, ret}},
		"gcat row past aux":            {NumV: 1, Aux: []int32{2, 1, 0}, Ins: []ir.Instr{{Op: ir.OpGCat, A: 0, B: 0}, ret}},
		"gcat block offset past aux":   {NumV: 1, Aux: []int32{1, 1, 0}, Ins: []ir.Instr{{Op: ir.OpGCat, A: 0, B: 3}, ret}},
		"builtin output past NumV":     {NumV: 1, Builtins: []string{"abs"}, Aux: []int32{0, 1, 1, 1, 0}, Ins: []ir.Instr{{Op: ir.OpGBuiltin, A: 0}, ret}},
		"builtin staged argument":      {NumV: 1, Builtins: []string{"abs"}, Aux: []int32{0, 1, 0, 1, ir.Staged}, Ins: []ir.Instr{{Op: ir.OpGBuiltin, A: 0}, ret}},
		"builtin arguments past aux":   {NumV: 1, Builtins: []string{"abs"}, Aux: []int32{0, 1, 0, 2, 0}, Ins: []ir.Instr{{Op: ir.OpGBuiltin, A: 0}, ret}},
		"builtin id past Builtins":     {NumV: 1, Builtins: []string{"abs"}, Aux: []int32{1, 1, 0, 1, 0}, Ins: []ir.Instr{{Op: ir.OpGBuiltin, A: 0}, ret}},
		"call argument past NumV":      {NumV: 1, Calls: []string{"f"}, Aux: []int32{0, 1, 0, 1, 1}, Ins: []ir.Instr{{Op: ir.OpCallUser, A: 0}, ret}},
		"call outputs past aux":        {NumV: 1, Calls: []string{"f"}, Aux: []int32{0, 3, 0}, Ins: []ir.Instr{{Op: ir.OpCallUser, A: 0}, ret}},
		"call id past Calls":           {NumV: 1, Calls: []string{"f"}, Aux: []int32{1, 1, 0, 0}, Ins: []ir.Instr{{Op: ir.OpCallUser, A: 0}, ret}},
		"gemv y past NumV":             {NumV: 1, Aux: []int32{0, 0, 1, 1}, Ins: []ir.Instr{{Op: ir.OpGEMV, A: 0, B: 0, Imm: 1}, ret}},
		"gemv negative matrix":         {NumV: 1, Aux: []int32{-1, 0, -1, 0}, Ins: []ir.Instr{{Op: ir.OpGEMV, A: 0, B: 0, Imm: 1}, ret}},
		"fused operand past NumV":      {NumV: 1, Aux: []int32{1, 1, 0, 1, ir.FuseLoadV, 0}, Ins: []ir.Instr{{Op: ir.OpVFused, A: 0, B: 0}, ret}},
		"fused micro-ops past aux":     {NumV: 1, Aux: []int32{1, 0, 0, 2, ir.FuseLoadV, 0}, Ins: []ir.Instr{{Op: ir.OpVFused, A: 0, B: 0}, ret}},
		"fused slot 16":                {NumV: 1, Aux: fused(1, mop(ir.FuseLoadV, 0), mop(ir.FuseLoadSF, ir.MaxFuseOperands), mop(ir.FuseAdd, 0)), Ins: []ir.Instr{{Op: ir.OpVFused, A: 0, B: 0}, ret}},
		"fused micro-op code 42":       {NumV: 1, Aux: fused(1, mop(ir.FuseLoadV, 0), mop(42, 0)), Ins: []ir.Instr{{Op: ir.OpVFused, A: 0, B: 0}, ret}},
		"fused load of operand 1 of 1": {NumV: 1, Aux: fused(1, mop(ir.FuseLoadV, 1)), Ins: []ir.Instr{{Op: ir.OpVFused, A: 0, B: 0}, ret}},
		"fused math id past MathFns":   {NumV: 1, MathFns: []string{"sin"}, Aux: fused(1, mop(ir.FuseLoadV, 0), mop(ir.FuseMath, 1)), Ins: []ir.Instr{{Op: ir.OpVFused, A: 0, B: 0}, ret}},
		"fused stack underflow":        {NumV: 1, Aux: fused(1, mop(ir.FuseLoadV, 0), mop(ir.FuseAdd, 0)), Ins: []ir.Instr{{Op: ir.OpVFused, A: 0, B: 0}, ret}},
		"fused kernel leaves two":      {NumV: 1, Aux: fused(1, mop(ir.FuseLoadV, 0), mop(ir.FuseLoadV, 0)), Ins: []ir.Instr{{Op: ir.OpVFused, A: 0, B: 0}, ret}},
		"fused kernel of no micro-op":  {NumV: 1, Aux: fused(1), Ins: []ir.Instr{{Op: ir.OpVFused, A: 0, B: 0}, ret}},
		"fuse argument slot 16":        {NumF: 1, Ins: []ir.Instr{{Op: ir.OpVFuseArgF, A: ir.MaxFuseOperands, B: 0}, ret}},
		"gun operator code 5":          {NumV: 1, Ins: []ir.Instr{{Op: ir.OpGUn, A: 0, B: 0, D: ir.UnCTrans + 1}, ret}},
		"gun negative operator code":   {NumV: 1, Ins: []ir.Instr{{Op: ir.OpGUn, A: 0, B: 0, D: -1}, ret}},
		"vconst past the pool":         {NumV: 1, VPoolStrs: []ir.VConstDesc{{IsColon: true}}, Ins: []ir.Instr{{Op: ir.OpVConst, A: 0, B: 1}, ret}},

		// What bind, ret and the spill-slot instructions index.
		"V parameter v5 of one register": {NumV: 1, Params: []ir.ParamBinding{{Bank: ir.BankV, Reg: 5}}, Ins: []ir.Instr{ret}},
		"negative F parameter":           {NumF: 1, Params: []ir.ParamBinding{{Bank: ir.BankF, Reg: -1}}, Ins: []ir.Instr{ret}},
		"I parameter in slot 1 of 1":     {NumI: 4, SlotsI: 1, Params: []ir.ParamBinding{{Bank: ir.BankI, Reg: 1, Slot: true}}, Ins: []ir.Instr{ret}},
		"V parameter in a spill slot":    {NumV: 1, Params: []ir.ParamBinding{{Bank: ir.BankV, Reg: 0, Slot: true}}, Ins: []ir.Instr{ret}},
		"parameter of no bank":           {NumV: 1, Params: []ir.ParamBinding{{Bank: ir.BankNone, Reg: 0}}, Ins: []ir.Instr{ret}},
		"output v5 of one register":      {NumV: 1, OutRegs: []int32{5}, Ins: []ir.Instr{ret}},
		"output v-2":                     {NumV: 1, OutRegs: []int32{-2}, Ins: []ir.Instr{ret}},
		"fldslot slot 5 of none":         {NumF: 1, Ins: []ir.Instr{{Op: ir.OpFLdSlot, A: 0, B: 5}, ret}},
		"fstslot slot 1 of 1":            {NumF: 1, SlotsF: 1, Ins: []ir.Instr{{Op: ir.OpFStSlot, A: 1, B: 0}, ret}},
		"ildslot negative slot":          {NumI: 1, SlotsI: 2, Ins: []ir.Instr{{Op: ir.OpILdSlot, A: 0, B: -1}, ret}},
		"istslot slot of the F bank":     {NumI: 1, SlotsF: 3, Ins: []ir.Instr{{Op: ir.OpIStSlot, A: 2, B: 0}, ret}},
		"cldslot slot 2 of 2":            {NumC: 1, SlotsC: 2, Ins: []ir.Instr{{Op: ir.OpCLdSlot, A: 0, B: 2}, ret}},
		"cstslot slot 3 of none":         {NumC: 1, Ins: []ir.Instr{{Op: ir.OpCStSlot, A: 3, B: 0}, ret}},
		"fldslot into f-1":               {NumF: 1, SlotsF: 1, Ins: []ir.Instr{{Op: ir.OpFLdSlot, A: -1, B: 0}, ret}},
		"cstslot from c1 of one":         {NumC: 1, SlotsC: 1, Ins: []ir.Instr{{Op: ir.OpCStSlot, A: 0, B: 1}, ret}},
	} {
		p.Name, p.Allocated = "bad", true
		if _, err := Prepare(p); err == nil {
			t.Errorf("%s: Prepare accepted it", name)
		}
	}
	ok := &ir.Prog{Name: "ok", NumF: 2, NumI: 2, NumC: 1, NumV: 3, SlotsF: 1, SlotsI: 2, SlotsC: 1, Allocated: true,
		MathFns: []string{"sin"}, Builtins: []string{"abs"}, Calls: []string{"f"}, VPoolStrs: []ir.VConstDesc{{IsColon: true}},
		Params:  []ir.ParamBinding{{Bank: ir.BankV, Reg: 2}, {Bank: ir.BankF, Reg: 1}, {Bank: ir.BankI, Reg: 1, Slot: true}, {Bank: ir.BankC, Reg: 0}},
		OutRegs: []int32{2, ir.Staged},
		Aux: append([]int32{
			0, 0, -1, 0, // gemv
			2, 1, 0, 2, 0, 1, // gcat at 4: [v0 ; v0 v1]
			1, 2, // subscripts at 10
			0, 1, 2, 1, 0, // builtin at 12: v2 = abs(v0)
			0, 1, ir.Staged, 2, 1, ir.Staged, // call at 17: [staged] = f(v1, staged)
		}, fused(1, mop(ir.FuseLoadV, 0), mop(ir.FuseLoadSF, 15), mop(ir.FuseAdd, 0), mop(ir.FuseMath, 0))...), // at 23
		Ins: []ir.Instr{
			{Op: ir.OpFMath, A: 1, B: 0, C: 0},
			{Op: ir.OpCMath, A: 0, B: 0, C: 0},
			{Op: ir.OpGEMV, A: 0, B: 0, C: ir.GEMVTrans, Imm: -1},
			{Op: ir.OpBrILt, A: 0, B: 1, C: 0},
			{Op: ir.OpFLd1, A: 0, B: 0, C: 1},
			{Op: ir.OpGCat, A: 1, B: 4},
			{Op: ir.OpGIndex, A: 2, B: 1, C: 10},
			{Op: ir.OpGAssign, A: 2, C: 10, D: 0},
			{Op: ir.OpGBuiltin, A: 12},
			{Op: ir.OpCallUser, A: 17},
			{Op: ir.OpVFuseArgF, A: 15, B: 0},
			{Op: ir.OpVFused, A: 2, B: 23},
			{Op: ir.OpGUn, A: 1, B: 2, D: ir.UnCTrans},
			{Op: ir.OpVConst, A: 2, B: 0},
			{Op: ir.OpFStSlot, A: 0, B: 1},
			{Op: ir.OpILdSlot, A: 1, B: 1},
			{Op: ir.OpCLdSlot, A: 0, B: 0},
			ret,
		}}
	if _, err := Prepare(ok); err != nil {
		t.Errorf("a well-formed program: %v", err)
	}
	if a := testing.AllocsPerRun(10, func() { _ = verify(ok) }); a != 0 {
		t.Errorf("verify allocates %v times on a well-formed program", a)
	}
}

// fuzzHost raises its cancel flag after a bounded number of basic blocks
// (counted by the block hook), so every accepted program terminates.
type fuzzHost struct {
	*testHost
	flag cancel.Flag
}

func (h *fuzzHost) CancelFlag() *cancel.Flag { return &h.flag }

// runnable are the opcodes FuzzPrepare executes as well as verifies: every
// opcode whose operands verify checks in full. The others rest on what
// the compiler proves (the unchecked subscripts), need a callee's result
// (fetch), or allocate what a register says (growing stores, vnew,
// vensure, gassign, gcolon, and gbin, whose product can square a size),
// which an arbitrary register makes arbitrarily large.
var runnable = func() []ir.Op {
	var ops []ir.Op
	for op := ir.OpNop; op <= lastOp; op++ {
		switch op {
		case ir.OpFLd1U, ir.OpFLd2U, ir.OpCLd1U, ir.OpCLd2U, ir.OpFSt1U, ir.OpFSt2U,
			ir.OpFSt1, ir.OpFSt1I, ir.OpFSt2, ir.OpFSt2I, ir.OpVNewZeros, ir.OpVEnsure,
			ir.OpGBin, ir.OpGAssign, ir.OpGColon, ir.OpFetchF, ir.OpFetchI,
			ir.OpVCheck, ir.OpCount:
			continue
		}
		ops = append(ops, op)
	}
	return ops
}()

// fuzzProg decodes data into a program over small banks. The first byte
// counts the aux words that follow it (mod 32), each a byte mod 32 less 2
// (so -1 is Staged, 0 a register, micro-op code or slot, up to 29). Then
// come six bytes an instruction, the first choosing among the runnable
// opcodes (high bit set) or any 16-bit opcode number at all, the others
// fields around each bank's range. The bytes left over, fewer than six,
// set the frame: the parameter's bank (mod 5, so BankNone too) and
// whether it is in a spill slot (high bit set), its register or slot, the
// output's V register (-1 is Staged), and the spill slots of each scalar
// bank (mod 4).
func fuzzProg(data []byte) (p *ir.Prog, runs bool) {
	p = &ir.Prog{
		Name: "fuzz", NumF: 4, NumI: 4, NumC: 3, NumV: 3, Allocated: true,
		ConstF: []float64{1, -0.5}, ConstI: []int64{1, 3}, ConstC: []complex128{1 + 1i},
		MathFns:   []string{"sin", "sqrt"},
		Builtins:  []string{"abs", "size", "sum"},
		Calls:     []string{"f"},
		VPoolStrs: []ir.VConstDesc{{IsColon: true}, {Str: "ab"}},
		Params:    []ir.ParamBinding{{Bank: ir.BankV, Reg: 0}},
		OutRegs:   []int32{0},
	}
	if len(data) > 0 {
		n := min(int(data[0]%32), len(data)-1)
		for _, b := range data[1 : 1+n] {
			p.Aux = append(p.Aux, int32(b%32)-2)
		}
		data = data[1+n:]
	}
	field := func(b byte) int32 { return int32(b%8) - 1 }
	runs = true
	for ; len(data) >= 6; data = data[6:] {
		in := ir.Instr{A: field(data[1]), B: field(data[2]), C: field(data[3]), D: field(data[4]), Imm: float64(int8(data[5]))}
		if data[0] >= 0x80 {
			in.Op = runnable[int(data[0]-0x80)%len(runnable)]
		} else {
			in.Op = ir.Op(data[0]) % (lastOp + 4)
			runs = runs && slices.Contains(runnable, in.Op)
		}
		p.Ins = append(p.Ins, in)
	}
	if len(data) > 0 {
		p.Params[0] = ir.ParamBinding{Bank: ir.Bank(data[0] % 5), Slot: data[0] >= 0x80}
	}
	if len(data) > 1 {
		p.Params[0].Reg = field(data[1])
	}
	if len(data) > 2 {
		p.OutRegs[0] = field(data[2])
	}
	if len(data) > 3 {
		n := int32(data[3] % 4)
		p.SlotsF, p.SlotsI, p.SlotsC = n, n, n
	}
	return p, runs
}

// FuzzPrepare: every program Prepare accepts has each register operand in
// its bank, aux blocks included, by a check of its own through ir's
// operand table, and runs (when it is made of runnable opcodes) to a
// result, a *vm.Error or an interruption — never a panic or a fault.
func FuzzPrepare(f *testing.F) {
	ret := []byte{byte(ir.OpRet), 0, 0, 0, 0, 0}
	f.Add([]byte{0, 0x80 + 1, 1, 0, 0, 0, 0})                                                         // jmp 0: interrupted
	f.Add(append([]byte{0, byte(ir.OpFAdd), 1, 2, 4, 0, 0}, ret...))                                  // fadd f0, f1, =-0.5
	f.Add(append([]byte{0, byte(ir.OpFLd1), 1, 1, 3, 0, 0}, ret...))                                  // fld1 f0, v0, =1
	f.Add(append([]byte{0, byte(ir.OpFLd1), 1, 1, 3, 0, 0, byte(ir.OpBrFLt), 1, 2, 1, 0, 0}, ret...)) // a loop
	f.Add(append([]byte{0, byte(ir.OpFMath), 1, 1, 2, 0, 0}, ret...))                                 // sqrt
	f.Add(append([]byte{0, byte(ir.OpVMov), 1, 2, 0, 0, 0, byte(ir.OpFtoI), 1, 1, 0, 0, 0}, ret...))
	// Programs with aux blocks; a field byte is its value plus one.
	withAux := func(aux []int32, ins ...byte) []byte {
		b := []byte{byte(len(aux))}
		for _, x := range aux {
			b = append(b, byte(x+2))
		}
		return append(append(b, ins...), ret...)
	}
	f.Add(withAux([]int32{1, 2, 0, 0}, // v1 = [v0 v0]; v0 = v1; again: the value doubles every trip
		byte(ir.OpGCat), 2, 1, 0, 0, 0, byte(ir.OpVMov), 1, 2, 0, 0, 0, byte(ir.OpJmp), 1, 0, 0, 0, 0))
	f.Add(withAux([]int32{1, 2, 0, 1, 2, 1, 1}, // v2 = ':'; v1 = v0(v2); v2 = abs(v1)
		byte(ir.OpVConst), 3, 1, 0, 0, 0, byte(ir.OpGIndex), 2, 1, 1, 0, 0, byte(ir.OpGBuiltin), 3, 0, 0, 0, 0))
	f.Add(withAux([]int32{0, 1, 1, 2, 0, ir.Staged}, // [v1] = f(v0, f0)
		byte(ir.OpStageF), 2, 1, 0, 0, 0, byte(ir.OpCallUser), 1, 0, 0, 0, 0))
	f.Add(withAux([]int32{0, 0, -1, 1}, // v2 = -(v0.'*v0)
		byte(ir.OpGEMV), 3, 1, 2, 0, 0xff))
	f.Add(withAux([]int32{1, 0, 1, 5, ir.FuseLoadV, 0, ir.FuseNeg, 0, ir.FuseLoadSF, 2, ir.FuseAdd, 0, ir.FuseMath, 1}, // v1 = sqrt(-v0 + f0); v2 = v1.'
		byte(ir.OpVFuseArgF), 3, 1, 0, 0, 0, byte(ir.OpVFused), 2, 1, 1, 0, 0, byte(ir.OpGUn), 3, 2, 0, 4, 0))
	// Frames that bind, ret and the spill-slot instructions would index
	// outside: parameter v5, output v5, fldslot 5 of none, cstslot 2 of 2.
	f.Add(append(append([]byte{0}, ret...), byte(ir.BankV), 6))
	f.Add(append(append([]byte{0}, ret...), byte(ir.BankV), 1, 6))
	f.Add(append([]byte{0, 0x80 + byte(slices.Index(runnable, ir.OpFLdSlot)), 1, 6, 0, 0, 0}, ret...))
	f.Add(append([]byte{0, 0x80 + byte(slices.Index(runnable, ir.OpCStSlot)), 3, 1, 0, 0, 0}, append(ret, byte(ir.BankV), 1, 1, 2)...))
	// A spilled F parameter reloaded and stored back, returned staged.
	f.Add(append([]byte{0, 0x80 + byte(slices.Index(runnable, ir.OpFLdSlot)), 1, 2, 0, 0, 0,
		0x80 + byte(slices.Index(runnable, ir.OpFStSlot)), 1, 1, 0, 0, 0}, append(ret, 0x80|byte(ir.BankF), 2, 0, 3)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, runs := fuzzProg(data)
		c, err := Prepare(p)
		if err != nil {
			return
		}
		regs := map[ir.Bank]int32{ir.BankF: p.NumF, ir.BankI: p.NumI, ir.BankC: p.NumC, ir.BankV: p.NumV}
		slots := map[ir.Bank]int32{ir.BankF: p.SlotsF, ir.BankI: p.SlotsI, ir.BankC: p.SlotsC}
		for _, b := range p.Params {
			if lim, ok := regs[b.Bank]; b.Slot {
				if lim, ok = slots[b.Bank]; !ok || b.Reg < 0 || b.Reg >= lim {
					t.Fatalf("accepted parameter %+v: spill slots %d", b, lim)
				}
			} else if !ok || b.Reg < 0 || b.Reg >= lim {
				t.Fatalf("accepted parameter %+v: registers %d", b, lim)
			}
		}
		for _, r := range p.OutRegs {
			if r != ir.Staged && (r < 0 || r >= p.NumV) {
				t.Fatalf("accepted output v%d of %d", r, p.NumV)
			}
		}
		var uses [3]ir.Operand
		for pc := range p.Ins {
			in := &p.Ins[pc]
			ops := in.Uses(&uses)
			if d, ok := in.Def(); ok {
				ops = append(ops[:len(ops):len(ops)], d)
			}
			for _, o := range ops {
				if *o.Reg < 0 || *o.Reg >= regs[o.Bank] {
					t.Fatalf("accepted %v at %d: %v register %d of %d", *in, pc, o.Bank, *o.Reg, regs[o.Bank])
				}
			}
			in.VOperands(p.Aux, func(r int32, _ ir.Access) {
				if (r < 0 || r >= p.NumV) && !(r == ir.Staged && in.Op == ir.OpCallUser) {
					t.Fatalf("accepted %v at %d: v%d of %d", *in, pc, r, p.NumV)
				}
			})
			if tg := in.Target(); tg != nil && (*tg < 0 || int(*tg) >= len(p.Ins)) {
				t.Fatalf("accepted %v at %d: target %d of %d", *in, pc, *tg, len(p.Ins))
			}
			if (in.Op == ir.OpFMath || in.Op == ir.OpCMath) && (in.C < 0 || int(in.C) >= len(p.MathFns)) {
				t.Fatalf("accepted %v at %d: math function %d of %d", *in, pc, in.C, len(p.MathFns))
			}
			if r, k, ok := in.Spill(); ok && (*r.Reg < 0 || *r.Reg >= regs[r.Bank] || k < 0 || k >= slots[r.Bank]) {
				t.Fatalf("accepted %v at %d: %v register %d of %d, spill slot %d of %d", *in, pc, r.Bank, *r.Reg, regs[r.Bank], k, slots[r.Bank])
			}
		}
		if !runs {
			return
		}
		h := &fuzzHost{testHost: newTestHost()}
		h.calls["f"] = func(args []*mat.Value, nout int) ([]*mat.Value, error) {
			outs := make([]*mat.Value, nout)
			for i := range outs {
				outs[i] = mat.Scalar(float64(len(args)))
			}
			return outs, nil
		}
		blocks := 0
		SetBlockHook(func([]ir.Instr) {
			if blocks++; blocks > 64 {
				h.flag.Raise()
			}
		})
		defer SetBlockHook(nil)
		// A concatenation in a loop can double a value every trip, and
		// gemv's product of a column and a row squares its size: the step
		// hook, which sees every V write, drops what outgrows 256 elements.
		SetStepHook(func(_ *ir.Prog, _ int, regs, _ []*mat.Value) {
			for i, v := range regs {
				if v != nil && v.Numel() > 256 {
					regs[i] = nil
				}
			}
		})
		defer SetStepHook(nil)
		if c, err = Prepare(p); err != nil {
			t.Fatalf("instrumented: %v", err)
		}
		arg := mat.FromSlice(2, 2, []float64{1, 2, 3, math.NaN()})
		if p.Params[0].Bank != ir.BankV {
			arg = mat.IntScalar(2)
		}
		_, err = Run(c, h, Boxed(nil, []*mat.Value{arg}), nil)
		var vmErr *Error
		if err != nil && !errors.As(err, &vmErr) {
			t.Fatalf("%v ended in %T %v", p.Disasm(), err, err)
		}
	})
}

// TestEveryOpcodeHasOneHome: every opcode ir declares is a case of exactly
// one of the loop, exec's call protocol and step, except the instructions
// whose common case the loop runs and step the rest: those are cases of
// the loop and of step. lastOp, the highest opcode verify admits, is the
// highest ir declares.
func TestEveryOpcodeHasOneHome(t *testing.T) {
	both := map[string]bool{
		"OpFLd1": true, "OpFLd1I": true, "OpFLd2": true, "OpFLd2I": true,
		"OpFSt1": true, "OpFSt1I": true, "OpFSt1U": true, "OpFSt2": true, "OpFSt2I": true, "OpFSt2U": true,
		"OpVEnsure": true,
	}
	declared := irOpcodes(t)
	if int(lastOp) != len(declared)-1 {
		t.Fatalf("lastOp is %v, ir declares %d opcodes up to %s", lastOp, len(declared), declared[len(declared)-1])
	}
	homes := map[string][]string{}
	fset := token.NewFileSet()
	for _, file := range []string{"dispatch.go", "vm.go"} {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name != "loop" && fn.Name.Name != "exec" && fn.Name.Name != "step" {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok || !isOpTag(sw.Tag) {
					return true
				}
				for _, s := range sw.Body.List {
					for _, e := range s.(*ast.CaseClause).List {
						if sel, ok := e.(*ast.SelectorExpr); ok {
							homes[sel.Sel.Name] = append(homes[sel.Sel.Name], fn.Name.Name)
						}
					}
				}
				return true
			})
		}
	}
	for _, op := range declared {
		h := homes[op]
		sort.Strings(h)
		switch got := strings.Join(h, " "); {
		case both[op] && got != "loop step":
			t.Errorf("%s: a case of %q, want the loop's and step's", op, got)
		case !both[op] && len(h) != 1:
			t.Errorf("%s: a case of %q, want exactly one", op, got)
		}
	}
}

// isOpTag reports whether a switch is on an instruction's opcode.
func isOpTag(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Op"
}

// irOpcodes lists the opcodes ir declares, in order: the constants of the
// block that ends in numOps.
func irOpcodes(t *testing.T) []string {
	f, err := parser.ParseFile(token.NewFileSet(), "../ir/ir.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok || g.Tok != token.CONST {
			continue
		}
		var names []string
		for _, s := range g.Specs {
			for _, n := range s.(*ast.ValueSpec).Names {
				names = append(names, n.Name)
			}
		}
		if len(names) > 0 && names[len(names)-1] == "numOps" {
			return names[:len(names)-1]
		}
	}
	t.Fatal("no opcode block in ir.go")
	return nil
}
