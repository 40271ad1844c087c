package vm

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/mat"
)

// gemvProg builds dst = alpha*A*x + beta*y through OpGEMV.
func gemvProg(alpha float64, betaCode int32, withY bool) *ir.Prog {
	p := &ir.Prog{
		Name: "g",
		NumV: 4,
		Params: []ir.ParamBinding{
			{Bank: ir.BankV, Reg: 0},
			{Bank: ir.BankV, Reg: 1},
			{Bank: ir.BankV, Reg: 2},
		},
	}
	yReg := int32(2)
	if !withY {
		yReg = -1
	}
	aux := p.AddAux(0, 1, yReg, betaCode)
	p.Ins = []ir.Instr{
		{Op: ir.OpGEMV, A: 3, B: aux, Imm: alpha},
		{Op: ir.OpRet},
	}
	p.OutRegs = []int32{3}
	return p
}

func TestGEMVFastPath(t *testing.T) {
	a := mat.FromSlice(2, 2, []float64{1, 2, 3, 4})
	x := mat.FromSlice(2, 1, []float64{1, 1})
	y := mat.FromSlice(2, 1, []float64{10, 20})
	// dst = -1*A*x + 1*y = y - A*x; A*x = [3; 7]
	outs := run(t, gemvProg(-1, 1, true), a, x, y)
	if outs[0].Re()[0] != 7 || outs[0].Re()[1] != 13 {
		t.Fatalf("y - A*x = %v", outs[0])
	}
	// beta = 0 form
	outs = run(t, gemvProg(1, 0, false), a, x, y)
	if outs[0].Re()[0] != 3 || outs[0].Re()[1] != 7 {
		t.Fatalf("A*x = %v", outs[0])
	}
}

func TestGEMVSemanticFallback(t *testing.T) {
	// complex operands force the non-BLAS path; results must still be
	// exact
	a := mat.NewKind(mat.Complex, 2, 2)
	copy(a.Re(), []float64{1, 2, 3, 4})
	a.Im()[0] = 1 // A(1,1) = 1+1i
	x := mat.FromSlice(2, 1, []float64{1, 1})
	y := mat.FromSlice(2, 1, []float64{10, 20})
	outs := run(t, gemvProg(1, 1, true), a, x, y)
	got := outs[0]
	if got.Kind() != mat.Complex {
		t.Fatalf("fallback lost complex kind: %v", got)
	}
	// A*x = [(1+1i)+3; 2+4] = [4+1i; 6]; +y → [14+1i; 26]
	if got.ComplexAt(0) != 14+1i || got.ComplexAt(1) != 26 {
		t.Fatalf("fallback result %v", got)
	}
	// shape-mismatched y also falls back... to an error from Add
	badY := mat.FromSlice(3, 1, []float64{1, 2, 3})
	if err := runErr(t, gemvProg(1, 1, true), a, x, badY); err == nil {
		t.Fatal("mismatched y must error")
	}
}

func TestGColonAndGCat(t *testing.T) {
	p := &ir.Prog{
		Name: "c",
		NumF: 3,
		NumV: 6,
	}
	// v = 1:3; m = [v; v*0-1 rows]: build [1 2 3] then cat two rows
	catAux := p.AddAux(2 /*rows*/, 1, 4 /*row1: reg4*/, 1, 4 /*row2: reg4*/)
	one := fconst(p, 1)
	p.Ins = []ir.Instr{
		{Op: ir.OpBoxF, A: 0, B: one},
		{Op: ir.OpBoxF, A: 1, B: one},
		{Op: ir.OpBoxF, A: 2, B: fconst(p, 3)},
		{Op: ir.OpGColon, A: 4, B: 0, C: 1, D: 2}, // V4 = 1:1:3
		{Op: ir.OpGCat, A: 5, B: catAux},          // V5 = [V4; V4]
		{Op: ir.OpRet},
	}
	p.OutRegs = []int32{5}
	outs := run(t, p)
	m := outs[0]
	if m.Rows() != 2 || m.Cols() != 3 || m.At(1, 2) != 3 {
		t.Fatalf("cat result %v (%dx%d)", m, m.Rows(), m.Cols())
	}
}

func TestGIndexColonMarker(t *testing.T) {
	p := &ir.Prog{
		Name:   "ix",
		NumI:   1,
		NumV:   4,
		Params: []ir.ParamBinding{{Bank: ir.BankV, Reg: 0}},
		VPoolStrs: []ir.VConstDesc{
			{IsColon: true},
		},
	}
	aux := p.AddAux(2, 1, 2) // args: V1 (colon), V2 (boxed column index)
	p.Ins = []ir.Instr{
		{Op: ir.OpVConst, A: 1, B: 0},
		{Op: ir.OpBoxI, A: 2, B: iconst(p, 2)},
		{Op: ir.OpGIndex, A: 3, B: 0, C: aux}, // V3 = A(:, 2)
		{Op: ir.OpRet},
	}
	p.OutRegs = []int32{3}
	a := mat.FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	outs := run(t, p, a)
	col := outs[0]
	if col.Rows() != 2 || col.Re()[0] != 2 || col.Re()[1] != 5 {
		t.Fatalf("A(:,2) = %v", col)
	}
}

func TestGAssignCopyOnWrite(t *testing.T) {
	p := &ir.Prog{
		Name:   "as",
		NumI:   1,
		NumV:   3,
		Params: []ir.ParamBinding{{Bank: ir.BankV, Reg: 0}},
	}
	aux := p.AddAux(1, 1) // one subscript in V1
	one := iconst(p, 1)
	p.Ins = []ir.Instr{
		{Op: ir.OpBoxI, A: 1, B: one},
		{Op: ir.OpBoxI, A: 2, B: one},          // rhs = 1
		{Op: ir.OpGAssign, A: 0, C: aux, D: 2}, // A(1) = 1
		{Op: ir.OpRet},
	}
	p.OutRegs = []int32{0}
	caller := mat.FromSlice(1, 3, []float64{7, 8, 9})
	outs := run(t, p, caller)
	if outs[0].Re()[0] != 1 {
		t.Fatalf("assignment lost: %v", outs[0])
	}
	if caller.Re()[0] != 7 {
		t.Fatalf("caller's array mutated through GAssign: %v", caller)
	}
}
