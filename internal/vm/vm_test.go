package vm

import (
	"strings"
	"testing"

	"repro/internal/builtins"
	"repro/internal/ir"
	"repro/internal/mat"
)

// testHost satisfies Host without an engine.
type testHost struct {
	ctx   *builtins.Context
	calls map[string]func(args []*mat.Value, nout int) ([]*mat.Value, error)
}

func newTestHost() *testHost {
	return &testHost{ctx: builtins.NewContext(), calls: map[string]func([]*mat.Value, int) ([]*mat.Value, error){}}
}

func (h *testHost) Context() *builtins.Context { return h.ctx }
func (h *testHost) CallUser(name string, args []*mat.Value, nout int, _ *Frame) ([]*mat.Value, error) {
	f, ok := h.calls[name]
	if !ok {
		return nil, mat.Errorf("no function %q", name)
	}
	return f(args, nout)
}

// run builds a Compiled from raw instructions and executes it.
func run(t *testing.T, p *ir.Prog, args ...*mat.Value) []*mat.Value {
	t.Helper()
	p.Allocated = true // hand-written programs use physical registers
	c, err := Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := Run(c, newTestHost(), args, nil)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

func runErr(t *testing.T, p *ir.Prog, args ...*mat.Value) error {
	t.Helper()
	p.Allocated = true
	c, err := Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(c, newTestHost(), args, nil)
	return err
}

func TestScalarArithmeticProgram(t *testing.T) {
	// f(x) = (x + 2) * 3 computed in F registers
	p := &ir.Prog{
		Name: "t",
		NumF: 4, NumV: 1,
		Params: []ir.ParamBinding{{Bank: ir.BankF, Reg: 0}},
		Ins: []ir.Instr{
			{Op: ir.OpFConst, A: 1, Imm: 2},
			{Op: ir.OpFAdd, A: 2, B: 0, C: 1},
			{Op: ir.OpFConst, A: 1, Imm: 3},
			{Op: ir.OpFMul, A: 3, B: 2, C: 1},
			{Op: ir.OpBoxF, A: 0, B: 3},
			{Op: ir.OpRet},
		},
		OutRegs: []int32{0},
	}
	outs := run(t, p, mat.Scalar(5))
	if got := outs[0].MustScalar(); got != 21 {
		t.Fatalf("got %g", got)
	}
}

func TestLoopProgram(t *testing.T) {
	// sum 1..n with I registers and a fused branch
	p := &ir.Prog{
		Name: "sum",
		NumI: 4, NumV: 1,
		Params: []ir.ParamBinding{{Bank: ir.BankI, Reg: 0}},
		Ins: []ir.Instr{
			{Op: ir.OpIConst, A: 1, Imm: 0}, // acc
			{Op: ir.OpIConst, A: 2, Imm: 1}, // i
			{Op: ir.OpIConst, A: 3, Imm: 1}, // one
			// head: if n < i goto exit(7)
			{Op: ir.OpBrILt, A: 0, B: 2, C: 7},
			{Op: ir.OpIAdd, A: 1, B: 1, C: 2},
			{Op: ir.OpIAdd, A: 2, B: 2, C: 3},
			{Op: ir.OpJmp, A: 3},
			{Op: ir.OpBoxI, A: 0, B: 1},
			{Op: ir.OpRet},
		},
		OutRegs: []int32{0},
	}
	outs := run(t, p, mat.Scalar(100))
	if got := outs[0].MustScalar(); got != 5050 {
		t.Fatalf("got %g", got)
	}
}

func TestCheckedLoadErrors(t *testing.T) {
	mk := func(idx float64) *ir.Prog {
		return &ir.Prog{
			Name: "ld",
			NumF: 2, NumV: 2,
			Params: []ir.ParamBinding{{Bank: ir.BankV, Reg: 0}},
			Ins: []ir.Instr{
				{Op: ir.OpFConst, A: 0, Imm: idx},
				{Op: ir.OpFLd1, A: 1, B: 0, C: 0},
				{Op: ir.OpBoxF, A: 1, B: 1},
				{Op: ir.OpRet},
			},
			OutRegs: []int32{1},
		}
	}
	v := mat.FromSlice(1, 3, []float64{10, 20, 30})
	outs := run(t, mk(2), v)
	if outs[0].MustScalar() != 20 {
		t.Fatal("checked load value")
	}
	for _, bad := range []float64{0, 4, 1.5, -1} {
		if err := runErr(t, mk(bad), v); err == nil {
			t.Errorf("index %g must fail", bad)
		}
	}
}

func TestCheckedStoreGrows(t *testing.T) {
	p := &ir.Prog{
		Name: "st",
		NumF: 2, NumV: 1,
		Params: []ir.ParamBinding{{Bank: ir.BankV, Reg: 0}},
		Ins: []ir.Instr{
			{Op: ir.OpVEnsureOwn, A: 0},
			{Op: ir.OpFConst, A: 0, Imm: 5},
			{Op: ir.OpFConst, A: 1, Imm: 42},
			{Op: ir.OpFSt1, A: 0, B: 0, C: 1},
			{Op: ir.OpRet},
		},
		OutRegs: []int32{0},
	}
	v := mat.FromSlice(1, 2, []float64{1, 2})
	outs := run(t, p, v)
	got := outs[0]
	if got.Cols() != 5 || got.Re()[4] != 42 {
		t.Fatalf("grown store: %v", got)
	}
	// the caller's value must be untouched (copy-on-write via shared flag)
	if v.Cols() != 2 {
		t.Fatalf("caller's array was mutated: %v", v)
	}
}

func TestUnboxErrors(t *testing.T) {
	p := &ir.Prog{
		Name: "ub",
		NumF: 1, NumV: 2,
		Params: []ir.ParamBinding{{Bank: ir.BankV, Reg: 0}},
		Ins: []ir.Instr{
			{Op: ir.OpUnboxF, A: 0, B: 0},
			{Op: ir.OpBoxF, A: 1, B: 0},
			{Op: ir.OpRet},
		},
		OutRegs: []int32{1},
	}
	if err := runErr(t, p, mat.New(2, 2)); err == nil {
		t.Error("unboxing a matrix must fail")
	}
	if err := runErr(t, p, mat.ComplexScalar(1i)); err == nil {
		t.Error("unboxing a complex scalar as real must fail")
	}
	outs := run(t, p, mat.Scalar(7))
	if outs[0].MustScalar() != 7 {
		t.Error("unbox value")
	}
}

func TestParamTypeMismatch(t *testing.T) {
	p := &ir.Prog{
		Name: "pm",
		NumI: 1, NumV: 1,
		Params: []ir.ParamBinding{{Bank: ir.BankI, Reg: 0}},
		Ins: []ir.Instr{
			{Op: ir.OpBoxI, A: 0, B: 0},
			{Op: ir.OpRet},
		},
		OutRegs: []int32{0},
	}
	if err := runErr(t, p, mat.Scalar(1.5)); err == nil {
		t.Error("fractional argument to int parameter must fail")
	}
	if err := runErr(t, p, mat.New(2, 2)); err == nil {
		t.Error("matrix argument to int parameter must fail")
	}
	// arity mismatch
	p2 := &ir.Prog{Name: "a", Params: []ir.ParamBinding{{Bank: ir.BankV, Reg: 0}}, NumV: 1,
		Ins: []ir.Instr{{Op: ir.OpRet}}}
	if err := runErr(t, p2); err == nil {
		t.Error("wrong arity must fail")
	}
}

func TestUserCallDispatch(t *testing.T) {
	p := &ir.Prog{
		Name:   "uc",
		NumV:   3,
		Params: []ir.ParamBinding{{Bank: ir.BankV, Reg: 0}},
		Calls:  []string{"double_it"},
		Ins: []ir.Instr{
			{Op: ir.OpCallUser, A: 0},
			{Op: ir.OpRet},
		},
		OutRegs: []int32{1},
	}
	p.AddAux(0 /*fn*/, 1 /*nout*/, 1 /*dst*/, 1 /*nargs*/, 0 /*arg reg*/)
	p.Allocated = true
	c, err := Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	h := newTestHost()
	h.calls["double_it"] = func(args []*mat.Value, nout int) ([]*mat.Value, error) {
		return []*mat.Value{mat.Scalar(2 * args[0].MustScalar())}, nil
	}
	outs, err := Run(c, h, []*mat.Value{mat.Scalar(21)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].MustScalar() != 42 {
		t.Fatalf("got %v", outs[0])
	}
}

func TestPrepareRejectsUnknownNames(t *testing.T) {
	p := &ir.Prog{Name: "x", Builtins: []string{"not_a_builtin_xyz"}, Ins: []ir.Instr{{Op: ir.OpRet}}}
	if _, err := Prepare(p); err == nil {
		t.Error("unknown builtin must fail at Prepare")
	}
	p2 := &ir.Prog{Name: "y", MathFns: []string{"nope"}, Ins: []ir.Instr{{Op: ir.OpRet}}}
	if _, err := Prepare(p2); err == nil {
		t.Error("unknown math function must fail at Prepare")
	}
}

func TestRuntimeErrorCarriesLocation(t *testing.T) {
	p := &ir.Prog{
		Name: "boom",
		NumF: 1, NumV: 1,
		Params: []ir.ParamBinding{{Bank: ir.BankV, Reg: 0}},
		Ins: []ir.Instr{
			{Op: ir.OpFConst, A: 0, Imm: 99},
			{Op: ir.OpFLd1, A: 0, B: 0, C: 0},
			{Op: ir.OpRet},
		},
		OutRegs: []int32{0},
	}
	err := runErr(t, p, mat.Scalar(1))
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "boom+1") {
		t.Errorf("error lacks pc info: %v", err)
	}
}
