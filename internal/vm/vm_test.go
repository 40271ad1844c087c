package vm

import (
	"fmt"
	"math"
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
func (h *testHost) CallUser(name string, args []Operand, nout int, _ *Frame) ([]Operand, error) {
	f, ok := h.calls[name]
	if !ok {
		return nil, mat.Errorf("no function %q", name)
	}
	outs, err := f(BoxAll(nil, args), nout)
	return Boxed(nil, outs), err
}

// runBoxed is Run from the boxed side of the call boundary, as the engine
// calls it: boxed arguments in, every result boxed on the way out.
func runBoxed(c *Compiled, h Host, args []*mat.Value) ([]*mat.Value, error) {
	outs, err := Run(c, h, Boxed(nil, args), nil)
	if err != nil {
		return nil, err
	}
	return BoxAll(nil, outs), nil
}

// fconst and iconst give a hand-written program one more constant and
// return its register: the next of the bank, whose top the tables fill.
func fconst(p *ir.Prog, v float64) int32 {
	p.ConstF, p.NumF = append(p.ConstF, v), p.NumF+1
	return p.NumF - 1
}

func iconst(p *ir.Prog, v int64) int32 {
	p.ConstI, p.NumI = append(p.ConstI, v), p.NumI+1
	return p.NumI - 1
}

// run builds a Compiled from raw instructions and executes it.
func run(t *testing.T, p *ir.Prog, args ...*mat.Value) []*mat.Value {
	t.Helper()
	p.Allocated = true // hand-written programs use physical registers
	c, err := Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := runBoxed(c, newTestHost(), args)
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
	_, err = runBoxed(c, newTestHost(), args)
	return err
}

func TestScalarArithmeticProgram(t *testing.T) {
	// f(x) = (x + 2) * 3 computed in F registers
	p := &ir.Prog{
		Name: "t",
		NumF: 4, NumV: 1,
		Params:  []ir.ParamBinding{{Bank: ir.BankF, Reg: 0}},
		OutRegs: []int32{0},
	}
	p.Ins = []ir.Instr{
		{Op: ir.OpFAdd, A: 2, B: 0, C: fconst(p, 2)},
		{Op: ir.OpFMul, A: 3, B: 2, C: fconst(p, 3)},
		{Op: ir.OpBoxF, A: 0, B: 3},
		{Op: ir.OpRet},
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
		NumI: 3, NumV: 1,
		Params:  []ir.ParamBinding{{Bank: ir.BankI, Reg: 0}},
		OutRegs: []int32{0},
	}
	one := iconst(p, 1)
	p.Ins = []ir.Instr{
		{Op: ir.OpIMov, A: 1, B: iconst(p, 0)}, // acc
		{Op: ir.OpIMov, A: 2, B: one},          // i
		// head: if n < i goto exit(6)
		{Op: ir.OpBrILt, A: 0, B: 2, C: 6},
		{Op: ir.OpIAdd, A: 1, B: 1, C: 2},
		{Op: ir.OpIAdd, A: 2, B: 2, C: one},
		{Op: ir.OpJmp, A: 2},
		{Op: ir.OpBoxI, A: 0, B: 1},
		{Op: ir.OpRet},
	}
	outs := run(t, p, mat.Scalar(100))
	if got := outs[0].MustScalar(); got != 5050 {
		t.Fatalf("got %g", got)
	}
}

func TestCheckedLoadErrors(t *testing.T) {
	mk := func(idx float64) *ir.Prog {
		p := &ir.Prog{
			Name: "ld",
			NumF: 2, NumV: 2,
			Params:  []ir.ParamBinding{{Bank: ir.BankV, Reg: 0}},
			OutRegs: []int32{1},
		}
		p.Ins = []ir.Instr{
			{Op: ir.OpFLd1, A: 1, B: 0, C: fconst(p, idx)},
			{Op: ir.OpBoxF, A: 1, B: 1},
			{Op: ir.OpRet},
		}
		return p
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
	// The store itself clones the shared argument before it grows it.
	p := &ir.Prog{
		Name:    "st",
		NumV:    1,
		Params:  []ir.ParamBinding{{Bank: ir.BankV, Reg: 0}},
		OutRegs: []int32{0},
	}
	p.Ins = []ir.Instr{
		{Op: ir.OpFSt1, A: 0, B: fconst(p, 5), C: fconst(p, 42)},
		{Op: ir.OpRet},
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
	outs, err := runBoxed(c, h, []*mat.Value{mat.Scalar(21)})
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

// TestPrepareRejectsMisfitConstantTables: the constant tables fill the top
// of the scalar banks, so a program whose tables are larger than its
// banks, or that has tables but was never allocated (its constants are
// still negative register numbers), cannot have come from this compiler.
// Programs reach Prepare from snapshots and /cluster/ingest too.
func TestPrepareRejectsMisfitConstantTables(t *testing.T) {
	ret := []ir.Instr{{Op: ir.OpRet}}
	for name, p := range map[string]*ir.Prog{
		"F table over its bank": {Name: "f", NumF: 2, ConstF: []float64{1, 2, 3}, Ins: ret, Allocated: true},
		"I table over its bank": {Name: "i", NumF: 4, ConstI: []int64{7}, Ins: ret, Allocated: true},
		"C table over its bank": {Name: "c", NumC: 1, ConstC: []complex128{1i, 2i}, Ins: ret, Allocated: true},
		"tables, not allocated": {Name: "u", NumF: 8, ConstF: []float64{1}, Ins: ret},
	} {
		if _, err := Prepare(p); err == nil {
			t.Errorf("%s: Prepare accepted it", name)
		}
	}
	ok := &ir.Prog{Name: "ok", NumF: 3, NumI: 1, ConstF: []float64{1, 2}, ConstI: []int64{7}, Ins: ret, Allocated: true}
	if _, err := Prepare(ok); err != nil {
		t.Errorf("tables that fit: %v", err)
	}
}

func TestRuntimeErrorCarriesLocation(t *testing.T) {
	p := &ir.Prog{
		Name: "boom",
		NumF: 1, NumV: 1,
		Params:  []ir.ParamBinding{{Bank: ir.BankV, Reg: 0}},
		OutRegs: []int32{0},
	}
	p.Ins = []ir.Instr{
		{Op: ir.OpNop},
		{Op: ir.OpFLd1, A: 0, B: 0, C: fconst(p, 99)},
		{Op: ir.OpRet},
	}
	err := runErr(t, p, mat.Scalar(1))
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "boom+1") {
		t.Errorf("error lacks pc info: %v", err)
	}
}

// TestOperandsBindLikeTheirBoxes: a scalar that arrives in a register
// lands in a parameter of any bank exactly as the box it replaces would
// — same bits, same kind once boxed again, same error with the same
// words — for every class pairing, including the values no integer test
// or range orders.
func TestOperandsBindLikeTheirBoxes(t *testing.T) {
	// identity(bank) returns its parameter from a register of that bank.
	identity := func(bank ir.Bank) *Compiled {
		p := &ir.Prog{Name: "id", NumF: 1, NumI: 1, NumC: 1, NumV: 2,
			Params: []ir.ParamBinding{{Bank: bank, Reg: 0}}, Allocated: true}
		switch bank {
		case ir.BankF:
			p.Ins = []ir.Instr{{Op: ir.OpStageF, A: 0, B: 0}, {Op: ir.OpRet}}
			p.OutRegs = []int32{ir.Staged}
		case ir.BankI:
			p.Ins = []ir.Instr{{Op: ir.OpStageI, A: 0, B: 0}, {Op: ir.OpRet}}
			p.OutRegs = []int32{ir.Staged}
		case ir.BankC:
			p.Ins = []ir.Instr{{Op: ir.OpBoxC, A: 1, B: 0}, {Op: ir.OpRet}}
			p.OutRegs = []int32{1}
		default:
			p.Ins = []ir.Instr{{Op: ir.OpRet}}
			p.OutRegs = []int32{0}
		}
		c, err := Prepare(p)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var operands []Operand
	for _, x := range []float64{0, math.Copysign(0, -1), 1, -7, 0.5, 1 << 53, -(1 << 53), 1e300, math.NaN(), math.Inf(1)} {
		operands = append(operands, Operand{F: x, Bank: ir.BankF})
		if x == math.Trunc(x) && math.Abs(x) <= 1<<53 {
			operands = append(operands, Operand{I: int64(x), Bank: ir.BankI})
		}
	}
	describe := func(outs []Operand, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		v := outs[0].Box()
		s := fmt.Sprintf("%v %dx%d %016x", v.Kind(), v.Rows(), v.Cols(), math.Float64bits(v.Re()[0]))
		if v.Kind() == mat.Complex {
			s += fmt.Sprintf(" %016x", math.Float64bits(v.Im()[0]))
		}
		return s
	}
	h := newTestHost()
	for _, bank := range []ir.Bank{ir.BankF, ir.BankI, ir.BankC, ir.BankV} {
		c := identity(bank)
		for _, o := range operands {
			staged := describe(Run(c, h, []Operand{o}, nil))
			boxed := describe(Run(c, h, []Operand{{V: o.Box()}}, nil))
			if staged != boxed {
				t.Errorf("%v parameter, operand %+v: in a register %q, boxed %q", bank, o, staged, boxed)
			}
		}
	}
	// And the register really is a register: -0 and NaN keep their bits.
	outs, err := Run(identity(ir.BankF), h, []Operand{{F: math.Copysign(0, -1), Bank: ir.BankF}}, nil)
	if err != nil || outs[0].V != nil || outs[0].Bank != ir.BankF || !math.Signbit(outs[0].F) {
		t.Errorf("-0 through an F parameter and an F output: %+v, %v", outs, err)
	}
}
