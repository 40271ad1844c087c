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
// check, so Prepare must refuse every program whose operands could reach
// outside their bank — programs come from snapshots and /cluster/ingest
// too.
func TestPrepareRejects(t *testing.T) {
	ret := ir.Instr{Op: ir.OpRet}
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
		"gemv flag out of range":   {NumV: 1, Aux: []int32{0, 0, -1, 0}, Ins: []ir.Instr{{Op: ir.OpGEMV, A: 0, B: 0, C: 3}, ret}},
		"unknown opcode":           {Ins: []ir.Instr{{Op: lastOp + 1}, ret}},
		"falls off the end":        {NumF: 1, Ins: []ir.Instr{{Op: ir.OpFMov, A: 0, B: 0}}},
		"no instructions":          {},
		"negative bank":            {NumF: -1, Ins: []ir.Instr{ret}},
		"negative spill slots":     {SlotsV: -3, Ins: []ir.Instr{ret}},
	} {
		p.Name, p.Allocated = "bad", true
		if _, err := Prepare(p); err == nil {
			t.Errorf("%s: Prepare accepted it", name)
		}
	}
	ok := &ir.Prog{Name: "ok", NumF: 2, NumI: 2, NumV: 1, MathFns: []string{"sin"}, Allocated: true, Ins: []ir.Instr{
		{Op: ir.OpFMath, A: 1, B: 0, C: 0},
		{Op: ir.OpBrILt, A: 0, B: 1, C: 0},
		{Op: ir.OpFLd1, A: 0, B: 0, C: 1},
		ret,
	}}
	if _, err := Prepare(ok); err != nil {
		t.Errorf("a well-formed program: %v", err)
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
// opcode whose operands the operand table describes in full. The others
// rest on what the compiler proves (the unchecked subscripts), on aux
// blocks and spill slots the verifier does not cover and step checks,
// need a callee (fetch), or allocate what a register says (growing
// stores, vnew, vensure, the generic operators), which an arbitrary
// register makes arbitrarily large.
var runnable = func() []ir.Op {
	var ops []ir.Op
	for op := ir.OpNop; op <= lastOp; op++ {
		switch op {
		case ir.OpFLd1U, ir.OpFLd2U, ir.OpCLd1U, ir.OpCLd2U, ir.OpFSt1U, ir.OpFSt2U,
			ir.OpFSt1, ir.OpFSt1I, ir.OpFSt2, ir.OpFSt2I, ir.OpVNewZeros, ir.OpVEnsure,
			ir.OpGBin, ir.OpGUn, ir.OpGIndex, ir.OpGAssign, ir.OpGColon, ir.OpGCat, ir.OpGBuiltin,
			ir.OpCallUser, ir.OpFetchF, ir.OpFetchI, ir.OpGEMV, ir.OpVConst, ir.OpVFused, ir.OpVFuseArgF,
			ir.OpFLdSlot, ir.OpFStSlot, ir.OpILdSlot, ir.OpIStSlot, ir.OpCLdSlot, ir.OpCStSlot, ir.OpVLdSlot, ir.OpVStSlot,
			ir.OpVCheck, ir.OpCount:
			continue
		}
		ops = append(ops, op)
	}
	return ops
}()

// fuzzProg decodes data into a program over small banks: six bytes an
// instruction, the first choosing among the runnable opcodes (high bit
// set) or any 16-bit opcode number at all, the others fields around
// each bank's range.
func fuzzProg(data []byte) (p *ir.Prog, runs bool) {
	p = &ir.Prog{
		Name: "fuzz", NumF: 4, NumI: 4, NumC: 3, NumV: 3, Allocated: true,
		ConstF: []float64{1, -0.5}, ConstI: []int64{1, 3}, ConstC: []complex128{1 + 1i},
		MathFns: []string{"sin", "sqrt"},
		Params:  []ir.ParamBinding{{Bank: ir.BankV, Reg: 0}},
		OutRegs: []int32{0},
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
	return p, runs
}

// FuzzPrepare: every program Prepare accepts has each register operand in
// its bank, by an independent check through ir's operand table, and
// runs (when it is made of runnable opcodes) to a result, a *vm.Error or
// an interruption — never a panic or a fault.
func FuzzPrepare(f *testing.F) {
	ret := []byte{byte(ir.OpRet), 0, 0, 0, 0, 0}
	f.Add([]byte{0x80 + 1, 1, 0, 0, 0, 0})                                                         // jmp 0: interrupted
	f.Add(append([]byte{byte(ir.OpFAdd), 1, 2, 4, 0, 0}, ret...))                                  // fadd f0, f1, =-0.5
	f.Add(append([]byte{byte(ir.OpFLd1), 1, 1, 3, 0, 0}, ret...))                                  // fld1 f0, v0, =1
	f.Add(append([]byte{byte(ir.OpFLd1), 1, 1, 3, 0, 0, byte(ir.OpBrFLt), 1, 2, 1, 0, 0}, ret...)) // a loop
	f.Add(append([]byte{byte(ir.OpFMath), 1, 1, 2, 0, 0}, ret...))                                 // sqrt
	f.Add(append([]byte{byte(ir.OpVMov), 1, 2, 0, 0, 0, byte(ir.OpFtoI), 1, 1, 0, 0, 0}, ret...))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, runs := fuzzProg(data)
		c, err := Prepare(p)
		if err != nil {
			return
		}
		regs := map[ir.Bank]int32{ir.BankF: p.NumF, ir.BankI: p.NumI, ir.BankC: p.NumC}
		var uses [3]ir.Operand
		var vregs [4]int32
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
			for _, r := range in.VRegs(&vregs) {
				if r < 0 || r >= p.NumV {
					t.Fatalf("accepted %v at %d: v%d of %d", *in, pc, r, p.NumV)
				}
			}
			if tg := in.Target(); tg != nil && (*tg < 0 || int(*tg) >= len(p.Ins)) {
				t.Fatalf("accepted %v at %d: target %d of %d", *in, pc, *tg, len(p.Ins))
			}
			if (in.Op == ir.OpFMath || in.Op == ir.OpCMath) && (in.C < 0 || int(in.C) >= len(p.MathFns)) {
				t.Fatalf("accepted %v at %d: math function %d of %d", *in, pc, in.C, len(p.MathFns))
			}
		}
		if !runs {
			return
		}
		h := &fuzzHost{testHost: newTestHost()}
		blocks := 0
		SetBlockHook(func([]ir.Instr) {
			if blocks++; blocks > 64 {
				h.flag.Raise()
			}
		})
		defer SetBlockHook(nil)
		if c, err = Prepare(p); err != nil {
			t.Fatalf("instrumented: %v", err)
		}
		_, err = Run(c, h, Boxed(nil, []*mat.Value{mat.FromSlice(2, 2, []float64{1, 2, 3, math.NaN()})}), nil)
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
