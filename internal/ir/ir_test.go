package ir

import (
	"math"
	"strings"
	"testing"
)

func TestAddAux(t *testing.T) {
	p := &Prog{}
	at1 := p.AddAux(1, 2, 3)
	at2 := p.AddAux(4, 5)
	if at1 != 0 || at2 != 3 {
		t.Fatalf("aux offsets %d %d", at1, at2)
	}
	if len(p.Aux) != 5 || p.Aux[3] != 4 {
		t.Fatalf("aux pool %v", p.Aux)
	}
}

func TestOpNames(t *testing.T) {
	// every opcode in the instruction set must have a display name
	for op := OpNop; op < numOps; op++ {
		s := op.String()
		if strings.HasPrefix(s, "op") && s != "op" {
			// fallback formatting means a missing entry
			if _, ok := opNames[op]; !ok {
				t.Errorf("opcode %d has no name", op)
			}
		}
	}
	if OpFAdd.String() != "fadd" || OpGEMV.String() != "gemv" {
		t.Error("spot-check names")
	}
}

func TestBankString(t *testing.T) {
	for b, want := range map[Bank]string{BankF: "f", BankI: "i", BankC: "c", BankV: "v", BankNone: "-"} {
		if b.String() != want {
			t.Errorf("%d prints %q", b, b.String())
		}
	}
}

// TestDisasm: an instruction prints the fields its opcode has and no
// others, and a constant register prints as its value — before
// allocation (ConstReg) and after (the top of the bank).
func TestDisasm(t *testing.T) {
	p := &Prog{Name: "demo", NumF: 2, NumV: 1}
	half := p.FConst(0.5)
	p.Ins = []Instr{
		{Op: OpFMov, A: 0, B: p.FConst(3.5)},
		{Op: OpFAdd, A: 1, B: 0, C: half},
		{Op: OpBrILe, A: 2, B: p.IConst(10), C: 1},
		{Op: OpFSt1U, A: 0, B: p.IConst(1), C: 1},
		{Op: OpGBin, A: 0, B: 0, C: 0, D: 3, Imm: 1},
		{Op: OpRet},
	}
	want := []string{"func demo:", "fmov      f0, =3.5", "fadd      f1, f0, =0.5", "br.ile    i2, =10, @1",
		"fst1u     v0, =1, f1", "gbin      v0, v0, v0, 3, imm=1", "   5  ret\n"}
	d := p.Disasm()
	for _, w := range want {
		if !strings.Contains(d, w) {
			t.Errorf("disasm lacks %q:\n%s", w, d)
		}
	}
	// Allocated: 24 registers, 3 scratch, then the constants.
	p.Allocated, p.NumF, p.NumI = true, 27+2, 27+2
	p.Ins[0].B, p.Ins[1].C, p.Ins[2].B, p.Ins[3].B = 28, 27, 27, 28
	d = p.Disasm()
	for _, w := range want {
		if !strings.Contains(d, w) {
			t.Errorf("allocated disasm lacks %q:\n%s", w, d)
		}
	}
	if got := (Instr{Op: OpFAdd, A: 1, B: 0, C: half}).String(); got != "fadd      f1, f0, =f#0" {
		t.Errorf("Instr.String() = %q", got)
	}
}

// TestConstantInterning: constants are distinct by bit pattern, and by
// bank — 1 the integer and 1.0 the real never share a register.
func TestConstantInterning(t *testing.T) {
	p := &Prog{}
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	regs := []int32{p.FConst(0), p.FConst(math.Copysign(0, -1)), p.FConst(1), p.FConst(math.Inf(1)),
		p.FConst(math.Inf(-1)), p.FConst(nan1), p.FConst(nan2)}
	for i, r := range regs {
		if r != ConstReg(i) {
			t.Fatalf("constant %d interned to %d, want a register of its own (%d)", i, r, ConstReg(i))
		}
	}
	if p.FConst(0) != regs[0] || p.FConst(math.Copysign(0, -1)) != regs[1] || p.FConst(nan2) != regs[6] || p.FConst(1) != regs[2] {
		t.Error("an equal bit pattern did not intern to the register it has")
	}
	if math.Signbit(p.ConstF[0]) || !math.Signbit(p.ConstF[1]) || math.Float64bits(p.ConstF[5]) != math.Float64bits(nan1) {
		t.Errorf("table does not hold the bit patterns interned: %v", p.ConstF)
	}
	if one := p.IConst(1); one != ConstReg(0) || len(p.ConstI) != 1 || len(p.ConstF) != 7 {
		t.Errorf("integer 1 interned to %d with tables %v / %v: the banks' tables are separate", one, p.ConstI, p.ConstF)
	}
	if a, b := p.CConst(complex(0, 1)), p.CConst(complex(math.Copysign(0, -1), 1)); a == b || p.CConst(complex(0, 1)) != a {
		t.Errorf("complex constants: i -> %d, -0+i -> %d", a, b)
	}
	// Beyond the look-back window a value may be interned again, never
	// wrongly shared.
	for k := 0; k < 3*internWindow; k++ {
		if r := p.IConst(int64(100 + k)); p.ConstI[^r] != int64(100+k) {
			t.Fatalf("constant %d read back as %d", 100+k, p.ConstI[^r])
		}
	}
	if r := p.IConst(1); p.ConstI[^r] != 1 {
		t.Errorf("constant 1 read back as %d", p.ConstI[^r])
	}
}

// TestOperandTable spot-checks the operand descriptors on the opcodes
// whose fields are least regular, and the accessors' contract on all of
// them: fields are reported by pointer, in field order.
func TestOperandTable(t *testing.T) {
	type use struct {
		bank  Bank
		field byte
	}
	cases := []struct {
		op     Op
		def    Bank // BankNone: writes no scalar register
		uses   []use
		target byte // 0: not a branch
	}{
		{op: OpJmp, def: BankNone, target: 'A'},
		{op: OpRet, def: BankNone},
		{op: OpBrFalseV, def: BankNone, target: 'C'},
		{op: OpBrFNLt, def: BankNone, uses: []use{{BankF, 'A'}, {BankF, 'B'}}, target: 'C'},
		{op: OpBrINe, def: BankNone, uses: []use{{BankI, 'A'}, {BankI, 'B'}}, target: 'C'},
		{op: OpFMath, def: BankF, uses: []use{{BankF, 'B'}}}, // C is a function id
		{op: OpICmpLt, def: BankF, uses: []use{{BankI, 'B'}, {BankI, 'C'}}},
		{op: OpCAbs, def: BankF, uses: []use{{BankC, 'B'}}},
		{op: OpUnboxI, def: BankI}, // B is a V register
		{op: OpBoxC, def: BankNone, uses: []use{{BankC, 'B'}}},
		{op: OpFLd2U, def: BankF, uses: []use{{BankI, 'C'}, {BankI, 'D'}}},
		{op: OpFSt2U, def: BankNone, uses: []use{{BankI, 'B'}, {BankI, 'C'}, {BankF, 'D'}}},
		{op: OpVEnsure, def: BankNone, uses: []use{{BankI, 'B'}, {BankI, 'C'}}},
		{op: OpVNumel, def: BankI},
		{op: OpVFuseArgF, def: BankNone, uses: []use{{BankF, 'B'}}},
		{op: OpStageI, def: BankNone, uses: []use{{BankI, 'B'}}}, // A is a call slot
		{op: OpFetchF, def: BankF},                               // B is a call result
		{op: OpCallUser, def: BankNone},                          // its scalars are staged and fetched
		{op: OpGBin, def: BankNone},
		{op: OpFLdSlot, def: BankNone}, // emitted by the allocator, after every reader
		{op: OpFLd2I, def: BankF, uses: []use{{BankI, 'C'}, {BankI, 'D'}}},
		{op: OpFSt1I, def: BankNone, uses: []use{{BankI, 'B'}, {BankF, 'C'}}},
		{op: OpFRand, def: BankF},                           // B picks the distribution
		{op: OpCLd1, def: BankC, uses: []use{{BankF, 'C'}}}, // B is the array
		{op: OpCLd1I, def: BankC, uses: []use{{BankI, 'C'}}},
		{op: OpCLd1U, def: BankC, uses: []use{{BankI, 'C'}}},
		{op: OpCLd2, def: BankC, uses: []use{{BankF, 'C'}, {BankF, 'D'}}},
		{op: OpCLd2I, def: BankC, uses: []use{{BankI, 'C'}, {BankI, 'D'}}},
		{op: OpCLd2U, def: BankC, uses: []use{{BankI, 'C'}, {BankI, 'D'}}},
	}
	for _, c := range cases {
		in := &Instr{Op: c.op}
		fields := map[byte]*int32{'A': &in.A, 'B': &in.B, 'C': &in.C, 'D': &in.D}
		if d, ok := in.Def(); ok != (c.def != BankNone) || ok && (d.Bank != c.def || d.Reg != &in.A) {
			t.Errorf("%v: Def() = %v/%v, want bank %v in A", c.op, d.Bank, ok, c.def)
		}
		var buf [3]Operand
		got := in.Uses(&buf)
		if len(got) != len(c.uses) {
			t.Errorf("%v: %d uses, want %d", c.op, len(got), len(c.uses))
			continue
		}
		for i, u := range c.uses {
			if got[i].Bank != u.bank || got[i].Reg != fields[u.field] {
				t.Errorf("%v: use %d is not %v in %c", c.op, i, u.bank, u.field)
			}
		}
		if got := in.Target(); got != fields[c.target] {
			t.Errorf("%v: Target() does not point at field %q", c.op, c.target)
		}
	}
	for op := Op(0); op < numOps; op++ {
		targets := 0
		for i, r := range operands[op] {
			if r == target {
				targets++
			}
			if r.isDef() && i != 0 {
				t.Errorf("%v: writes field %d; Def() reports field A only", op, i)
			}
		}
		if targets > 1 {
			t.Errorf("%v: %d branch targets", op, targets)
		}
	}
}
