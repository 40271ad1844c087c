package ir

import (
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
	for op := OpNop; op <= OpVStSlot; op++ {
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

func TestDisasm(t *testing.T) {
	p := &Prog{
		Name: "demo",
		NumF: 2,
		Ins: []Instr{
			{Op: OpFConst, A: 0, Imm: 3.5},
			{Op: OpFAdd, A: 1, B: 0, C: 0},
			{Op: OpRet},
		},
	}
	d := p.Disasm()
	for _, want := range []string{"func demo:", "fconst", "fadd", "ret", "imm=3.5"} {
		if !strings.Contains(d, want) {
			t.Errorf("disasm lacks %q:\n%s", want, d)
		}
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
	for op := Op(0); op <= OpVCheck; op++ {
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
