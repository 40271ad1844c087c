package opt

import (
	"testing"

	"repro/internal/ir"
)

// The shapes below are written as IR, not compiled from source: they are
// the ones the code generator's loops seldom or never take, so the
// generated-code golden (internal/core) does not pin them.

// iconst is the simplest invariant: a sum of constant registers (v names
// one), which no loop can change.
func iconst(a int32, v int) ir.Instr {
	return ir.Instr{Op: ir.OpIAdd, A: a, B: ir.ConstReg(v), C: ir.ConstReg(0)}
}
func iadd(a, b, c int32) ir.Instr   { return ir.Instr{Op: ir.OpIAdd, A: a, B: b, C: c} }
func imul(a, b, c int32) ir.Instr   { return ir.Instr{Op: ir.OpIMul, A: a, B: b, C: c} }
func brILe(a, b, to int32) ir.Instr { return ir.Instr{Op: ir.OpBrILe, A: a, B: b, C: to} }
func brIEq(a, b, to int32) ir.Instr { return ir.Instr{Op: ir.OpBrIEq, A: a, B: b, C: to} }
func jmp(to int32) ir.Instr         { return ir.Instr{Op: ir.OpJmp, A: to} }

var ret = ir.Instr{Op: ir.OpRet}

func TestLICMShapes(t *testing.T) {
	cases := []struct {
		name         string
		before, want []ir.Instr
	}{
		{
			// A branch inside the loop lands on an instruction that moves
			// out: it must land on the next one that stays. i3's definition
			// reads i2, itself defined in the loop by a hoisted instruction:
			// both move, in program order.
			name: "branch to a hoisted slot, def feeding def",
			before: []ir.Instr{
				0: iconst(1, 10),
				1: iconst(0, 0),
				2: brILe(1, 0, 9), // loop head
				3: brIEq(0, 1, 5),
				4: iadd(0, 0, 1),
				5: iconst(2, 3),
				6: imul(3, 2, 1),
				7: iadd(5, 5, 3),
				8: jmp(2),
				9: ret,
			},
			want: []ir.Instr{
				0: iconst(1, 10),
				1: iconst(0, 0),
				2: iconst(2, 3),
				3: imul(3, 2, 1),
				4: brILe(1, 0, 9),
				5: brIEq(0, 1, 7),
				6: iadd(0, 0, 1),
				7: iadd(5, 5, 3),
				8: jmp(4),
				9: ret,
			},
		},
		{
			// A jump from outside into the body would skip a preheader:
			// the loop is left alone.
			name: "loop entered mid-body",
			before: []ir.Instr{
				0: brIEq(0, 1, 3),
				1: brILe(1, 0, 6), // loop head
				2: iconst(2, 3),
				3: iadd(0, 0, 2),
				4: iadd(5, 5, 2),
				5: jmp(1),
				6: ret,
			},
			want: nil, // unchanged
		},
		{
			// The first loop's exit is the second loop's head: the second
			// preheader goes where that exit lands, so leaving the first
			// loop runs it.
			name: "sibling loops sharing a preheader position",
			before: []ir.Instr{
				0:  iconst(0, 0),
				1:  iconst(1, 5),
				2:  brILe(1, 0, 6), // first head
				3:  iconst(2, 1),
				4:  iadd(0, 0, 2),
				5:  jmp(2),
				6:  brILe(1, 3, 10), // second head
				7:  iconst(4, 2),
				8:  iadd(3, 3, 4),
				9:  jmp(6),
				10: ret,
			},
			want: []ir.Instr{
				0:  iconst(0, 0),
				1:  iconst(1, 5),
				2:  iconst(2, 1),
				3:  brILe(1, 0, 6),
				4:  iadd(0, 0, 2),
				5:  jmp(3),
				6:  iconst(4, 2),
				7:  brILe(1, 3, 10),
				8:  iadd(3, 3, 4),
				9:  jmp(7),
				10: ret,
			},
		},
		{
			// A loop that may run no trip at all: the guard in front skips
			// loop and preheader alike, the head test still leaves through
			// the same exit, and what moved out is a constant into a
			// register nothing else writes — harmless when the body never
			// runs.
			name: "zero-trip loop",
			before: []ir.Instr{
				0: brILe(1, 0, 5),
				1: brILe(1, 0, 5), // loop head
				2: iconst(2, 4),
				3: iadd(0, 0, 2),
				4: jmp(1),
				5: ret,
			},
			want: []ir.Instr{
				0: brILe(1, 0, 5),
				1: iconst(2, 4),
				2: brILe(1, 0, 5),
				3: iadd(0, 0, 2),
				4: jmp(2),
				5: ret,
			},
		},
		{
			// Not invariant: a register written twice in the loop, one
			// read before its definition (the value of the trip before),
			// and anything computed from either.
			name: "loop-carried values stay",
			before: []ir.Instr{
				0: brILe(1, 0, 7), // loop head
				1: iadd(3, 2, 1),  // reads i2 before the loop writes it
				2: iconst(2, 4),
				3: iconst(4, 1),
				4: iconst(4, 2),
				5: imul(6, 4, 1),
				6: jmp(0),
				7: ret,
			},
			want: nil,
		},
	}
	for _, c := range cases {
		p := &ir.Prog{Name: c.name, Ins: append([]ir.Instr(nil), c.before...), NumI: 8}
		hoistInvariants(p, scratchPool.Get())
		want := c.want
		if want == nil {
			want = c.before
		}
		if len(p.Ins) != len(want) {
			t.Fatalf("%s: %d instructions, want %d\n%s", c.name, len(p.Ins), len(want), p.Disasm())
		}
		for i := range want {
			if p.Ins[i] != want[i] {
				t.Errorf("%s: instruction %d is %v, want %v\n%s", c.name, i, p.Ins[i], want[i], p.Disasm())
				break
			}
		}
	}
}
