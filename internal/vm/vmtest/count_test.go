package vmtest

import (
	"testing"

	"repro/internal/builtins"
	"repro/internal/ir"
	"repro/internal/vm"
)

type host struct{ ctx *builtins.Context }

func (h host) Context() *builtins.Context { return h.ctx }
func (h host) CallUser(string, []vm.Operand, int, *vm.Frame) ([]vm.Operand, error) {
	return nil, nil
}

// TestDynamicInstrCounterIsExact: the block counter charges a program
// exactly the instructions it dispatches — per block entered, so a loop's
// body counts once per trip, a branch not taken ends its block and a
// block never entered counts nothing — and counts neither its own probes
// nor the ownership hook's.
func TestDynamicInstrCounterIsExact(t *testing.T) {
	CheckOwnership(t) // both hooks at once: OpVCheck probes must not be counted
	c := CountInstrs(t)
	// acc = 0; for i = 1..n: acc += i (odd i only, the even ones skip)
	p := &ir.Prog{
		Name: "sum", NumI: 6, NumV: 1, ConstI: []int64{1, 2},
		Params:    []ir.ParamBinding{{Bank: ir.BankI, Reg: 0}},
		OutRegs:   []int32{0},
		Allocated: true,
	}
	one, two := int32(4), int32(5)
	p.Ins = []ir.Instr{
		0: {Op: ir.OpIMov, A: 2, B: one},        // i = 1
		1: {Op: ir.OpBrILt, A: 0, B: 2, C: 8},   // n < i: never entered
		2: {Op: ir.OpIMod, A: 3, B: 2, C: two},  // head
		3: {Op: ir.OpBrINe, A: 3, B: one, C: 5}, // even: skip the add
		4: {Op: ir.OpIAdd, A: 1, B: 1, C: 2},    // acc += i
		5: {Op: ir.OpIAdd, A: 2, B: 2, C: one},  // latch
		6: {Op: ir.OpBrILe, A: 2, B: 0, C: 2},   // back
		7: {Op: ir.OpNop},                       // fall out
		8: {Op: ir.OpBoxI, A: 0, B: 1},          // (V write: gets an OpVCheck)
		9: {Op: ir.OpRet},
	}
	code, err := vm.Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{0, 1, 6, 7} {
		c.Reset()
		outs, err := vm.Run(code, host{builtins.NewContext()}, []vm.Operand{{I: n, Bank: ir.BankI}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		odd := (n + 1) / 2
		if got := outs[0].Box().MustScalar(); got != float64(odd*odd) {
			t.Fatalf("sum of odd numbers to %d = %v", n, got)
		}
		// prologue 2; per trip: mod, brne, latch add, back branch, and the
		// add on odd trips; then nop (only after a loop that ran), box, ret.
		want := 2 + 4*n + odd + 2
		if n > 0 {
			want++
		}
		if c.N() != want {
			t.Errorf("n=%d: counted %d instructions, dispatched %d", n, c.N(), want)
		}
		if mix := c.Mix(); mix[ir.OpIAdd] != n+odd || mix[ir.OpVCheck] != 0 || mix[ir.OpCount] != 0 {
			t.Errorf("n=%d: mix %v", n, mix)
		}
	}
}
