package vm

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/builtins"
	"repro/internal/ir"
	"repro/internal/mat"
)

// countdown is sum(n) = n + sum(n-1), sum(0) = 0, written against the
// register machine: the recursive call goes through the host with its
// argument staged from an I register, its result comes back in one
// through a return-type guard, and an 8x8 matrix sits in a V register for
// the whole activation.
func countdown(t *testing.T) *Compiled {
	t.Helper()
	p := &ir.Prog{
		Name:   "sum",
		NumI:   7,
		ConstI: []int64{8, 0, 1}, // i4, i5, i6
		NumV:   4,
		Params: []ir.ParamBinding{{Bank: ir.BankI, Reg: 0}},
		Calls:  []string{"sum"},
		Ins: []ir.Instr{
			{Op: ir.OpVNewZeros, A: 3, B: 4, C: 4}, // ballast the frame must not pin
			{Op: ir.OpBrIEq, A: 0, B: 5, C: 7},     // n == 0 → return 0 (i1, never written)
			{Op: ir.OpISub, A: 2, B: 0, C: 6},
			{Op: ir.OpStageI, A: 0, B: 2},
			{Op: ir.OpCallUser, A: 0},
			{Op: ir.OpFetchI, A: 3, B: 0}, // guarded
			{Op: ir.OpIAdd, A: 1, B: 0, C: 3},
			{Op: ir.OpStageI, A: 0, B: 1},
			{Op: ir.OpRet},
		},
		OutRegs:   []int32{ir.Staged},
		Allocated: true,
	}
	p.AddAux(0 /*fn*/, 1 /*nout*/, ir.Staged /*dst*/, 1 /*nargs*/, ir.Staged /*arg*/)
	c, err := Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// recursiveHost routes sum back into the VM on the caller's chain, the
// way the engine does.
type recursiveHost struct {
	ctx *builtins.Context
	c   *Compiled
	// bottom, when set, answers the innermost call instead of the code.
	bottom *Operand
}

func (h *recursiveHost) Context() *builtins.Context { return h.ctx }

func (h *recursiveHost) CallUser(name string, args []Operand, nout int, caller *Frame) ([]Operand, error) {
	if h.bottom != nil && args[0].Box().MustScalar() == 0 {
		return []Operand{*h.bottom}, nil
	}
	return Run(h.c, h, args, caller)
}

func sumTo(t *testing.T, h *recursiveHost, n int) float64 {
	t.Helper()
	outs, err := runBoxed(h.c, h, []*mat.Value{mat.IntScalar(float64(n))})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Kind() != mat.Int {
		t.Fatalf("an I-register output left the VM as %v", outs[0].Kind())
	}
	return outs[0].MustScalar()
}

// TestFramesAreReusedNotAllocated: after the first call has grown the
// chain, a recursion that fits the idle bound allocates only what the
// program itself allocates — and a scalar that both sides of a call keep
// in a register is not among that.
func TestFramesAreReusedNotAllocated(t *testing.T) {
	h := &recursiveHost{ctx: builtins.NewContext(), c: countdown(t)}
	const depth = 40
	if got := sumTo(t, h, depth); got != depth*(depth+1)/2 {
		t.Fatalf("sum(%d) = %g", depth, got)
	}
	arg := []Operand{{V: mat.IntScalar(depth)}}
	perCall := testing.AllocsPerRun(20, func() {
		if _, err := Run(h.c, h, arg, nil); err != nil {
			t.Fatal(err)
		}
	}) / (depth + 1)
	// Per activation: the ballast matrix (value + buffer). No banks, no
	// argument list, no result list — except the outermost call's — and
	// no box for the argument or the result.
	if perCall > 2.1 {
		t.Errorf("%.2f allocations per activation, want 2: frames or boxes are being allocated", perCall)
	}
}

// TestIdleFramesPinNothing: a parked chain holds no values, and no more
// than maxIdleBytes of registers.
func TestIdleFramesPinNothing(t *testing.T) {
	h := &recursiveHost{ctx: builtins.NewContext(), c: countdown(t)}
	const depth = 600 // 600 frames of this program are well past the bound
	if got := sumTo(t, h, depth); got != depth*(depth+1)/2 {
		t.Fatalf("sum(%d) = %g", depth, got)
	}
	parked := 0
	for i := range rootPool {
		root := rootPool[i].Load()
		if root == nil {
			continue
		}
		parked++
		n, kept := 0, 0
		for fr := root.next; fr != nil; fr = fr.next {
			n++
			kept += fr.bytes()
			for r, v := range fr.v[:cap(fr.v)] {
				if v != nil {
					t.Fatalf("idle frame %d still holds a value in V[%d]", n, r)
				}
			}
			for k, o := range fr.ops[:cap(fr.ops)] {
				if o.V != nil {
					t.Fatalf("idle frame %d still holds a value in call slot %d", n, k)
				}
			}
		}
		if kept > maxIdleBytes || n >= depth {
			t.Errorf("an idle chain keeps %d frames, %d bytes; bound %d bytes", n, kept, maxIdleBytes)
		}
	}
	if parked == 0 {
		t.Fatal("no chain was parked")
	}
}

// TestGuardMissAbandonsActivation: a callee result that is not the
// promised integer scalar — a box of anything else, or a register of
// another class — surfaces as ErrGuardMiss itself, not wrapped in a
// *vm.Error, which would read as the program's own failure.
func TestGuardMissAbandonsActivation(t *testing.T) {
	for name, o := range map[string]Operand{
		"matrix":      {V: mat.New(2, 2)},
		"real":        {V: mat.Scalar(0)},
		"bool":        {V: mat.BoolScalar(false)},
		"char":        {V: mat.FromString("a")},
		"complex":     {V: mat.ComplexScalar(complex(0, 1))},
		"sparse":      {V: mat.SparseZeros(1, 1)},
		"fraction":    {V: mat.IntScalar(0.5)},
		"empty":       {V: mat.Empty()},
		"box > 2^53":  {V: mat.IntScalar(maxExactInt + 2)},
		"F register":  {F: 0, Bank: ir.BankF},
		"I > 2^53":    {I: maxExactInt + 1, Bank: ir.BankI},
		"I < -(2^53)": {I: -maxExactInt - 1, Bank: ir.BankI},
	} {
		h := &recursiveHost{ctx: builtins.NewContext(), c: countdown(t), bottom: &o}
		// n = 1: the outermost activation is the one whose guard misses.
		_, err := Run(h.c, h, []Operand{{V: mat.IntScalar(1)}}, nil)
		if err != ErrGuardMiss {
			t.Errorf("%s: err = %v, want ErrGuardMiss", name, err)
		}
		var ve *Error
		if errors.As(err, &ve) {
			t.Errorf("%s: the guard miss came back wrapped: %v", name, err)
		}
	}
	// The kind the register is boxed back to passes, and so does the
	// register itself, up to the last integer a float64 holds exactly.
	for name, bottom := range map[string]Operand{
		"Int box":    {V: mat.IntScalar(100)},
		"I register": {I: 100, Bank: ir.BankI},
		"box = 2^53": {V: mat.IntScalar(maxExactInt)},
		"I = 2^53":   {I: maxExactInt, Bank: ir.BankI},
		"I = -2^53":  {I: -maxExactInt, Bank: ir.BankI},
	} {
		h := &recursiveHost{ctx: builtins.NewContext(), c: countdown(t), bottom: &bottom}
		want := float64(int64(bottom.Box().MustScalar()) + 1)
		if got := sumTo(t, h, 1); got != want {
			t.Errorf("%s: sum(1) over the bottom = %g, want %g", name, got, want)
		}
	}
}

// TestConcurrentRecursionKeepsFramesApart: many goroutines recurse
// through one *Compiled at once (more than rootPool has slots), every
// call staging its argument and fetching its result through the call
// slots of its own frame chain. Each activation's registers and slots
// must be its own. Run with -race.
func TestConcurrentRecursionKeepsFramesApart(t *testing.T) {
	c := countdown(t)
	var wg sync.WaitGroup
	for g := 0; g < 2*len(rootPool); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := &recursiveHost{ctx: builtins.NewContext(), c: c}
			for i := 0; i < 50; i++ {
				n := 5 + (g+i)%40
				// The argument alternates between a box and a register, the
				// two ways a call reaches the parameter binding.
				arg := Operand{V: mat.IntScalar(float64(n))}
				if i%2 == 1 {
					arg = Operand{I: int64(n), Bank: ir.BankI}
				}
				outs, err := Run(c, h, []Operand{arg}, nil)
				if err != nil {
					t.Errorf("sum(%d): %v", n, err)
					return
				}
				if got := outs[0].Box().MustScalar(); got != float64(n*(n+1)/2) {
					t.Errorf("sum(%d) = %g: another activation wrote into this frame", n, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
