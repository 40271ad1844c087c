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
// register machine: the recursive call goes through the host, its result
// comes back through a return-type guard, and an 8x8 matrix sits in a V
// register for the whole activation.
func countdown(t *testing.T) *Compiled {
	t.Helper()
	p := &ir.Prog{
		Name:   "sum",
		NumI:   4,
		NumV:   4,
		Params: []ir.ParamBinding{{Bank: ir.BankI, Reg: 0}},
		Calls:  []string{"sum"},
		Ins: []ir.Instr{
			{Op: ir.OpIConst, A: 1, Imm: 8},
			{Op: ir.OpVNewZeros, A: 3, B: 1, C: 1}, // ballast the frame must not pin
			{Op: ir.OpIConst, A: 1, Imm: 0},
			{Op: ir.OpBrIEq, A: 0, B: 1, C: 10}, // n == 0 → return 0
			{Op: ir.OpIConst, A: 1, Imm: 1},
			{Op: ir.OpISub, A: 2, B: 0, C: 1},
			{Op: ir.OpBoxI, A: 0, B: 2},
			{Op: ir.OpCallUser, A: 0},
			{Op: ir.OpUnboxI, A: 3, B: 1, C: 1}, // guarded
			{Op: ir.OpIAdd, A: 1, B: 0, C: 3},
			{Op: ir.OpBoxI, A: 2, B: 1},
			{Op: ir.OpRet},
		},
		OutRegs:   []int32{2},
		Allocated: true,
	}
	p.AddAux(0 /*fn*/, 1 /*nout*/, 1 /*dst*/, 1 /*nargs*/, 0 /*arg reg*/)
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
	bottom *mat.Value
}

func (h *recursiveHost) Context() *builtins.Context { return h.ctx }

func (h *recursiveHost) CallUser(name string, args []*mat.Value, nout int, caller *Frame) ([]*mat.Value, error) {
	if h.bottom != nil && args[0].MustScalar() == 0 {
		return []*mat.Value{h.bottom}, nil
	}
	return Run(h.c, h, args, caller)
}

func sumTo(t *testing.T, h *recursiveHost, n int) float64 {
	t.Helper()
	outs, err := Run(h.c, h, []*mat.Value{mat.IntScalar(float64(n))}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return outs[0].MustScalar()
}

// TestFramesAreReusedNotAllocated: after the first call has grown the
// chain, a recursion that fits the idle bound allocates only what the
// program itself boxes.
func TestFramesAreReusedNotAllocated(t *testing.T) {
	h := &recursiveHost{ctx: builtins.NewContext(), c: countdown(t)}
	const depth = 40
	if got := sumTo(t, h, depth); got != depth*(depth+1)/2 {
		t.Fatalf("sum(%d) = %g", depth, got)
	}
	arg := []*mat.Value{mat.IntScalar(depth)}
	perCall := testing.AllocsPerRun(20, func() {
		if _, err := Run(h.c, h, arg, nil); err != nil {
			t.Fatal(err)
		}
	}) / (depth + 1)
	// Per activation: the ballast matrix (value + buffer), the boxed
	// argument and the boxed result. No banks, no argument list, no
	// result list — except the outermost call's result list.
	if perCall > 4.1 {
		t.Errorf("%.2f allocations per activation, want 4: frames are being allocated", perCall)
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
// promised integer scalar surfaces as ErrGuardMiss itself — not wrapped
// in a *vm.Error, which would read as the program's own failure.
func TestGuardMissAbandonsActivation(t *testing.T) {
	for name, v := range map[string]*mat.Value{
		"matrix":   mat.New(2, 2),
		"real":     mat.Scalar(0),
		"bool":     mat.BoolScalar(false),
		"char":     mat.FromString("a"),
		"complex":  mat.ComplexScalar(complex(0, 1)),
		"sparse":   mat.SparseZeros(1, 1),
		"fraction": mat.IntScalar(0.5),
	} {
		h := &recursiveHost{ctx: builtins.NewContext(), c: countdown(t), bottom: v}
		// n = 1: the outermost activation is the one whose guard misses.
		_, err := Run(h.c, h, []*mat.Value{mat.IntScalar(1)}, nil)
		if err != ErrGuardMiss {
			t.Errorf("%s: err = %v, want ErrGuardMiss", name, err)
		}
		var ve *Error
		if errors.As(err, &ve) {
			t.Errorf("%s: the guard miss came back wrapped: %v", name, err)
		}
	}
	// The kind the register is boxed back to passes.
	h := &recursiveHost{ctx: builtins.NewContext(), c: countdown(t), bottom: mat.IntScalar(100)}
	if got := sumTo(t, h, 3); got != 106 {
		t.Fatalf("sum(3) over a bottom of 100 = %g, want 106", got)
	}
}

// TestConcurrentRecursionKeepsFramesApart: many goroutines recurse
// through one *Compiled at once (more than rootPool has slots). Each
// activation's registers must be its own. Run with -race.
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
				outs, err := Run(c, h, []*mat.Value{mat.IntScalar(float64(n))}, nil)
				if err != nil {
					t.Errorf("sum(%d): %v", n, err)
					return
				}
				if got := outs[0].MustScalar(); got != float64(n*(n+1)/2) {
					t.Errorf("sum(%d) = %g: another activation wrote into this frame", n, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
