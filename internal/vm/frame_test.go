package vm

import (
	"errors"
	"runtime"
	"slices"
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
func countdown(t *testing.T) *Compiled { return countdownPadded(t, 0) }

// countdownPadded is countdown with pad more I and V registers, a wider
// program for the same recursion. With pad > 0 it keeps a copy of n in
// the widest I register across the call and adds that copy, so a callee
// whose bank reached into its caller's would change the sum.
func countdownPadded(t *testing.T, pad int32) *Compiled {
	t.Helper()
	k := 4 + pad // the constants sit at the top of the I bank
	n := int32(0)
	if pad > 0 {
		n = k - 1
	}
	p := &ir.Prog{
		Name:   "sum",
		NumI:   k + 3,
		ConstI: []int64{8, 0, 1}, // i(k), i(k+1), i(k+2)
		NumV:   4 + pad,
		Params: []ir.ParamBinding{{Bank: ir.BankI, Reg: 0}},
		Calls:  []string{"sum"},
		Ins: []ir.Instr{
			{Op: ir.OpVNewZeros, A: 3, B: k, C: k}, // ballast the frame must not pin
			{Op: ir.OpBrIEq, A: 0, B: k + 1, C: 8}, // n == 0 → return 0 (i1, never written)
			{Op: ir.OpIMov, A: n, B: 0},
			{Op: ir.OpISub, A: 2, B: 0, C: k + 2},
			{Op: ir.OpStageI, A: 0, B: 2},
			{Op: ir.OpCallUser, A: 0},
			{Op: ir.OpFetchI, A: 3, B: 0}, // guarded
			{Op: ir.OpIAdd, A: 1, B: n, C: 3},
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

func (h *recursiveHost) CallUser(_ *CallSite, args []Operand, nout int, caller *Frame) ([]Operand, error) {
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

// emptyPool forgets every parked chain, so that the next call from
// outside starts a fresh root and, with one caller, parks it in slot 0.
func emptyPool() {
	for i := range rootPool {
		rootPool[i].Store(nil)
	}
}

// allocated is the number of heap objects and bytes f allocates, counted
// the way testing.AllocsPerRun counts them but for one run, not after a
// warm-up. The caller collects once first: the first cycle of a process
// starts the collector's workers, objects no call of the program's
// allocates.
func allocated(f func()) (objects, bytes int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int(after.Mallocs - before.Mallocs), int(after.TotalAlloc - before.TotalAlloc)
}

// TestDeepRecursionGrowsOneSegment: a recursion deeper than a parked
// chain may keep grows the rest back once per call from outside, as one
// segment sized by the depth the previous call reached: the []Frame and
// one slab per bank the program uses (here I, V and the operands).
func TestDeepRecursionGrowsOneSegment(t *testing.T) {
	emptyPool()
	h := &recursiveHost{ctx: builtins.NewContext(), c: countdown(t)}
	const depth = 600
	arg := []Operand{{V: mat.IntScalar(depth)}}
	call := func() {
		outs, err := Run(h.c, h, arg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := outs[0].integer(); got != depth*(depth+1)/2 {
			t.Fatalf("sum(%d) = %d", depth, got)
		}
	}
	// Per activation the ballast (value + buffer); per call the outermost
	// result list and the segment.
	const ballast = 2 * (depth + 1)
	runtime.GC()
	var beyond [6]int
	for k := range beyond {
		objects, _ := allocated(call)
		beyond[k] = objects - ballast
	}
	t.Logf("objects beyond the ballast, calls 1-%d: %v", len(beyond), beyond)
	// Every call from the second on is the same call. The runtime now and
	// then allocates an object of its own during one (a thread, the first
	// time it needs one), so each may exceed the least of them by one.
	steady := slices.Min(beyond[1:])
	if steady > 5 {
		t.Errorf("a call from outside allocates %d objects beyond the ballast, want <= 5: the chain grows more than one segment", steady)
	}
	if steady < 1 {
		t.Errorf("a call from outside allocates nothing beyond the ballast: the parked chain kept all %d frames", depth+1)
	}
	for k, n := range beyond[1:] {
		if n > steady+1 {
			t.Errorf("call %d allocates %d objects beyond the ballast, the others %d: the depth hint does not settle", k+2, n, steady)
		}
	}
}

// TestDeeperRecursionGrowsByItsExcess: a call from outside that recurses
// a little past the depth the previous one reached grows the chain by
// about that excess, not by the chain again.
func TestDeeperRecursionGrowsByItsExcess(t *testing.T) {
	emptyPool()
	h := &recursiveHost{ctx: builtins.NewContext(), c: countdown(t)}
	call := func(n int) func() {
		return func() {
			if _, err := Run(h.c, h, []Operand{{I: int64(n), Bank: ir.BankI}}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	const depth, more = 600, 10
	call(depth)() // the hint: 601
	runtime.GC()
	_, same := allocated(call(depth))
	_, deeper := allocated(call(depth + more))
	// The deeper call's own extra: more activations of ballast and at most
	// twice as many frames as they need. Growing the chain by its length
	// again would carve about depth more.
	perFrame := frameBytes + h.c.w.bytes()
	if extra := deeper - same; extra > 4*more*perFrame+more*1024 {
		t.Errorf("recursing %d deeper than the last call allocates %d more bytes, want about %d frames' worth (%d bytes each)", more, extra, 2*more, perFrame)
	}
}

// TestIdleFramesPinNothing: a parked chain holds no values, ends at a
// segment boundary, and pins no more than maxIdleBytes, counted the way
// the collector sees it: a kept frame keeps its whole segment reachable.
func TestIdleFramesPinNothing(t *testing.T) {
	emptyPool()
	h := &recursiveHost{ctx: builtins.NewContext(), c: countdown(t)}
	const depth = 600 // 600 frames of this program are well past the bound
	if got := sumTo(t, h, depth); got != depth*(depth+1)/2 {
		t.Fatalf("sum(%d) = %g", depth, got)
	}
	parked := 0
	for i := range rootPool {
		r := rootPool[i].Load()
		if r == nil {
			continue
		}
		parked++
		n, pinned := 0, 0
		fr := r.next
		for s, seg := range r.segs {
			referenced := 0
			for ; ; fr = fr.next {
				if fr == nil {
					t.Fatalf("chain %d ends inside segment %d", i, s)
				}
				n++
				referenced += frameBytes + widths{cap(fr.f), cap(fr.i), cap(fr.c), cap(fr.v), cap(fr.ops)}.bytes()
				for reg, v := range fr.v[:cap(fr.v)] {
					if v != nil {
						t.Fatalf("idle frame %d still holds a value in V[%d]", n, reg)
					}
				}
				for k, o := range fr.ops[:cap(fr.ops)] {
					if o.V != nil {
						t.Fatalf("idle frame %d still holds a value in call slot %d", n, k)
					}
				}
				if fr == seg.tail {
					break
				}
			}
			// Carved banks add up to the segment's slabs; a bank regrown on
			// its own adds to both counts, and leaves its slab share pinned.
			if referenced > seg.pinned {
				t.Errorf("chain %d, segment %d: its frames reference %d bytes, it counts %d pinned", i, s, referenced, seg.pinned)
			}
			pinned += seg.pinned
			fr = fr.next
		}
		if fr != nil {
			t.Errorf("chain %d runs on past its last segment", i)
		}
		if pinned > maxIdleBytes || n >= depth {
			t.Errorf("an idle chain keeps %d frames in %d segments, %d bytes; bound %d bytes", n, len(r.segs), pinned, maxIdleBytes)
		}
	}
	if parked == 0 {
		t.Fatal("no chain was parked")
	}
}

// TestRegrownFramesKeepComputing: frames carved for a narrow program
// serve wider ones by regrowing only the banks that are too narrow, each
// on its own (a carved bank's capacity ends where the next frame's
// begins), and the segment counts what they pin exactly: the slab's
// share stays, a bank regrown before is let go.
func TestRegrownFramesKeepComputing(t *testing.T) {
	emptyPool()
	ctx := builtins.NewContext()
	narrow := &recursiveHost{ctx: ctx, c: countdown(t)}
	wide := &recursiveHost{ctx: ctx, c: countdownPadded(t, 18)}
	widest := &recursiveHost{ctx: ctx, c: countdownPadded(t, 24)}
	const depth = 14 // the chain stays parked whole, regrown banks and all
	pinned := func() (total int) {
		for _, seg := range rootPool[0].Load().segs {
			total += seg.pinned
		}
		return total
	}
	if got := sumTo(t, narrow, depth); got != depth*(depth+1)/2 {
		t.Fatalf("narrow sum(%d) = %g", depth, got)
	}
	before := pinned()
	for _, h := range []*recursiveHost{wide, narrow, widest, wide} {
		for _, n := range []int{depth, depth / 2, 1, 0} {
			if got := sumTo(t, h, n); got != float64(n*(n+1)/2) {
				t.Fatalf("sum(%d) on frames carved for a narrower program = %g", n, got)
			}
		}
	}
	grownPerFrame := widths{i: widest.c.w.i, v: widest.c.w.v}.bytes()
	if got := pinned() - before; got != (depth+1)*grownPerFrame {
		t.Errorf("regrowing %d frames twice added %d pinned bytes, want %d: the widest banks of each", depth+1, got, (depth+1)*grownPerFrame)
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
// slots of its own frame chain, at depths that grow and trim segments.
// Each activation's registers and slots must be its own. Run with -race.
func TestConcurrentRecursionKeepsFramesApart(t *testing.T) {
	c := countdown(t)
	var wg sync.WaitGroup
	for g := 0; g < 2*len(rootPool); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := &recursiveHost{ctx: builtins.NewContext(), c: c}
			for i := 0; i < 50; i++ {
				n := 5 + (13*g+7*i)%120 // from 6 frames to past the idle bound
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
