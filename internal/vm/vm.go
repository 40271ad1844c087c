// Package vm executes allocated IR programs on a register machine: the
// stand-in for the native code MaJIC emitted through the vcode dynamic
// assembler. Typed instructions operate on unboxed float64 / int64 /
// complex128 registers; generic instructions dispatch into the boxed
// runtime of internal/mat and internal/builtins, exactly as the paper's
// generated code calls into the MATLAB C library for unspecialized
// operations.
package vm

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sync/atomic"
	"unsafe"

	"repro/internal/ast"
	"repro/internal/builtins"
	"repro/internal/ir"
	"repro/internal/mat"
)

// Host provides the services compiled code needs from the engine:
// dispatching calls to user functions (through the code repository) and
// the shared builtin context.
type Host interface {
	// CallUser invokes a user function on behalf of the activation that
	// owns caller. A host that dispatches to compiled code passes args and
	// caller on to Run, which then runs the callee on the next frame of
	// the caller's chain and returns the results in the caller's scratch —
	// a call costs no frame, no result slice and no box for a scalar that
	// both sides keep in a register. The host must not retain args or
	// caller past the call.
	// site is the calling instruction's, where the host may keep what it
	// resolved the call to (CallSite.Memo).
	CallUser(site *CallSite, args []Operand, nout int, caller *Frame) ([]Operand, error)
	Context() *builtins.Context
}

// CallSite is one OpCallUser instruction of a Compiled: the name it calls
// and the host's memo of what the call resolved to. The memo is one
// immutable record the host replaces whole, so the activations of a
// Compiled on any goroutine read a consistent record or none.
type CallSite struct {
	Name string
	pc   int32
	memo atomic.Value
}

// Memo returns the host's record, nil before the first SetMemo.
func (s *CallSite) Memo() any { return s.memo.Load() }

// SetMemo replaces the record; every record a host keeps at its sites
// has one dynamic type.
func (s *CallSite) SetMemo(m any) { s.memo.Store(m) }

// colonMarker is the distinguished boxed value representing a ':'
// subscript in generic indexing instructions. It sits in many registers
// at once, so it is marked shared like every other boxed constant.
var colonMarker = func() *mat.Value {
	v := mat.Empty()
	v.MarkShared()
	return v
}()

// Compiled wraps a Prog with resolved builtin/math-function tables so
// repeated invocations skip name resolution.
//
// Concurrency audit (async compilation service): a *Compiled is
// immutable after Prepare returns — the instruction stream, resolved
// function tables, and the vpool constants (which Prepare marks shared,
// so compiled code copy-on-writes instead of mutating them) are never
// written again, and a call site's memo is swapped atomically. A
// Compiled published to the repository by one
// goroutine is therefore safe to execute from any other; the
// repository's atomic publication of the entry (a release store, paired
// with the locator's acquire load) provides the happens-before edge
// between Prepare and Run.
type Compiled struct {
	P *ir.Prog
	// mathFns are the real forms of elemFns, the program's math
	// functions, which OpFMath applies.
	mathFns  []func(float64) float64
	elemFns  []builtins.ElemFn
	builtins []*builtins.Builtin
	vpool    []*mat.Value
	// fuseBs, indexed like mathFns, are the boxed builtins each FuseMath
	// micro-op falls back to, also where its real path would promote an
	// element to complex (ElemFn.Promotes).
	fuseBs []*builtins.Builtin
	// builtinArgs is the widest argument list of any OpGBuiltin: the frame
	// reserves that much boxed scratch after the V registers. callSlots
	// is the number of call slots (the widest OpCallUser argument list,
	// the program's own outputs, and whatever OpStageF/I name) and
	// callOuts the widest OpCallUser result list: together the frame's
	// operand scratch.
	builtinArgs, callSlots, callOuts int
	// w is the width of each bank a frame running this program needs.
	w widths
	// sites are the program's OpCallUser instructions, in program order:
	// the only part of a Compiled written after Prepare, through each
	// site's memo.
	sites []CallSite
}

// site is the call site at pc, an OpCallUser. A program has a handful,
// so a scan beats a search.
func (c *Compiled) site(pc int) *CallSite {
	k := 0
	for c.sites[k].pc != int32(pc) {
		k++
	}
	return &c.sites[k]
}

// widths are the lengths of a frame's five banks.
type widths struct{ f, i, c, v, ops int }

// bytes is what one frame's banks of these widths occupy.
func (w widths) bytes() int {
	return 8*(w.f+w.i+w.v) + 16*w.c + int(unsafe.Sizeof(Operand{}))*w.ops
}

// Prepare verifies the program (see verify) and resolves its name
// tables.
func Prepare(p *ir.Prog) (*Compiled, error) {
	if err := verify(p); err != nil {
		return nil, err
	}
	if checks, blocks := stepHook.Load() != nil, blockHook.Load() != nil; checks || blocks {
		p = instrumented(p, checks, blocks)
	}
	// The constant tables fill the top of the scalar banks, whose sizes the
	// allocator fixes: a program that is not allocated names its constants
	// by negative registers, and one whose tables overflow its banks was
	// not written by this compiler (snapshots and /cluster/ingest hand
	// Prepare bytes from outside).
	if _, _, _, fit := p.ConstBase(); !fit || !p.Allocated && len(p.ConstF)+len(p.ConstI)+len(p.ConstC) > 0 {
		return nil, fmt.Errorf("vm: %s: constant tables (%d/%d/%d) do not fit banks of %d/%d/%d registers (allocated: %t)",
			p.Name, len(p.ConstF), len(p.ConstI), len(p.ConstC), p.NumF, p.NumI, p.NumC, p.Allocated)
	}
	c := &Compiled{P: p}
	for _, name := range p.MathFns {
		f, ok := builtins.Elementary(name)
		if !ok {
			return nil, fmt.Errorf("vm: unknown math function %q", name)
		}
		c.mathFns = append(c.mathFns, f.Real)
		c.elemFns = append(c.elemFns, f)
		c.fuseBs = append(c.fuseBs, builtins.Lookup(name))
	}
	for _, name := range p.Builtins {
		b := builtins.Lookup(name)
		if b == nil {
			return nil, fmt.Errorf("vm: unknown builtin %q", name)
		}
		c.builtins = append(c.builtins, b)
	}
	for _, vc := range p.VPoolStrs {
		if vc.IsColon {
			c.vpool = append(c.vpool, colonMarker)
		} else {
			v := mat.FromString(vc.Str)
			v.MarkShared()
			c.vpool = append(c.vpool, v)
		}
	}
	c.callSlots = len(p.OutRegs)
	nsites := 0
	for _, in := range p.Ins {
		switch in.Op {
		case ir.OpStageF, ir.OpStageI:
			if in.A < 0 {
				return nil, fmt.Errorf("vm: call slot %d", in.A)
			}
			c.callSlots = max(c.callSlots, int(in.A)+1)
		case ir.OpFetchF, ir.OpFetchI:
			if in.B < 0 {
				return nil, fmt.Errorf("vm: call result %d", in.B)
			}
			c.callOuts = max(c.callOuts, int(in.B)+1)
		case ir.OpCallUser, ir.OpGBuiltin:
			var n [3]int // by access: the outputs are written, the arguments read
			in.VOperands(p.Aux, func(_ int32, a ir.Access) { n[a]++ })
			if in.Op == ir.OpGBuiltin {
				c.builtinArgs = max(c.builtinArgs, n[ir.Read])
				continue
			}
			c.callOuts = max(c.callOuts, n[ir.Write])
			c.callSlots = max(c.callSlots, n[ir.Read])
			nsites++
		}
	}
	if nsites > 0 {
		c.sites = make([]CallSite, 0, nsites)
		for pc, in := range p.Ins {
			if in.Op == ir.OpCallUser {
				c.sites = append(c.sites, CallSite{Name: p.Calls[p.Aux[in.A]], pc: int32(pc)})
			}
		}
	}
	c.w = widths{
		f:   int(p.NumF + p.SlotsF),
		i:   int(p.NumI + p.SlotsI),
		c:   int(p.NumC + p.SlotsC),
		v:   int(p.NumV) + c.builtinArgs,
		ops: c.callSlots + c.callOuts,
	}
	return c, nil
}

// Error wraps a runtime failure with the program and pc.
type Error struct {
	Fn  string
	PC  int
	Err error
}

func (e *Error) Error() string { return fmt.Sprintf("%s+%d: %v", e.Fn, e.PC, e.Err) }
func (e *Error) Unwrap() error { return e.Err }

// ErrGuardMiss is returned, unwrapped, when a return-type guard finds
// that a callee's result is not the scalar its summary promised (the
// callee was redefined under a running caller, or answered from another
// entry). The code generator only emits guards in functions without
// side effects, so the host abandons the activation and re-runs the call
// in the interpreter.
var ErrGuardMiss = errors.New("vm: return-type guard missed")

// Frame is one activation's register file: the four banks, the scalar
// ones with their spill slots, plus scratch for the argument and result lists of the
// calls the activation makes (boxed for builtins, operands for user
// functions). Frames form a chain that mirrors the call stack: an
// activation runs its callees on the frame linked behind its own. The
// head of a chain is a root, claimed from rootPool by a Run whose caller
// has no frame (the interpreter, the engine's API) and
// owned by that activation alone until it returns; concurrent callers of
// one *Compiled hold different roots and therefore never share a frame.
//
// A chain grows a segment at a time (root.grow) and keeps what it grew,
// so recursion to any depth reuses the same frames call after call — no
// allocation, no synchronisation. Parking trims the chain to
// maxIdleBytes, whole segments at a time (root.park); a recursion deeper
// than what stays parked grows the rest back as one segment per call from
// outside.
//
// Scalar banks are zeroed before use — compiled code may read a scalar
// variable no path assigned, and must see 0 as it did with fresh banks —
// then the program's constant tables are copied into the constant area
// that ends each bank's registers (ir.Prog.ConstF); the boxed bank is
// cleared after use, so an idle chain never pins a matrix.
type Frame struct {
	f []float64
	i []int64
	c []complex128
	v []*mat.Value
	// ops holds the call slots OpStageF/I fill — the argument list of the
	// next user call, then this activation's own scalar outputs — and from
	// outsAt on the outs, where this activation's callees leave their
	// results (none on a root, whose callee allocates its result list).
	ops    []Operand
	outsAt int32
	// depth is the frame's distance from root, whose chain it belongs to
	// for good.
	depth int32
	root  *root
	// next is the frame this activation's callees run on.
	next *Frame
}

// root heads a chain and remembers how deep the chain has had to go.
type root struct {
	Frame
	// segs are the chain's segments, outward from the root.
	segs []segment
	// reached is the deepest frame the current activation has run on, and
	// hint the depth the chain last had to grow to: a segment grown short
	// of it ends there.
	reached, hint int32
	// fuse is the slot file OpVFuseArgF stages a fused kernel's scalars
	// in for the OpVFused that follows, with no call between: one per
	// chain serves all its activations.
	fuse [ir.MaxFuseOperands]float64
}

// segment is a run of frames grown together: one []Frame and, for each
// bank the growing program uses, one slab holding that bank of every
// frame at the program's exact width.
type segment struct {
	tail *Frame // the segment's deepest frame
	w    widths // each frame's share of the slabs
	// pinned is what the segment keeps reachable: its frames and slabs,
	// which stay whole while any of its frames is kept, plus the banks
	// regrown on their own since.
	pinned int
}

// rootPool parks idle chains. A slot changes hands by compare-and-swap
// between nil and a root, so parking and claiming take no lock and a
// parked chain has exactly one claimant. Unlike a sync.Pool the row
// neither empties at a collection nor (under the race detector) drops
// entries at random, so a single caller's allocation count is exact and
// repeats — the benchmark's malloc metrics rely on that. A release that
// finds every slot taken (that many activations entered from outside the
// VM at once) leaves its chain to the collector.
var rootPool [16]atomic.Pointer[root]

func claimRoot() *root {
	for i := range rootPool {
		if parked := rootPool[i].Load(); parked != nil && rootPool[i].CompareAndSwap(parked, nil) {
			return parked
		}
	}
	r := new(root)
	r.root = r
	return r
}

// maxIdleBytes bounds the memory a parked chain pins. A frame is a
// couple of kilobytes for a heavily inlined function, and recursion depth
// is the program's to choose; without a bound one deep call would leave
// its whole stack allocated for the life of the process. Deeper recursion
// still runs allocation-free while it lasts and grows the rest back as
// one segment per call from outside.
const maxIdleBytes = 16 << 10

// frameBytes is a frame's own footprint, banks aside.
const frameBytes = int(unsafe.Sizeof(Frame{}))

// grow links a new segment behind last, the chain's deepest frame, and
// returns its first frame. c is the program about to run there: the
// segment's banks are carved at its widths. Short of the hint the segment
// ends exactly at it; past the hint each segment doubles the chain's
// excess over the hint, so a recursion a little deeper than the last one
// grows a little.
func (r *root) grow(last *Frame, c *Compiled) *Frame {
	d := last.depth
	k := int(r.hint - d)
	if k <= 0 {
		k = max(-k, 1)
	}
	w := c.w
	frames := make([]Frame, k)
	fs := make([]float64, k*w.f)
	is := make([]int64, k*w.i)
	cs := make([]complex128, k*w.c)
	vs := make([]*mat.Value, k*w.v)
	ops := make([]Operand, k*w.ops)
	for j := range frames {
		fr := &frames[j]
		fr.f, fr.i, fr.c = carve(fs, j, w.f), carve(is, j, w.i), carve(cs, j, w.c)
		fr.v, fr.ops = carve(vs, j, w.v), carve(ops, j, w.ops)
		fr.depth = d + 1 + int32(j)
		fr.root = r
		if j+1 < k {
			fr.next = &frames[j+1]
		}
	}
	r.segs = append(r.segs, segment{tail: &frames[k-1], w: w, pinned: k * (frameBytes + w.bytes())})
	last.next = &frames[0]
	return &frames[0]
}

// carve is the j-th bank of width n in slab, its capacity exact so that a
// wider program regrows it instead of reaching into the next frame's.
func carve[T any](slab []T, j, n int) []T {
	return slab[j*n : (j+1)*n : (j+1)*n]
}

// park trims the chain to maxIdleBytes, dropping whole segments from the
// first that does not fit, updates the hint and returns the root to the
// pool. The hint moves only when the activation went deeper than what
// stays parked: the one case in which running it again grows the chain.
func (r *root) park() {
	kept := 0
	for s := range r.segs {
		if kept += r.segs[s].pinned; kept > maxIdleBytes {
			last := &r.Frame
			if s > 0 {
				last = r.segs[s-1].tail
			}
			last.next = nil
			clear(r.segs[s:]) // the dropped tails
			r.segs = r.segs[:s]
			break
		}
	}
	parked := int32(0)
	if n := len(r.segs); n > 0 {
		parked = r.segs[n-1].tail.depth
	}
	if r.reached > parked {
		r.hint = r.reached
	}
	r.reached = 0
	for i := range rootPool {
		if rootPool[i].Load() == nil && rootPool[i].CompareAndSwap(nil, r) {
			return
		}
	}
}

// fit readies the frame for c: banks at c's widths, the scalar ones
// zeroed and holding c's constant tables.
func (fr *Frame) fit(c *Compiled) {
	p, w := c.P, c.w
	if cap(fr.f) < w.f || cap(fr.i) < w.i || cap(fr.c) < w.c || cap(fr.v) < w.v || cap(fr.ops) < w.ops {
		fr.regrow(w)
	}
	fr.f, fr.i, fr.c, fr.v, fr.ops = fr.f[:w.f], fr.i[:w.i], fr.c[:w.c], fr.v[:w.v], fr.ops[:w.ops]
	clear(fr.f)
	clear(fr.i)
	clear(fr.c)
	copy(fr.f[int(p.NumF)-len(p.ConstF):], p.ConstF)
	copy(fr.i[int(p.NumI)-len(p.ConstI):], p.ConstI)
	copy(fr.c[int(p.NumC)-len(p.ConstC):], p.ConstC)
}

// regrow gives each bank narrower than w one of its own — the frame was
// carved for a smaller program — and keeps its segment's count exact.
func (fr *Frame) regrow(w widths) {
	segs := fr.root.segs
	s := 0
	for segs[s].tail.depth < fr.depth {
		s++
	}
	seg := &segs[s]
	seg.pinned += regrown(&fr.f, w.f, seg.w.f) + regrown(&fr.i, w.i, seg.w.i) + regrown(&fr.c, w.c, seg.w.c) +
		regrown(&fr.v, w.v, seg.w.v) + regrown(&fr.ops, w.ops, seg.w.ops)
}

// regrown replaces *bank with one of n elements when it is narrower and
// returns the bytes this adds to what its segment pins: the new bank, less
// the old one unless that was the frame's share of the slab, which stays
// pinned. A bank's capacity only grows, so it is the slab's share exactly
// while it equals the carved width.
func regrown[T any](bank *[]T, n, carved int) int {
	old := cap(*bank)
	if old >= n {
		return 0
	}
	*bank = make([]T, n)
	var elem T
	if old != carved {
		n -= old
	}
	return n * int(unsafe.Sizeof(elem))
}

// Run executes the compiled function with the given arguments on the
// frame behind caller's. caller is the calling activation's frame as
// handed to Host.CallUser, or nil when the call does not come from
// compiled code; with a caller the result list lives in the caller's
// frame (valid until its next call), without one it is freshly
// allocated. An output whose home is an F or I register comes back in
// that class, unboxed.
//
// Run is re-entrant and safe for concurrent use with the same
// *Compiled: every activation runs on its own frame (see Frame),
// boxed argument values are marked shared on entry (so in-place mutation
// inside the callee copy-on-writes rather than racing with a concurrent
// caller passing the same value), and the only cross-call state reached
// is the Host — whose Context (RNG, output writer) and CallUser
// (repository dispatch) are concurrency-safe in async mode. mat.Value
// results returned by Run are fresh or marked shared, so publishing
// them across goroutines is safe.
func Run(c *Compiled, host Host, args []Operand, caller *Frame) ([]Operand, error) {
	p := c.P
	if len(args) != len(p.Params) {
		return nil, fmt.Errorf("vm: %s called with %d args, compiled for %d", p.Name, len(args), len(p.Params))
	}
	var claimed *root
	if caller == nil {
		claimed = claimRoot()
		caller = &claimed.Frame
	}
	r := caller.root
	fr := caller.next
	if fr == nil {
		fr = r.grow(caller, c)
	}
	if fr.depth > r.reached {
		r.reached = fr.depth
	}
	fr.fit(c)
	outs, err := fr.exec(c, host, args, caller.ops[caller.outsAt:][:0])
	clear(fr.v)
	clear(fr.ops)
	if claimed != nil {
		claimed.park()
	}
	return outs, err
}

// banks are the frame's registers for c as checked slices, bank by bank.
func (fr *Frame) banks(c *Compiled) ([]float64, []int64, []complex128, []*mat.Value) {
	p := c.P
	return fr.f[:p.NumF], fr.i[:p.NumI], fr.c[:p.NumC], fr.v[:p.NumV]
}

// bind puts the arguments in their parameters. A register scalar lands in
// a scalar parameter by copy or conversion; only a V-bank parameter boxes
// it.
func (fr *Frame) bind(p *ir.Prog, args []Operand) error {
	for i, b := range p.Params {
		a := &args[i]
		switch b.Bank {
		case ir.BankV:
			if a.V != nil {
				a.V.MarkShared()
			}
			fr.v[:p.NumV][b.Reg] = a.Box()
		case ir.BankF:
			x, err := a.float()
			if err != nil {
				return fmt.Errorf("vm: %s parameter %d: %v", p.Name, i+1, err)
			}
			if b.Slot {
				fr.f[p.NumF:][b.Reg] = x
			} else {
				fr.f[:p.NumF][b.Reg] = x
			}
		case ir.BankI:
			x, ok := a.integer()
			if !ok {
				return fmt.Errorf("vm: %s parameter %d: expected integer scalar", p.Name, i+1)
			}
			if b.Slot {
				fr.i[p.NumI:][b.Reg] = x
			} else {
				fr.i[:p.NumI][b.Reg] = x
			}
		case ir.BankC:
			z, ok := a.complex()
			if !ok {
				return fmt.Errorf("vm: %s parameter %d: expected scalar", p.Name, i+1)
			}
			if b.Slot {
				fr.c[p.NumC:][b.Reg] = z
			} else {
				fr.c[:p.NumC][b.Reg] = z
			}
		}
	}
	return nil
}

// ret is OpRet: the outputs, in dst when it is large enough.
func (fr *Frame) ret(c *Compiled, dst []Operand) []Operand {
	p := c.P
	outs := dst[:0]
	if cap(outs) < len(p.OutRegs) {
		outs = make([]Operand, 0, len(p.OutRegs))
	}
	for k, reg := range p.OutRegs {
		if reg == ir.Staged {
			outs = append(outs, fr.ops[k])
			continue
		}
		v := fr.v[:p.NumV][reg]
		if v == nil {
			v = mat.Empty()
		}
		v.MarkShared()
		outs = append(outs, Operand{V: v})
	}
	return outs
}

// step executes the instruction at pc, one the loop does not run or
// whose common case it missed: everything that allocates, boxes, calls a
// builtin, can fail or touches a spill slot, the fused kernels and the
// test hooks. Its banks are checked slices; verify has put every spill
// slot an instruction names inside its bank's slots too.
func (fr *Frame) step(c *Compiled, host Host, args []Operand, in *ir.Instr, pc int) error {
	p := c.P
	F, I, C, V := fr.banks(c)
	switch in.Op {
	case ir.OpVClone:
		if V[in.B] == nil {
			V[in.A] = mat.Empty()
		} else {
			V[in.A] = mat.Donors{Dst: V[in.A]}.Clone(V[in.B])
		}
	case ir.OpBoxF:
		V[in.A] = mat.Scalar(F[in.B])
	case ir.OpBoxI:
		V[in.A] = mat.IntScalar(float64(I[in.B]))
	case ir.OpBoxC:
		v := mat.ComplexScalar(C[in.B])
		if in.Imm == 0 {
			v = v.Demote()
		}
		V[in.A] = v
	case ir.OpUnboxF:
		x, err := unboxF(V[in.B])
		if err != nil {
			return err
		}
		F[in.A] = x
	case ir.OpUnboxI:
		x, err := unboxF(V[in.B])
		if err != nil {
			return err
		}
		if x != math.Trunc(x) {
			return fmt.Errorf("expected an integer value, got %g", x)
		}
		I[in.A] = int64(x)
	case ir.OpUnboxC:
		v := V[in.B]
		if v == nil || !v.IsScalar() {
			return fmt.Errorf("expected a scalar")
		}
		C[in.A] = v.ComplexAt(0)
	case ir.OpFRand:
		if in.B == 0 {
			F[in.A] = host.Context().RNG.Float64()
		} else {
			F[in.A] = host.Context().RNG.Normal()
		}
	case ir.OpCMath:
		C[in.A] = c.elemFns[in.C].At(C[in.B])

	// The checked loads, the stores and vensure in full: the loop runs
	// the common case of all but the complex loads.
	case ir.OpFLd1, ir.OpFLd1I, ir.OpFLd2, ir.OpFLd2I, ir.OpCLd1, ir.OpCLd1I, ir.OpCLd2, ir.OpCLd2I:
		return fr.load(c, in)
	// A store writes through the value its base register owns, made here
	// when the register holds none or a shared one.
	case ir.OpFSt1:
		return owned(&V[in.A]).CheckedSet1(F[in.B], F[in.C])
	case ir.OpFSt1I:
		return owned(&V[in.A]).CheckedSet1(float64(I[in.B]), F[in.C])
	case ir.OpFSt1U:
		owned(&V[in.A]).FastSet1(int(I[in.B])-1, F[in.C])
	case ir.OpFSt2:
		return owned(&V[in.A]).CheckedSet2(F[in.B], F[in.C], F[in.D])
	case ir.OpFSt2I:
		return owned(&V[in.A]).CheckedSet2(float64(I[in.B]), float64(I[in.C]), F[in.D])
	case ir.OpFSt2U:
		owned(&V[in.A]).FastSet2(int(I[in.B])-1, int(I[in.C])-1, F[in.D])
	case ir.OpVEnsure:
		if r, cc := int(I[in.B]), int(I[in.C]); !V[in.A].Reusable(r, cc) {
			V[in.A] = mat.New(r, cc)
		}

	case ir.OpVNewZeros:
		v := mat.New(int(I[in.B]), int(I[in.C]))
		if in.Imm != 0 {
			re := v.Re()
			for i := range re {
				re[i] = in.Imm
			}
		}
		V[in.A] = v
	case ir.OpVRows:
		I[in.A] = int64(vOrEmpty(V[in.B]).Rows())
	case ir.OpVCols:
		I[in.A] = int64(vOrEmpty(V[in.B]).Cols())
	case ir.OpVNumel:
		I[in.A] = int64(vOrEmpty(V[in.B]).Numel())
	case ir.OpVMarkShared:
		if V[in.A] != nil {
			V[in.A].MarkShared()
		}
	case ir.OpVConst:
		V[in.A] = c.vpool[in.B]

	case ir.OpGBin:
		var err error
		l, r := vOrErr(V[in.B], &err), vOrErr(V[in.C], &err)
		if err != nil {
			return err
		}
		v, err := builtins.EvalBinOpInto(mat.Donors{Dst: V[in.A], Consumed: uint32(in.Imm)}, ast.BinOp(in.D), l, r)
		if err != nil {
			return err
		}
		// A result built in a consumed operand is that operand: its
		// register lets go, or two registers would own one value.
		if v == l {
			V[in.B] = nil
		} else if v == r {
			V[in.C] = nil
		}
		V[in.A] = v
	case ir.OpGUn:
		var err error
		x := vOrErr(V[in.B], &err)
		if err != nil {
			return err
		}
		v, err := evalUnOp(in.D, x, mat.Donors{Dst: V[in.A], Consumed: uint32(in.Imm)})
		if err != nil {
			return err
		}
		if v == x {
			V[in.B] = nil
		}
		V[in.A] = v
	case ir.OpGIndex:
		var err error
		v, e := genericIndex(vOrErr(V[in.B], &err), p.Aux, int(in.C), V)
		if err != nil {
			return err
		}
		if e != nil {
			return e
		}
		V[in.A] = v
	case ir.OpGAssign:
		base := V[in.A]
		if base == nil {
			base = mat.Empty()
		} else if base.IsShared() {
			base = base.Clone()
		}
		var err error
		if e := genericAssign(base, p.Aux, int(in.C), V, vOrErr(V[in.D], &err)); e != nil {
			return e
		}
		if err != nil {
			return err
		}
		V[in.A] = base
	case ir.OpGColon:
		var err error
		v, e := mat.Colon(vOrErr(V[in.B], &err), vOrErr(V[in.C], &err), vOrErr(V[in.D], &err))
		if err != nil {
			return err
		}
		if e != nil {
			return e
		}
		V[in.A] = v
	case ir.OpGCat:
		v, err := genericCat(p.Aux, int(in.B), V)
		if err != nil {
			return err
		}
		V[in.A] = v
	case ir.OpGBuiltin:
		return genericBuiltin(c, host.Context(), p.Aux, int(in.A), V, fr.v[p.NumV:])
	case ir.OpGEMV:
		return gemv(p.Aux, int(in.B), in.C, in.Imm, int(in.A), V)
	case ir.OpVFuseArgF:
		fr.root.fuse[in.A] = F[in.B]
	case ir.OpVFused:
		return fusedExec(c, host.Context(), p.Aux, int(in.B), int(in.A), uint32(in.C), V, &fr.root.fuse)

	case ir.OpFLdSlot:
		F[in.A] = fr.f[p.NumF:][in.B]
	case ir.OpFStSlot:
		fr.f[p.NumF:][in.A] = F[in.B]
	case ir.OpILdSlot:
		I[in.A] = fr.i[p.NumI:][in.B]
	case ir.OpIStSlot:
		fr.i[p.NumI:][in.A] = I[in.B]
	case ir.OpCLdSlot:
		C[in.A] = fr.c[p.NumC:][in.B]
	case ir.OpCStSlot:
		fr.c[p.NumC:][in.A] = C[in.B]

	case ir.OpVCheck:
		fr.runStepHook(p, pc-1, args)
	case ir.OpCount:
		runBlockHook(p, pc)

	default:
		return fmt.Errorf("unimplemented opcode %v", in.Op)
	}
	return nil
}

// load executes a checked load.
func (fr *Frame) load(c *Compiled, in *ir.Instr) error {
	F, I, C, V := fr.banks(c)
	v := V[in.B]
	if v == nil {
		return errUndefined
	}
	var x float64
	var z complex128
	var err error
	switch in.Op {
	case ir.OpFLd1:
		x, err = v.CheckedGet1(F[in.C])
	case ir.OpFLd1I:
		x, err = v.CheckedGet1(float64(I[in.C]))
	case ir.OpFLd2:
		x, err = v.CheckedGet2(F[in.C], F[in.D])
	case ir.OpFLd2I:
		x, err = v.CheckedGet2(float64(I[in.C]), float64(I[in.D]))
	case ir.OpCLd1:
		z, err = v.CheckedGet1C(F[in.C])
	case ir.OpCLd1I:
		z, err = v.CheckedGet1C(float64(I[in.C]))
	case ir.OpCLd2:
		z, err = v.CheckedGet2C(F[in.C], F[in.D])
	case ir.OpCLd2I:
		z, err = v.CheckedGet2C(float64(I[in.C]), float64(I[in.D]))
	}
	if d, _ := in.Def(); err == nil && d.Bank == ir.BankC {
		C[in.A] = z
	} else if err == nil {
		F[in.A] = x
	}
	return err
}

// owned gives a V register a value of its own for a store to write
// through, when it holds none or a shared one: the call-by-value copy of a
// written parameter or of a B = A alias is made here, by the store that
// needs it, and a register no path assigned starts as the empty matrix a
// store grows.
func owned(reg **mat.Value) *mat.Value {
	if (*reg).Owned() {
		return *reg
	}
	v := mat.Empty()
	if *reg != nil {
		v = (*reg).Clone()
	}
	*reg = v
	return v
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// cmul, cdiv and cpow are a C register's *, / and ^. The interpreter
// demotes a zero imaginary part after every operation, so when both
// operands' imaginary parts are zero they compute its real result with
// a +0 imaginary part: 2*Inf is Inf, not Inf+NaNi, and (-0)^-1 is -Inf.
func cmul(x, y complex128) complex128 {
	if imag(x) == 0 && imag(y) == 0 {
		return complex(real(x)*real(y), 0)
	}
	return x * y
}

func cdiv(x, y complex128) complex128 {
	if imag(x) == 0 && imag(y) == 0 {
		return complex(real(x)/real(y), 0)
	}
	return x / y
}

// cpow goes through mat.RealPow, which still promotes a negative base
// with a fractional exponent.
func cpow(x, y complex128) complex128 {
	if imag(x) == 0 && imag(y) == 0 {
		return mat.RealPow(real(x), real(y))
	}
	return cmplx.Pow(x, y)
}

func imod(x, y int64) int64 {
	if y == 0 {
		return x
	}
	r := x % y
	if r != 0 && (r < 0) != (y < 0) {
		r += y
	}
	return r
}

func vOrEmpty(v *mat.Value) *mat.Value {
	if v == nil {
		return mat.Empty()
	}
	return v
}

var errUndefined = errors.New("use of undefined value")

func vOrErr(v *mat.Value, err *error) *mat.Value {
	if v == nil && *err == nil {
		*err = errUndefined
	}
	return v
}

func unboxF(v *mat.Value) (float64, error) {
	if v == nil {
		return 0, fmt.Errorf("use of undefined value")
	}
	if !v.IsScalar() {
		return 0, fmt.Errorf("expected a scalar, got %dx%d", v.Rows(), v.Cols())
	}
	if v.IsSparse() {
		return v.At(0, 0), nil
	}
	if v.Kind() == mat.Complex && v.Im()[0] != 0 {
		return 0, fmt.Errorf("expected a real value")
	}
	return v.Re()[0], nil
}
