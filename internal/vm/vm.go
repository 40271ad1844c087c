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

	"repro/internal/ast"
	"repro/internal/builtins"
	"repro/internal/cancel"
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
	CallUser(name string, args []Operand, nout int, caller *Frame) ([]Operand, error)
	Context() *builtins.Context
}

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
// written again. A Compiled published to the repository by one
// goroutine is therefore safe to execute from any other; the
// repository's atomic publication of the entry (a release store, paired
// with the locator's acquire load) provides the happens-before edge
// between Prepare and Run.
type Compiled struct {
	P        *ir.Prog
	mathFns  []func(float64) float64
	cmathFns []func(complex128) complex128
	builtins []*builtins.Builtin
	vpool    []*mat.Value
	// Fused-kernel tables, indexed like mathFns: the boxed builtin each
	// FuseMath micro-op falls back to, and whether it is sqrt (the one
	// math builtin whose real path promotes negatives to complex).
	fuseBs   []*builtins.Builtin
	fuseSqrt []bool
	// builtinArgs is the widest argument list of any OpGBuiltin: the frame
	// reserves that much boxed scratch after the V registers and spill
	// slots. callSlots is the number of call slots (the widest OpCallUser
	// argument list, the program's own outputs, and whatever OpStageF/I
	// name) and callOuts the widest OpCallUser result list: together the
	// frame's operand scratch.
	builtinArgs, callSlots, callOuts int
}

// Prepare resolves the program's name tables.
func Prepare(p *ir.Prog) (*Compiled, error) {
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
		f, ok := scalarMathFn(name)
		if !ok {
			return nil, fmt.Errorf("vm: unknown math function %q", name)
		}
		c.mathFns = append(c.mathFns, f)
		c.cmathFns = append(c.cmathFns, cmathFn(name))
		c.fuseBs = append(c.fuseBs, builtins.Lookup(name))
		c.fuseSqrt = append(c.fuseSqrt, name == "sqrt")
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
			// aux at A: [fnID, nout, dst..., nargs, arg...]
			at := int(in.A)
			if at < 0 || at+2 >= len(p.Aux) || p.Aux[at+1] < 0 || at+2+int(p.Aux[at+1]) >= len(p.Aux) {
				return nil, fmt.Errorf("vm: call operands out of range at aux %d", at)
			}
			nout := int(p.Aux[at+1])
			nargs := int(p.Aux[at+2+nout])
			if in.Op == ir.OpGBuiltin {
				c.builtinArgs = max(c.builtinArgs, nargs)
			} else {
				c.callOuts = max(c.callOuts, nout)
				c.callSlots = max(c.callSlots, nargs)
			}
		}
	}
	return c, nil
}

func scalarMathFn(name string) (func(float64) float64, bool) {
	if f, ok := builtins.ScalarMathFunc(name); ok {
		return f, true
	}
	return nil, false
}

func cmathFn(name string) func(complex128) complex128 {
	switch name {
	case "sqrt":
		return cmplx.Sqrt
	case "exp":
		return cmplx.Exp
	case "log":
		return cmplx.Log
	case "sin":
		return cmplx.Sin
	case "cos":
		return cmplx.Cos
	case "tan":
		return cmplx.Tan
	case "sinh":
		return cmplx.Sinh
	case "cosh":
		return cmplx.Cosh
	case "tanh":
		return cmplx.Tanh
	default:
		return nil
	}
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

// Frame is one activation's register file: the four banks with their
// spill slots, plus scratch for the argument and result lists of the
// calls the activation makes (boxed for builtins, operands for user
// functions). Frames form a chain that mirrors the
// call stack: an activation runs its callees on the frame linked behind
// its own, which is allocated on the first nested call and then kept, so
// recursion to any depth reuses the same frames call after call — no
// allocation, no synchronisation. The head of a chain is a root, claimed
// from rootPool by a Run whose caller has no frame (the interpreter, the
// engine's API, an OSR transfer) and owned by that activation alone
// until it returns; concurrent callers of one *Compiled hold different
// roots and therefore never share a frame.
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
	// next user call, then this activation's own scalar outputs — and
	// behind them outs, where this activation's callees leave their
	// results (nil for a root, whose callee allocates its result list).
	ops  []Operand
	outs []Operand
	// next is the frame this activation's callees run on.
	next *Frame
}

// rootPool parks idle chains. A slot changes hands by compare-and-swap
// between nil and a root, so parking and claiming take no lock and a
// parked chain has exactly one claimant. Unlike a sync.Pool the row
// neither empties at a collection nor (under the race detector) drops
// entries at random, so a single caller's allocation count is exact and
// repeats — the benchmark's malloc metrics rely on that. A release that
// finds every slot taken (that many activations entered from outside the
// VM at once) leaves its chain to the collector.
var rootPool [16]atomic.Pointer[Frame]

func claimRoot() *Frame {
	for i := range rootPool {
		if parked := rootPool[i].Load(); parked != nil && rootPool[i].CompareAndSwap(parked, nil) {
			return parked
		}
	}
	return new(Frame)
}

// maxIdleBytes bounds the register memory a parked chain keeps. A frame
// is a couple of kilobytes for a heavily inlined function, and recursion
// depth is the program's to choose; without a bound one deep call would
// leave its whole stack allocated for the life of the process. Deeper
// recursion still runs allocation-free while it lasts and re-grows the
// tail once per call from outside.
const maxIdleBytes = 16 << 10

// bytes is the frame's footprint: its four banks plus (roundly) the
// struct itself, so even register-less frames count for something.
func (fr *Frame) bytes() int {
	return 128 + 8*(cap(fr.f)+cap(fr.i)+cap(fr.v)) + 16*cap(fr.c) + 32*cap(fr.ops)
}

func parkRoot(root *Frame) {
	kept := 0
	for fr := root; fr.next != nil; fr = fr.next {
		if kept += fr.next.bytes(); kept > maxIdleBytes {
			fr.next = nil
			break
		}
	}
	for i := range rootPool {
		if rootPool[i].Load() == nil && rootPool[i].CompareAndSwap(nil, root) {
			return
		}
	}
}

// sized returns s with length n, reallocating only when the kept
// capacity is too small. The contents are unspecified.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
	root := caller == nil
	if root {
		caller = claimRoot()
	}
	fr := caller.next
	if fr == nil {
		fr = new(Frame)
		caller.next = fr
	}
	fr.f = sized(fr.f, int(p.NumF+p.SlotsF))
	fr.i = sized(fr.i, int(p.NumI+p.SlotsI))
	fr.c = sized(fr.c, int(p.NumC+p.SlotsC))
	fr.v = sized(fr.v, int(p.NumV+p.SlotsV)+c.builtinArgs)
	fr.ops = sized(fr.ops, c.callSlots+c.callOuts)
	clear(fr.f)
	clear(fr.i)
	clear(fr.c)
	copy(fr.f[int(p.NumF)-len(p.ConstF):], p.ConstF)
	copy(fr.i[int(p.NumI)-len(p.ConstI):], p.ConstI)
	copy(fr.c[int(p.NumC)-len(p.ConstC):], p.ConstC)
	outs, err := fr.exec(c, host, args, caller.outs[:0])
	clear(fr.v)
	clear(fr.ops)
	if root {
		parkRoot(caller)
	}
	return outs, err
}

func (fr *Frame) exec(c *Compiled, host Host, args, dst []Operand) ([]Operand, error) {
	p := c.P
	F := fr.f[:p.NumF]
	I := fr.i[:p.NumI]
	C := fr.c[:p.NumC]
	V := fr.v[:p.NumV]
	SF := fr.f[p.NumF:]
	SI := fr.i[p.NumI:]
	SC := fr.c[p.NumC:]
	SV := fr.v[p.NumV : p.NumV+p.SlotsV]
	builtinArgs := fr.v[p.NumV+p.SlotsV:]
	slots := fr.ops[:c.callSlots]
	fr.outs = fr.ops[c.callSlots:]

	ctx := host.Context()

	// Parameter binding. A register scalar lands in a scalar parameter by
	// copy or conversion; only a V-bank parameter boxes it.
	for i, b := range p.Params {
		a := &args[i]
		switch b.Bank {
		case ir.BankV:
			if a.V != nil {
				a.V.MarkShared()
			}
			V[b.Reg] = a.Box()
		case ir.BankF:
			x, err := a.float()
			if err != nil {
				return nil, fmt.Errorf("vm: %s parameter %d: %v", p.Name, i+1, err)
			}
			if b.Slot {
				SF[b.Reg] = x
			} else {
				F[b.Reg] = x
			}
		case ir.BankI:
			x, ok := a.integer()
			if !ok {
				return nil, fmt.Errorf("vm: %s parameter %d: expected integer scalar", p.Name, i+1)
			}
			if b.Slot {
				SI[b.Reg] = x
			} else {
				I[b.Reg] = x
			}
		case ir.BankC:
			z, ok := a.complex()
			if !ok {
				return nil, fmt.Errorf("vm: %s parameter %d: expected scalar", p.Name, i+1)
			}
			if b.Slot {
				SC[b.Reg] = z
			} else {
				C[b.Reg] = z
			}
		}
	}

	// The host's cancel flag (nil when it has none) is polled at every
	// backward transfer, conditional or not (a while loop closes with a
	// jump to its test, a counted for loop with the test itself: see
	// taken). Every cycle in the code contains one, so a raised flag
	// aborts `while 1; end` and `for i = 1:1e12, end` within one trip.
	var cflag *cancel.Flag
	if c, ok := host.(cancel.Checker); ok {
		cflag = c.CancelFlag()
	}

	ins := p.Ins
	pc, target := 0, 0
	var err error
	var fuseSlots [ir.MaxFuseOperands]float64
	for {
		in := &ins[pc]
		switch in.Op {
		case ir.OpNop:
		case ir.OpJmp:
			target = int(in.A)
			goto taken
		case ir.OpRet:
			outs := dst[:0]
			if cap(outs) < len(p.OutRegs) {
				outs = make([]Operand, 0, len(p.OutRegs))
			}
			for k, reg := range p.OutRegs {
				if reg == ir.Staged {
					outs = append(outs, slots[k])
					continue
				}
				v := V[reg]
				if v == nil {
					v = mat.Empty()
				}
				v.MarkShared()
				outs = append(outs, Operand{V: v})
			}
			return outs, nil

		case ir.OpBrTrueF:
			if F[in.A] != 0 {
				target = int(in.C)
				goto taken
			}
		case ir.OpBrFalseF:
			if F[in.A] == 0 {
				target = int(in.C)
				goto taken
			}
		case ir.OpBrFalseV:
			if V[in.A] == nil || !V[in.A].IsTrue() {
				target = int(in.C)
				goto taken
			}
		case ir.OpBrTrueV:
			if V[in.A] != nil && V[in.A].IsTrue() {
				target = int(in.C)
				goto taken
			}
		case ir.OpBrFLt:
			if F[in.A] < F[in.B] {
				target = int(in.C)
				goto taken
			}
		case ir.OpBrFLe:
			if F[in.A] <= F[in.B] {
				target = int(in.C)
				goto taken
			}
		case ir.OpBrFEq:
			if F[in.A] == F[in.B] {
				target = int(in.C)
				goto taken
			}
		case ir.OpBrFNe:
			if F[in.A] != F[in.B] {
				target = int(in.C)
				goto taken
			}
		case ir.OpBrFNLt:
			if !(F[in.A] < F[in.B]) {
				target = int(in.C)
				goto taken
			}
		case ir.OpBrFNLe:
			if !(F[in.A] <= F[in.B]) {
				target = int(in.C)
				goto taken
			}
		case ir.OpBrILt:
			if I[in.A] < I[in.B] {
				target = int(in.C)
				goto taken
			}
		case ir.OpBrILe:
			if I[in.A] <= I[in.B] {
				target = int(in.C)
				goto taken
			}
		case ir.OpBrIEq:
			if I[in.A] == I[in.B] {
				target = int(in.C)
				goto taken
			}
		case ir.OpBrINe:
			if I[in.A] != I[in.B] {
				target = int(in.C)
				goto taken
			}

		case ir.OpFMov:
			F[in.A] = F[in.B]
		case ir.OpIMov:
			I[in.A] = I[in.B]
		case ir.OpCMov:
			C[in.A] = C[in.B]
		case ir.OpVMov:
			V[in.A] = V[in.B]
		case ir.OpVMovSwap:
			V[in.A], V[in.B] = V[in.B], V[in.A]
		case ir.OpVClone:
			if V[in.B] == nil {
				V[in.A] = mat.Empty()
			} else {
				V[in.A] = mat.Donors{Dst: V[in.A]}.Clone(V[in.B])
			}

		case ir.OpItoF:
			F[in.A] = float64(I[in.B])
		case ir.OpFtoI:
			I[in.A] = int64(F[in.B])
		case ir.OpFtoC:
			C[in.A] = complex(F[in.B], 0)
		case ir.OpItoC:
			C[in.A] = complex(float64(I[in.B]), 0)
		case ir.OpBoxF:
			V[in.A] = mat.Scalar(F[in.B])
		case ir.OpBoxI:
			V[in.A] = mat.IntScalar(float64(I[in.B]))
		case ir.OpBoxC:
			V[in.A] = mat.ComplexScalar(C[in.B]).Demote()
		case ir.OpUnboxF:
			x, e := unboxF(V[in.B])
			if e != nil {
				err = e
				goto fail
			}
			F[in.A] = x
		case ir.OpUnboxI:
			x, e := unboxF(V[in.B])
			if e != nil {
				err = e
				goto fail
			}
			if x != math.Trunc(x) {
				err = fmt.Errorf("expected an integer value, got %g", x)
				goto fail
			}
			I[in.A] = int64(x)
		case ir.OpUnboxC:
			v := V[in.B]
			if v == nil || !v.IsScalar() {
				err = fmt.Errorf("expected a scalar")
				goto fail
			}
			C[in.A] = v.ComplexAt(0)

		case ir.OpFAdd:
			F[in.A] = F[in.B] + F[in.C]
		case ir.OpFSub:
			F[in.A] = F[in.B] - F[in.C]
		case ir.OpFMul:
			F[in.A] = F[in.B] * F[in.C]
		case ir.OpFDiv:
			F[in.A] = F[in.B] / F[in.C]
		case ir.OpFNeg:
			F[in.A] = -F[in.B]
		case ir.OpFPow:
			F[in.A] = math.Pow(F[in.B], F[in.C])
		case ir.OpFMod:
			F[in.A] = builtins.Mod(F[in.B], F[in.C])
		case ir.OpFRem:
			F[in.A] = builtins.Rem(F[in.B], F[in.C])
		case ir.OpFMath:
			F[in.A] = c.mathFns[in.C](F[in.B])
		case ir.OpFAnd:
			F[in.A] = b2f(F[in.B] != 0 && F[in.C] != 0)
		case ir.OpFOr:
			F[in.A] = b2f(F[in.B] != 0 || F[in.C] != 0)
		case ir.OpFNot:
			F[in.A] = b2f(F[in.B] == 0)
		case ir.OpFRand:
			if in.B == 0 {
				F[in.A] = ctx.RNG.Float64()
			} else {
				F[in.A] = ctx.RNG.Normal()
			}

		case ir.OpFCmpEq:
			F[in.A] = b2f(F[in.B] == F[in.C])
		case ir.OpFCmpNe:
			F[in.A] = b2f(F[in.B] != F[in.C])
		case ir.OpFCmpLt:
			F[in.A] = b2f(F[in.B] < F[in.C])
		case ir.OpFCmpLe:
			F[in.A] = b2f(F[in.B] <= F[in.C])

		case ir.OpIAdd:
			I[in.A] = I[in.B] + I[in.C]
		case ir.OpISub:
			I[in.A] = I[in.B] - I[in.C]
		case ir.OpIMul:
			I[in.A] = I[in.B] * I[in.C]
		case ir.OpINeg:
			I[in.A] = -I[in.B]
		case ir.OpIMod:
			I[in.A] = imod(I[in.B], I[in.C])
		case ir.OpICmpEq:
			F[in.A] = b2f(I[in.B] == I[in.C])
		case ir.OpICmpNe:
			F[in.A] = b2f(I[in.B] != I[in.C])
		case ir.OpICmpLt:
			F[in.A] = b2f(I[in.B] < I[in.C])
		case ir.OpICmpLe:
			F[in.A] = b2f(I[in.B] <= I[in.C])

		case ir.OpCAdd:
			C[in.A] = C[in.B] + C[in.C]
		case ir.OpCSub:
			C[in.A] = C[in.B] - C[in.C]
		case ir.OpCMul:
			C[in.A] = C[in.B] * C[in.C]
		case ir.OpCDiv:
			C[in.A] = C[in.B] / C[in.C]
		case ir.OpCNeg:
			C[in.A] = -C[in.B]
		case ir.OpCPow:
			C[in.A] = cmplx.Pow(C[in.B], C[in.C])
		case ir.OpCAbs:
			F[in.A] = cmplx.Abs(C[in.B])
		case ir.OpCMath:
			f := c.cmathFns[in.C]
			if f == nil {
				err = fmt.Errorf("complex math function not supported")
				goto fail
			}
			C[in.A] = f(C[in.B])
		case ir.OpCCmpEq:
			F[in.A] = b2f(C[in.B] == C[in.C])
		case ir.OpCCmpNe:
			F[in.A] = b2f(C[in.B] != C[in.C])
		case ir.OpCReal:
			F[in.A] = real(C[in.B])
		case ir.OpCImag:
			F[in.A] = imag(C[in.B])
		case ir.OpCConj:
			C[in.A] = cmplx.Conj(C[in.B])

		case ir.OpFLd1:
			x, e := V[in.B].CheckedGet1(F[in.C])
			if e != nil {
				err = e
				goto fail
			}
			F[in.A] = x
		case ir.OpFLd1I:
			x, e := V[in.B].CheckedGet1(float64(I[in.C]))
			if e != nil {
				err = e
				goto fail
			}
			F[in.A] = x
		case ir.OpFLd1U:
			F[in.A] = V[in.B].FastGet1(int(I[in.C]) - 1)
		case ir.OpFLd2:
			x, e := V[in.B].CheckedGet2(F[in.C], F[in.D])
			if e != nil {
				err = e
				goto fail
			}
			F[in.A] = x
		case ir.OpFLd2I:
			x, e := V[in.B].CheckedGet2(float64(I[in.C]), float64(I[in.D]))
			if e != nil {
				err = e
				goto fail
			}
			F[in.A] = x
		case ir.OpFLd2U:
			F[in.A] = V[in.B].FastGet2(int(I[in.C])-1, int(I[in.D])-1)
		// A store writes through the value its base register owns: owned
		// is one predictable branch on the fast path (written out, because
		// with a call in it the check does not inline).
		case ir.OpFSt1:
			v := V[in.A]
			if v == nil || v.IsShared() {
				v = owned(&V[in.A])
			}
			if e := v.CheckedSet1(F[in.B], F[in.C]); e != nil {
				err = e
				goto fail
			}
		case ir.OpFSt1I:
			v := V[in.A]
			if v == nil || v.IsShared() {
				v = owned(&V[in.A])
			}
			if e := v.CheckedSet1(float64(I[in.B]), F[in.C]); e != nil {
				err = e
				goto fail
			}
		case ir.OpFSt1U:
			v := V[in.A]
			if v == nil || v.IsShared() {
				v = owned(&V[in.A])
			}
			v.FastSet1(int(I[in.B])-1, F[in.C])
		case ir.OpFSt2:
			v := V[in.A]
			if v == nil || v.IsShared() {
				v = owned(&V[in.A])
			}
			if e := v.CheckedSet2(F[in.B], F[in.C], F[in.D]); e != nil {
				err = e
				goto fail
			}
		case ir.OpFSt2I:
			v := V[in.A]
			if v == nil || v.IsShared() {
				v = owned(&V[in.A])
			}
			if e := v.CheckedSet2(float64(I[in.B]), float64(I[in.C]), F[in.D]); e != nil {
				err = e
				goto fail
			}
		case ir.OpFSt2U:
			v := V[in.A]
			if v == nil || v.IsShared() {
				v = owned(&V[in.A])
			}
			v.FastSet2(int(I[in.B])-1, int(I[in.C])-1, F[in.D])

		case ir.OpVNewZeros:
			v := mat.New(int(I[in.B]), int(I[in.C]))
			if in.Imm != 0 {
				re := v.Re()
				for i := range re {
					re[i] = in.Imm
				}
			}
			V[in.A] = v
		case ir.OpVEnsure:
			v := V[in.A]
			r, cc := int(I[in.B]), int(I[in.C])
			if v == nil || v.IsShared() || v.IsSparse() || v.Rows() != r || v.Cols() != cc || v.Kind() != mat.Real {
				V[in.A] = mat.New(r, cc)
			}
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
			l, r := vOrErr(V[in.B], &err), vOrErr(V[in.C], &err)
			if err != nil {
				goto fail
			}
			v, e := builtins.EvalBinOpInto(mat.Donors{Dst: V[in.A], Consumed: uint32(in.Imm)}, ast.BinOp(in.D), l, r)
			if e != nil {
				err = e
				goto fail
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
			x := vOrErr(V[in.B], &err)
			if err != nil {
				goto fail
			}
			v, e := evalUnOp(in.D, x, mat.Donors{Dst: V[in.A], Consumed: uint32(in.Imm)})
			if e != nil {
				err = e
				goto fail
			}
			if v == x {
				V[in.B] = nil
			}
			V[in.A] = v
		case ir.OpGIndex:
			v, e := genericIndex(vOrErr(V[in.B], &err), p.Aux, int(in.C), V)
			if err != nil {
				goto fail
			}
			if e != nil {
				err = e
				goto fail
			}
			V[in.A] = v
		case ir.OpGAssign:
			base := V[in.A]
			if base == nil {
				base = mat.Empty()
			} else if base.IsShared() {
				base = base.Clone()
			}
			if e := genericAssign(base, p.Aux, int(in.C), V, vOrErr(V[in.D], &err)); e != nil {
				err = e
				goto fail
			}
			if err != nil {
				goto fail
			}
			V[in.A] = base
		case ir.OpGColon:
			v, e := mat.Colon(vOrErr(V[in.B], &err), vOrErr(V[in.C], &err), vOrErr(V[in.D], &err))
			if err != nil {
				goto fail
			}
			if e != nil {
				err = e
				goto fail
			}
			V[in.A] = v
		case ir.OpGCat:
			v, e := genericCat(p.Aux, int(in.B), V)
			if e != nil {
				err = e
				goto fail
			}
			V[in.A] = v
		case ir.OpGBuiltin:
			if e := genericBuiltin(c, ctx, p.Aux, int(in.A), V, builtinArgs); e != nil {
				err = e
				goto fail
			}
		case ir.OpCallUser:
			if e := userCall(p, host, p.Aux, int(in.A), V, slots, fr); e != nil {
				err = e
				goto fail
			}
		case ir.OpStageF:
			slots[in.A] = Operand{F: F[in.B], Bank: ir.BankF}
		case ir.OpStageI:
			slots[in.A] = Operand{I: I[in.B], Bank: ir.BankI}
		case ir.OpFetchF:
			x, ok := fr.outs[in.B].fetchF()
			if !ok {
				return nil, ErrGuardMiss
			}
			F[in.A] = x
		case ir.OpFetchI:
			x, ok := fr.outs[in.B].fetchI()
			if !ok {
				return nil, ErrGuardMiss
			}
			I[in.A] = x
		case ir.OpGEMV:
			if e := gemv(p.Aux, int(in.B), in.Imm, int(in.A), V); e != nil {
				err = e
				goto fail
			}
		case ir.OpVFuseArgF:
			fuseSlots[in.A] = F[in.B]
		case ir.OpVFused:
			if e := fusedExec(c, ctx, p.Aux, int(in.B), int(in.A), uint32(in.C), V, &fuseSlots); e != nil {
				err = e
				goto fail
			}

		case ir.OpFLdSlot:
			F[in.A] = SF[in.B]
		case ir.OpFStSlot:
			SF[in.A] = F[in.B]
		case ir.OpILdSlot:
			I[in.A] = SI[in.B]
		case ir.OpIStSlot:
			SI[in.A] = I[in.B]
		case ir.OpCLdSlot:
			C[in.A] = SC[in.B]
		case ir.OpCStSlot:
			SC[in.A] = C[in.B]
		case ir.OpVLdSlot:
			V[in.A] = SV[in.B]
		case ir.OpVStSlot:
			SV[in.A] = V[in.B]

		case ir.OpVCheck:
			fr.runStepHook(p, pc-1, args)
		case ir.OpCount:
			runBlockHook(p, pc)

		default:
			err = fmt.Errorf("unimplemented opcode %v", in.Op)
			goto fail
		}
		pc++
		continue
	taken:
		if target <= pc && cflag != nil && cflag.Raised() {
			err = cancel.ErrInterrupted
			goto fail
		}
		pc = target
		continue
	fail:
		return nil, &Error{Fn: p.Name, PC: pc, Err: err}
	}
}

// owned gives a V register a value of its own for a store to write
// through, when it holds none or a shared one: the call-by-value copy of a
// written parameter or of a B = A alias is made here, by the store that
// needs it, and a register no path assigned starts as the empty matrix a
// store grows.
func owned(reg **mat.Value) *mat.Value {
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

func vOrErr(v *mat.Value, err *error) *mat.Value {
	if v == nil && *err == nil {
		*err = fmt.Errorf("use of undefined value")
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
