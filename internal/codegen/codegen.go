// Package codegen lowers type-annotated ASTs to the IR of package ir,
// implementing the paper's code selection rules (§2.6.1): inlined
// scalar arithmetic and math functions, inlined scalar/F90 index
// operations with conservative subscript-check removal, full unrolling
// of small fixed-shape vector operations, pre-allocated temporaries,
// dgemv fusion, and the generic complex-matrix fallback for everything
// type inference left at ⊤.
//
// The same selection rules serve both of MaJIC's code generators: the
// JIT generator emits this IR directly (one fast pass, no backend
// optimization), while the "source" generator used by speculative and
// FALCON-style compilation runs the optimizing pass pipeline of
// internal/opt over the IR afterwards, standing in for the platform's
// native C/Fortran compiler.
package codegen

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/disambig"
	"repro/internal/infer"
	"repro/internal/ir"
	"repro/internal/types"
)

// Config controls code selection.
type Config struct {
	// UnrollSmallVectors enables full unrolling of elementwise ops on
	// small exactly-shaped operands.
	UnrollSmallVectors bool
	// FuseGEMV enables the a*A*x + b*y → dgemv pattern match.
	FuseGEMV bool
	// FuseElemwise collects maximal trees of elementwise operators on
	// proven-real operands into single OpVFused kernels that run as one
	// loop with no intermediate arrays. Off by default so the baseline
	// paper-mode measurements keep the one-library-call-per-operator
	// execution model.
	FuseElemwise bool
	// MaxUnrollElems caps the unrolled element count (paper: "very
	// effective on small (up to 3x3) matrices").
	MaxUnrollElems int
	// UnrollLoops replicates simple counted-loop bodies this many times
	// (1 = off). The JIT generator never unrolls ("no loop
	// optimizations are performed"); the optimizing backend does.
	UnrollLoops int
}

// DefaultConfig matches the JIT code generator.
func DefaultConfig() Config {
	return Config{UnrollSmallVectors: true, FuseGEMV: true, MaxUnrollElems: 9, UnrollLoops: 1}
}

// ErrUnsupported reports a construct the compiler does not handle;
// the engine falls back to interpretation (exactly how MaJIC defers
// ambiguous symbols and exotic features to runtime).
type ErrUnsupported struct{ Reason string }

func (e *ErrUnsupported) Error() string { return "codegen: " + e.Reason }

func unsupported(format string, args ...any) error {
	return &ErrUnsupported{Reason: fmt.Sprintf(format, args...)}
}

// slot is a variable's storage assignment.
type slot struct {
	bank ir.Bank
	reg  int32
}

type gen struct {
	cfg  Config
	res  *infer.Result
	tbl  *disambig.Table
	prog *ir.Prog

	vars map[string]slot
	// varV[r] is set when V register r is a variable's home slot; every
	// other V register is an expression temporary.
	varV []bool

	nextF, nextI, nextC, nextV int32
	// varRegs[b] is the number of registers of scalar bank b that are
	// variables' homes: they are numbered first, so a register at or above
	// it is an expression temporary. born[b] is the length of the code
	// when the bank's newest register was created (see retarget).
	varRegs, born [3]int32

	// patch lists for loops
	breakPatches    [][]int
	continuePatches [][]int
	returnPatches   []int

	mathIDs    map[string]int32
	builtinIDs map[string]int32
	callIDs    map[string]int32
	vpool      []VConst

	// endCtx is the stack of index contexts for 'end' compilation.
	endCtx []endCtx
}

// VConst is a boxed constant (strings, the colon marker).
type VConst struct {
	Str     string
	IsColon bool
}

// Compile lowers a function to IR. The result has virtual register
// numbers; run regalloc.Allocate before execution.
//
// Concurrency audit (async compilation service): Compile only reads
// its inputs and builds a fresh *ir.Prog; it keeps no package-level
// mutable state (the type-rule database and builtin registry are
// immutable after init). Concurrent compilations of the same function
// from worker-pool goroutines are therefore safe as long as each call
// gets its own inference Result and disambiguation Table, which the
// engine's pipeline guarantees (both are built per compile).
func Compile(fn *ast.Function, res *infer.Result, tbl *disambig.Table, cfg Config) (prog *ir.Prog, err error) {
	defer func() {
		if r := recover(); r != nil {
			if u, ok := r.(*ErrUnsupported); ok {
				prog, err = nil, u
				return
			}
			panic(r)
		}
	}()
	if tbl.HasAmbiguous {
		return nil, unsupported("function %s contains ambiguous or undefined symbols", fn.Name)
	}
	if cfg.MaxUnrollElems == 0 {
		cfg.MaxUnrollElems = 9
	}
	g := &gen{
		cfg:        cfg,
		res:        res,
		tbl:        tbl,
		prog:       &ir.Prog{Name: fn.Name},
		vars:       map[string]slot{},
		mathIDs:    map[string]int32{},
		builtinIDs: map[string]int32{},
		callIDs:    map[string]int32{},
	}

	// Variables used as indexing bases need boxed storage even when
	// their joined type is scalar-shaped.
	forceV := map[string]bool{}
	ast.WalkStmts(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Call:
			if x.Kind == ast.CallIndex {
				forceV[x.Name] = true
			}
		case *ast.Assign:
			for _, l := range x.LHS {
				if c, ok := l.(*ast.Call); ok {
					forceV[c.Name] = true
				}
			}
		}
		return true
	})

	// Assign storage classes to all variables from their joined types —
	// the FALCON-style "declaration" step driven by inference.
	// In name order, so that one function and signature always compile to
	// the same register numbering.
	names := make([]string, 0, len(tbl.Vars))
	for name := range tbl.Vars {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t, ok := res.Vars[name]
		if !ok {
			t = types.Top
		}
		class := classOf(t)
		if forceV[name] || res.Boxed[name] {
			class = ir.BankV
		}
		g.vars[name] = g.newSlot(class)
	}
	g.varRegs = [3]int32{g.nextF, g.nextI, g.nextC}

	// Parameter bindings.
	for _, p := range fn.Ins {
		s, ok := g.vars[p]
		if !ok {
			s = g.newSlot(ir.BankV)
			g.vars[p] = s
		}
		g.prog.Params = append(g.prog.Params, ir.ParamBinding{Bank: s.bank, Reg: s.reg})
	}

	g.stmts(fn.Body)

	// Epilogue: an output whose home is an F or I register is staged as it
	// is (whoever receives it boxes it, if it must); a complex one is
	// boxed here.
	epi := len(g.prog.Ins)
	for _, at := range g.returnPatches {
		g.prog.Ins[at].C = int32(epi)
		if g.prog.Ins[at].Op == ir.OpJmp {
			g.prog.Ins[at].A = int32(epi)
		}
	}
	for _, out := range fn.Outs {
		s, ok := g.vars[out]
		if !ok {
			s = g.newSlot(ir.BankV)
			g.vars[out] = s
		}
		if g.stage(int32(len(g.prog.OutRegs)), s) {
			g.prog.OutRegs = append(g.prog.OutRegs, ir.Staged)
		} else {
			g.prog.OutRegs = append(g.prog.OutRegs, g.toV(s.bank, s.reg))
		}
	}
	g.emit(ir.Instr{Op: ir.OpRet})

	g.prog.NumF, g.prog.NumI, g.prog.NumC, g.prog.NumV = g.nextF, g.nextI, g.nextC, g.nextV
	finalizePools(g)
	return g.prog, nil
}

func finalizePools(g *gen) {
	g.prog.MathFns = make([]string, len(g.mathIDs))
	for name, id := range g.mathIDs {
		g.prog.MathFns[id] = name
	}
	g.prog.Builtins = make([]string, len(g.builtinIDs))
	for name, id := range g.builtinIDs {
		g.prog.Builtins[id] = name
	}
	g.prog.Calls = make([]string, len(g.callIDs))
	for name, id := range g.callIDs {
		g.prog.Calls[id] = name
	}
	g.prog.VPoolStrs = make([]ir.VConstDesc, len(g.vpool))
	for i, vc := range g.vpool {
		g.prog.VPoolStrs[i] = ir.VConstDesc{Str: vc.Str, IsColon: vc.IsColon}
	}
}

// classOf picks a register bank from a variable's joined type.
func classOf(t types.Type) ir.Bank {
	if t.Sp {
		// A possibly-sparse value keeps its CSR representation only in a
		// boxed register; unboxing would force densification.
		return ir.BankV
	}
	if t.IsScalar() {
		switch {
		case types.LeqI(t.I, types.IInt):
			return ir.BankI
		case types.LeqI(t.I, types.IReal):
			return ir.BankF
		case types.LeqI(t.I, types.ICplx):
			return ir.BankC
		}
	}
	return ir.BankV
}

func (g *gen) newSlot(b ir.Bank) slot {
	s := slot{bank: b, reg: g.newReg(b)}
	if b == ir.BankV {
		for int(s.reg) >= len(g.varV) {
			g.varV = append(g.varV, false)
		}
		g.varV[s.reg] = true
	}
	return s
}

// next is the counter of bank b's registers.
func (g *gen) next(b ir.Bank) *int32 {
	return [...]*int32{&g.nextF, &g.nextI, &g.nextC, &g.nextV}[b]
}

func (g *gen) newReg(b ir.Bank) int32 {
	if b != ir.BankV {
		g.born[b] = int32(len(g.prog.Ins))
	}
	n := g.next(b)
	*n++
	return *n - 1
}

// retarget makes the instruction that computed temporary r of bank b
// write dst instead, when that is the instruction just emitted and r is
// the register created for it: r then has no other definition and no use
// yet, so nothing can tell the difference and the move is never emitted
// (x = x + 1 is one fadd x, x, =1). It reports whether it did.
func (g *gen) retarget(b ir.Bank, r, dst int32) bool {
	last := len(g.prog.Ins) - 1
	if last < 0 || r != *g.next(b)-1 || r < g.varRegs[b] || g.born[b] != int32(last) {
		return false
	}
	if d, ok := g.prog.Ins[last].Def(); !ok || d.Bank != b || *d.Reg != r {
		return false
	}
	g.prog.Ins[last].A = dst
	*g.next(b)-- // r is nowhere in the code: the number is free again
	return true
}

func (g *gen) emit(in ir.Instr) int {
	g.prog.Ins = append(g.prog.Ins, in)
	return len(g.prog.Ins) - 1
}

func (g *gen) here() int { return len(g.prog.Ins) }

func (g *gen) mathID(name string) int32 {
	if id, ok := g.mathIDs[name]; ok {
		return id
	}
	id := int32(len(g.mathIDs))
	g.mathIDs[name] = id
	return id
}

func (g *gen) builtinID(name string) int32 {
	if id, ok := g.builtinIDs[name]; ok {
		return id
	}
	id := int32(len(g.builtinIDs))
	g.builtinIDs[name] = id
	return id
}

func (g *gen) callID(name string) int32 {
	if id, ok := g.callIDs[name]; ok {
		return id
	}
	id := int32(len(g.callIDs))
	g.callIDs[name] = id
	return id
}

func (g *gen) vconst(vc VConst) int32 {
	for i, existing := range g.vpool {
		if existing == vc {
			return int32(i)
		}
	}
	g.vpool = append(g.vpool, vc)
	return int32(len(g.vpool) - 1)
}

// annOf returns the inference annotation for an expression.
func (g *gen) annOf(e ast.Expr) types.Type { return g.res.TypeOf(e) }

// --- conversions --------------------------------------------------------------
//
// A constant register (r < 0) converts at compile time, to the constant
// of the other bank.

// toF converts a (bank, reg) value to an F register.
func (g *gen) toF(b ir.Bank, r int32) int32 {
	switch b {
	case ir.BankF:
		return r
	case ir.BankI:
		if r < 0 {
			return g.prog.FConst(float64(g.prog.ConstI[^r]))
		}
		d := g.newReg(ir.BankF)
		g.emit(ir.Instr{Op: ir.OpItoF, A: d, B: r})
		return d
	case ir.BankC:
		// real part (used only where inference proved realness)
		if r < 0 {
			return g.prog.FConst(real(g.prog.ConstC[^r]))
		}
		d := g.newReg(ir.BankF)
		g.emit(ir.Instr{Op: ir.OpCReal, A: d, B: r})
		return d
	default:
		d := g.newReg(ir.BankF)
		g.emit(ir.Instr{Op: ir.OpUnboxF, A: d, B: r})
		return d
	}
}

// toI converts to an I register (value must be provably integral).
func (g *gen) toI(b ir.Bank, r int32) int32 {
	switch b {
	case ir.BankI:
		return r
	case ir.BankF:
		if r < 0 {
			return g.prog.IConst(int64(g.prog.ConstF[^r]))
		}
		d := g.newReg(ir.BankI)
		g.emit(ir.Instr{Op: ir.OpFtoI, A: d, B: r})
		return d
	case ir.BankC:
		f := g.toF(b, r)
		return g.toI(ir.BankF, f)
	default:
		d := g.newReg(ir.BankI)
		g.emit(ir.Instr{Op: ir.OpUnboxI, A: d, B: r})
		return d
	}
}

// toC converts to a C register.
func (g *gen) toC(b ir.Bank, r int32) int32 {
	switch b {
	case ir.BankC:
		return r
	case ir.BankF:
		if r < 0 {
			return g.prog.CConst(complex(g.prog.ConstF[^r], 0))
		}
		d := g.newReg(ir.BankC)
		g.emit(ir.Instr{Op: ir.OpFtoC, A: d, B: r})
		return d
	case ir.BankI:
		if r < 0 {
			return g.prog.CConst(complex(float64(g.prog.ConstI[^r]), 0))
		}
		d := g.newReg(ir.BankC)
		g.emit(ir.Instr{Op: ir.OpItoC, A: d, B: r})
		return d
	default:
		d := g.newReg(ir.BankC)
		g.emit(ir.Instr{Op: ir.OpUnboxC, A: d, B: r})
		return d
	}
}

// toV boxes a value into a V register.
func (g *gen) toV(b ir.Bank, r int32) int32 {
	switch b {
	case ir.BankV:
		return r
	case ir.BankF:
		d := g.newReg(ir.BankV)
		g.emit(ir.Instr{Op: ir.OpBoxF, A: d, B: r})
		return d
	case ir.BankI:
		d := g.newReg(ir.BankV)
		g.emit(ir.Instr{Op: ir.OpBoxI, A: d, B: r})
		return d
	default:
		d := g.newReg(ir.BankV)
		g.emit(ir.Instr{Op: ir.OpBoxC, A: d, B: r})
		return d
	}
}

// to converts a value to a target bank.
func (g *gen) to(target, b ir.Bank, r int32) int32 {
	switch target {
	case ir.BankF:
		return g.toF(b, r)
	case ir.BankI:
		return g.toI(b, r)
	case ir.BankC:
		return g.toC(b, r)
	default:
		return g.toV(b, r)
	}
}
