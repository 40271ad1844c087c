package codegen

// Elementwise fusion (the temporary-elimination half of §2.6.1's code
// selection): a maximal tree of elementwise operators on proven-real
// operands compiles to a single OpVFused instruction carrying a postfix
// micro-op program, which the VM runs as one loop over the output with
// no intermediate arrays. The generic pipeline instead makes one full
// memory pass and one boxed allocation per operator.
//
// Legality rules:
//   - Interior nodes are + - .* ./ .^, * and / with a proven-scalar
//     side, unary -, and 1-argument real math builtins; each must be
//     annotated as a real (or narrower) non-scalar result.
//   - Leaves must be annotated real. Scalar leaves are evaluated once
//     and staged into the kernel's slot file by OpVFuseArgF; everything
//     else is loaded per element (1x1 values broadcast at runtime, just
//     as the generic operators broadcast).
//   - Subtrees the dgemv matcher claims stay leaves, so y ± A*x keeps
//     folding into dgemv's beta with the unfused accumulation order.
//   - \ and .\ never fuse (their operand order is swapped relative to
//     evaluation order), and matrix-matrix * / are not elementwise.
//
// Evaluation order, per-element arithmetic, error messages and result
// kinds are identical to the generic operator chain; the VM falls back
// to interpreting the micro-ops over boxed values whenever an operand
// is complex at runtime or an element would promote to complex.

import (
	"repro/internal/ast"
	"repro/internal/builtins"
	"repro/internal/ir"
	"repro/internal/types"
)

// fuseNode describes an interior node of a fusable elementwise tree.
type fuseNode struct {
	code int32      // ir.FuseAdd .. ir.FuseMath
	math string     // math-builtin name when code == ir.FuseMath
	kids []ast.Expr // operand subtrees in evaluation order
}

// fuseInterior classifies e as an interior node of a fused kernel.
// Anything that is not an interior node becomes a leaf: evaluated once
// by the ordinary expression compiler and fed to the kernel.
func (g *gen) fuseInterior(e ast.Expr) (fuseNode, bool) {
	ann := g.annOf(e)
	if ann.IsScalar() || !types.LeqI(ann.I, types.IReal) || ann.Sp {
		// Possibly-sparse results never fuse: the kernel's per-element
		// loads assume dense column-major payloads.
		return fuseNode{}, false
	}
	switch x := e.(type) {
	case *ast.Binary:
		kids := []ast.Expr{x.L, x.R}
		switch x.Op {
		case ast.OpAdd, ast.OpSub:
			if g.cfg.FuseGEMV {
				if _, _, _, _, ok := g.matchGEMV(x); ok {
					return fuseNode{}, false
				}
			}
			if x.Op == ast.OpAdd {
				return fuseNode{code: ir.FuseAdd, kids: kids}, true
			}
			return fuseNode{code: ir.FuseSub, kids: kids}, true
		case ast.OpEMul:
			return fuseNode{code: ir.FuseMul, kids: kids}, true
		case ast.OpEDiv:
			return fuseNode{code: ir.FuseDiv, kids: kids}, true
		case ast.OpEPow:
			return fuseNode{code: ir.FusePow, kids: kids}, true
		case ast.OpMul:
			// * is elementwise exactly when a side is a proven scalar.
			if g.annOf(x.L).IsScalar() || g.annOf(x.R).IsScalar() {
				return fuseNode{code: ir.FuseMul, kids: kids}, true
			}
		case ast.OpDiv:
			if g.annOf(x.R).IsScalar() {
				return fuseNode{code: ir.FuseDiv, kids: kids}, true
			}
		}
	case *ast.Unary:
		if x.Op == ast.OpNeg {
			return fuseNode{code: ir.FuseNeg, kids: []ast.Expr{x.X}}, true
		}
	case *ast.Call:
		if x.Kind == ast.CallBuiltin && len(x.Args) == 1 {
			if _, ok := builtins.ScalarMathFunc(x.Name); ok {
				return fuseNode{code: ir.FuseMath, math: x.Name, kids: []ast.Expr{x.Args[0]}}, true
			}
		}
	}
	return fuseNode{}, false
}

// tryFuseExpr compiles e as one fused elementwise kernel when it roots
// a tree of at least two fusable operators (a single generic op is
// already one memory pass).
func (g *gen) tryFuseExpr(e ast.Expr) (ir.Bank, int32, bool) {
	return g.fuseTree(e, 2, g.fuseInterior)
}

// scalarSide classifies e like fuseInterior, accepting only + - * / .*
// ./ over a proven real scalar and a dense real non-scalar (alpha*p,
// D/w, b + 2): the operators whose generic form would box the scalar.
func (g *gen) scalarSide(e ast.Expr) (fuseNode, bool) {
	n, ok := g.fuseInterior(e)
	if !ok || len(n.kids) != 2 || n.code == ir.FusePow {
		return fuseNode{}, false
	}
	l, r := g.annOf(n.kids[0]), g.annOf(n.kids[1])
	return n, l.IsScalar() && types.LeqI(l.I, types.IReal) || r.IsScalar() && types.LeqI(r.I, types.IReal)
}

// tryFuseScalar is the selection rule that keeps a register scalar out
// of a box, whatever FuseElemwise says: x with a scalar side, or the
// axpy shape x ± s*p, compiles to one kernel whose scalars travel
// through OpVFuseArgF. Only x itself and descendants with a scalar side
// join the kernel; every other subtree is a leaf the ordinary rules
// compile. .^ never roots one: what FuseElemwise governs (kernels that
// can abort to the boxed path) stays behind that option. The result
// equals the generic chain's bit for bit — each operator runs the same
// loop of mat's kernel table either way.
func (g *gen) tryFuseScalar(x *ast.Binary) (ir.Bank, int32, bool) {
	_, root := g.scalarSide(x)
	_, left := g.scalarSide(x.L)
	_, right := g.scalarSide(x.R)
	if x.Op == ast.OpEPow || !root && !left && !right {
		return 0, 0, false
	}
	return g.fuseTree(x, 1, func(e ast.Expr) (fuseNode, bool) {
		if e == ast.Expr(x) {
			return g.fuseInterior(e)
		}
		return g.scalarSide(e)
	})
}

// fuseTree compiles the tree under e whose interior nodes interior
// accepts, when it has at least minOps of them. The first walk only
// counts — it evaluates nothing, so a declined fusion leaves no stray
// code behind.
func (g *gen) fuseTree(e ast.Expr, minOps int, interior func(ast.Expr) (fuseNode, bool)) (ir.Bank, int32, bool) {
	nops, nleaves := 0, 0
	legal := true
	var count func(e ast.Expr)
	count = func(e ast.Expr) {
		n, ok := interior(e)
		if !ok {
			if la := g.annOf(e); !types.LeqI(la.I, types.IReal) || la.Sp {
				legal = false
			}
			nleaves++
			return
		}
		nops++
		for _, k := range n.kids {
			count(k)
		}
	}
	count(e)
	if !legal || nops < minOps || nleaves > ir.MaxFuseOperands || nops+nleaves > ir.MaxFuseOps {
		return 0, 0, false
	}

	// Second walk: evaluate leaves depth-first left-to-right (the same
	// order the generic pipeline evaluates them) and record the postfix
	// micro-op program. Scalar staging is deferred so all OpVFuseArgF
	// instructions sit contiguously in front of the kernel — a nested
	// fusion inside a leaf would otherwise clobber this kernel's slots.
	var vRegs, slotRegs []int32
	var code []int32
	var consumed uint32 // mat.Donors.Consumed over vRegs
	vIndex := func(r int32) int32 {
		for i, vr := range vRegs {
			if vr == r {
				return int32(i)
			}
		}
		vRegs = append(vRegs, r)
		return int32(len(vRegs) - 1)
	}
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		n, ok := interior(e)
		if !ok {
			b, r := g.expr(e)
			switch b {
			case ir.BankV:
				k := vIndex(r)
				code = append(code, ir.FuseLoadV, k)
				consumed |= g.consumed(r) << k
			case ir.BankI:
				code = append(code, ir.FuseLoadSI, int32(len(slotRegs)))
				slotRegs = append(slotRegs, g.toF(ir.BankI, r))
			default: // BankF; BankC cannot carry a real-annotated value
				code = append(code, ir.FuseLoadSF, int32(len(slotRegs)))
				slotRegs = append(slotRegs, g.toF(b, r))
			}
			return
		}
		for _, k := range n.kids {
			walk(k)
		}
		var arg int32
		if n.code == ir.FuseMath {
			arg = g.mathID(n.math)
		}
		code = append(code, n.code, arg)
	}
	walk(e)

	for i, f := range slotRegs {
		g.emit(ir.Instr{Op: ir.OpVFuseArgF, A: int32(i), B: f})
	}
	aux := make([]int32, 0, len(vRegs)+len(code)+3)
	aux = append(aux, int32(len(vRegs)))
	aux = append(aux, vRegs...)
	aux = append(aux, int32(len(slotRegs)), int32(len(code)/2))
	aux = append(aux, code...)
	at := g.prog.AddAux(aux...)
	d := g.newReg(ir.BankV)
	g.emit(ir.Instr{Op: ir.OpVFused, A: d, B: at, C: int32(consumed)})
	return ir.BankV, d, true
}
