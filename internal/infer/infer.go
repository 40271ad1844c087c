package infer

import (
	"math"

	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/types"
)

// Opts configures an inference run. The two Disable switches implement
// the Figure 7 ablations: without range propagation every range is ⊤
// (disabling subscript-check removal and constant propagation); without
// minimum-shape propagation every lower shape bound is ⊥ (disabling
// exact shapes, hence unrolling and much check removal).
type Opts struct {
	NoRanges    bool
	NoMinShapes bool
	// AllTop forces every annotation to ⊤: the mcc-style batch
	// compilation that removes interpretation but performs no type
	// specialization at all.
	AllTop bool
	// MaxIter caps per-block revisits before widening (the paper "caps
	// the number of iterations" to keep JIT inference fast).
	MaxIter int
	// UserFnType resolves the type of the first result of a (non-inlined)
	// call to a user function from the argument types; nil means ⊤
	// (generic boxed call). It may answer ⊥ for a call whose result is
	// not known yet (see anyBottom). Code generation unboxes a real or
	// integer scalar answer behind a run-time guard.
	UserFnType func(name string, args []types.Type) types.Type
}

func (o Opts) maxIter() int {
	if o.MaxIter <= 0 {
		return 4
	}
	return o.MaxIter
}

// Result carries the inference output: one conservative type annotation
// per expression node (the paper's set S), plus the per-variable joined
// type that drives code generation's storage-class choice.
type Result struct {
	Annots map[ast.Node]types.Type
	Vars   map[string]types.Type
	// Bases records the base array type at each indexing site (read or
	// write), used by code generation for subscript-check removal.
	Bases map[*ast.Call]types.Type
	// Boxed names the variables that must keep boxed storage although
	// their joined type is scalar: variables that receive both integer-
	// and real-class values and whose value derives from a user call
	// typed by a return summary (Opts.UserFnType). Before summaries such a
	// variable was ⊤, hence boxed, and every path's value kept its own
	// kind; a scalar register would stamp one kind on all of them.
	Boxed map[string]bool
	// RuleApplications counts calculator invocations (statistics).
	RuleApplications int
}

// TypedCall reports whether a user call annotated t continues unboxed:
// a dense real or integer scalar, which only a return summary yields.
func TypedCall(t types.Type) bool {
	return t.IsScalar() && !t.Sp && !t.IsBottom() && types.LeqI(t.I, types.IReal)
}

// TypeOf returns the annotation for an expression (⊤ if missing).
func (r *Result) TypeOf(e ast.Expr) types.Type {
	if t, ok := r.Annots[e]; ok {
		return t
	}
	return types.Top
}

type inferencer struct {
	opts  Opts
	calc  *Calculator
	res   *Result
	graph *cfg.Graph
	// loopVar[b] is what the for loop headed by block b binds its variable
	// to on the edge into the body (see transfer).
	loopVar []types.Type
	// mixed names the variables assigned values of different register
	// classes (see Result.Boxed).
	mixed map[string]bool
	// binArgs is the argument list of the binary operator being typed,
	// rangeArgs of the for range (a loop head is revisited once per level
	// of the nest around it: no allocation per visit).
	binArgs   [2]types.Type
	rangeArgs [3]types.Type
}

// tenv is a block's type environment: one slot per variable the graph
// numbers (cfg.Graph.VarID). defined tells a name bound to ⊥ — which a
// return summary that is not known yet produces — from an unbound name,
// which an expression resolves as a call.
type tenv struct {
	g       *cfg.Graph
	types   []types.Type
	defined []bool
}

func (e *tenv) get(name string) (types.Type, bool) {
	if id, ok := e.g.VarID(name); ok && e.defined[id] {
		return e.types[id], true
	}
	return types.Type{}, false
}

func (e *tenv) set(name string, t types.Type) {
	if id, ok := e.g.VarID(name); ok {
		e.types[id], e.defined[id] = t, true
	}
}

func (e *tenv) unset(name string) {
	if id, ok := e.g.VarID(name); ok {
		e.defined[id] = false
	}
}

func (e *tenv) copyFrom(src *tenv) {
	copy(e.types, src.types)
	copy(e.defined, src.defined)
}

func joinEnv(dst, src *tenv) {
	for i, def := range src.defined {
		switch {
		case !def:
		case dst.defined[i]:
			dst.types[i] = types.Join(dst.types[i], src.types[i])
		default:
			dst.types[i], dst.defined[i] = src.types[i], true
		}
	}
}

func envLeq(a, b *tenv) bool {
	for i, def := range a.defined {
		if def && (!b.defined[i] || !types.Leq(a.types[i], b.types[i])) {
			return false
		}
	}
	return true
}

// Forward runs JIT-style forward type inference over a function body.
// params maps parameter names to their signature types (exact types in
// JIT mode, speculative guesses in speculative mode).
func Forward(g *cfg.Graph, params map[string]types.Type, opts Opts) *Result {
	inf := &inferencer{
		opts:  opts,
		calc:  DefaultCalc,
		res:   &Result{Annots: make(map[ast.Node]types.Type), Vars: make(map[string]types.Type)},
		graph: g,
	}
	// Every environment of the run is a row of two slabs: an out-set per
	// block (meaningful once the block has been visited), the entry state
	// and the set being worked on.
	nv, nb := len(g.Vars), len(g.Blocks)
	typeSlab := make([]types.Type, (nb+2)*nv)
	defSlab := make([]bool, (nb+2)*nv)
	envs := make([]tenv, nb+2)
	for i := range envs {
		envs[i] = tenv{g, typeSlab[i*nv : (i+1)*nv : (i+1)*nv], defSlab[i*nv : (i+1)*nv : (i+1)*nv]}
	}
	out, entry, cur := envs[:nb], &envs[nb], &envs[nb+1]
	visits := make([]int, nb)
	inf.loopVar = make([]types.Type, nb)
	for k, v := range params {
		v = inf.sanitize(v)
		entry.set(k, v)
		inf.noteVar(k, v)
	}

	// The queue holds each block at most once, so a ring of nb suffices.
	queue := make([]*cfg.Block, nb)
	inQueue := make([]bool, nb)
	head, n := 0, 0
	push := func(blk *cfg.Block) {
		if !inQueue[blk.ID] {
			queue[(head+n)%nb], inQueue[blk.ID] = blk, true
			n++
		}
	}

	computeIn := func(blk *cfg.Block) *tenv {
		first := true
		if blk == g.Entry {
			cur.copyFrom(entry)
			first = false
		}
		for _, p := range blk.Preds {
			switch {
			case visits[p.ID] == 0:
			case first:
				cur.copyFrom(&out[p.ID])
				first = false
			default:
				joinEnv(cur, &out[p.ID])
			}
		}
		if first {
			clear(cur.defined)
		}
		// A loop body is entered from its head alone, and on that edge the
		// head has just bound the variable: a strong update.
		if len(blk.Preds) == 1 {
			if h := blk.Preds[0]; h.ForHead != nil && h.Succs[0] == blk && visits[h.ID] > 0 {
				cur.set(h.ForHead.Var, inf.loopVar[h.ID])
			}
		}
		return cur
	}

	push(g.Entry)
	for n > 0 {
		blk := queue[head]
		head, n = (head+1)%nb, n-1
		inQueue[blk.ID] = false
		newOut := inf.transfer(blk, computeIn(blk))
		visits[blk.ID]++
		if old := &out[blk.ID]; visits[blk.ID] > 1 {
			if envLeq(newOut, old) && envLeq(old, newOut) {
				continue
			}
			// Only a variable bound in both out-sets is widened or joined;
			// one first appearing in this out-set has nothing to widen
			// against.
			if visits[blk.ID] > inf.opts.maxIter() {
				for i, def := range newOut.defined {
					if def && old.defined[i] {
						newOut.types[i] = types.Widen(old.types[i], newOut.types[i])
					}
				}
			}
			if visits[blk.ID] > 8*inf.opts.maxIter() {
				// Safety valve against transfer non-monotonicity (rule
				// ordering is most-restrictive-first, which is not
				// monotone): force monotone growth by joining with the
				// previous out-set.
				for i, def := range newOut.defined {
					if def && old.defined[i] {
						newOut.types[i] = types.Join(old.types[i], newOut.types[i])
					}
				}
			}
		}
		out[blk.ID].copyFrom(newOut)
		for _, s := range blk.Succs {
			push(s)
		}
	}
	inf.res.Boxed = inf.dynamicKinds()
	return inf.res
}

// registerClass groups the intrinsics by the register bank a scalar of
// that kind lives in, which is also the kind it is boxed back to.
func registerClass(i types.Intrinsic) int {
	switch i {
	case types.IBool, types.IInt:
		return 1
	case types.IReal:
		return 2
	}
	return 3
}

// dynamicKinds computes Result.Boxed: the mixed-class variables whose
// value derives, through any chain of assignments, from a typed user
// call.
func (inf *inferencer) dynamicKinds() map[string]bool {
	if len(inf.mixed) == 0 || inf.opts.UserFnType == nil {
		return nil
	}
	derived := map[string]bool{}
	derives := func(e ast.Expr) bool {
		found := false
		ast.Walk(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				found = found || derived[x.Name]
			case *ast.Call:
				found = found || derived[x.Name] || (x.Kind == ast.CallUser && TypedCall(inf.res.Annots[x]))
			}
			return !found
		})
		return found
	}
	mark := func(name string) bool {
		if derived[name] {
			return false
		}
		derived[name] = true
		return true
	}
	for changed := true; changed; {
		changed = false
		for _, blk := range inf.graph.Blocks {
			if f := blk.ForHead; f != nil && derives(f.Iter) {
				changed = mark(f.Var) || changed
			}
			for _, s := range blk.Stmts {
				a, ok := s.(*ast.Assign)
				if !ok || !derives(a.RHS) {
					continue
				}
				for _, l := range a.LHS {
					switch lhs := l.(type) {
					case *ast.Ident:
						changed = mark(lhs.Name) || changed
					case *ast.Call:
						changed = mark(lhs.Name) || changed
					}
				}
			}
		}
	}
	var boxed map[string]bool
	for name := range inf.mixed {
		if derived[name] {
			if boxed == nil {
				boxed = map[string]bool{}
			}
			boxed[name] = true
		}
	}
	return boxed
}

// sanitize applies the ablation switches to a type. Disabling minimum
// shapes drops the guaranteed lower bounds of arrays (no exact shapes,
// no unrolling, far less subscript-check removal) but keeps scalars
// scalar — the paper's ablation removes one analysis, it does not
// untype the whole program.
func (inf *inferencer) sanitize(t types.Type) types.Type {
	if t.IsBottom() {
		return t
	}
	if inf.opts.AllTop {
		return types.Top
	}
	if inf.opts.NoRanges {
		t.R = types.RangeTop
	}
	if inf.opts.NoMinShapes && !t.IsScalar() {
		t.MinShape = types.ShapeBot
	}
	return t
}

func (inf *inferencer) noteVar(name string, t types.Type) {
	if old, ok := inf.res.Vars[name]; ok {
		if !old.IsBottom() && !t.IsBottom() && registerClass(old.I) != registerClass(t.I) {
			if inf.mixed == nil {
				inf.mixed = map[string]bool{}
			}
			inf.mixed[name] = true
		}
		inf.res.Vars[name] = types.Join(old, t)
	} else {
		inf.res.Vars[name] = t
	}
}

// annotate records (joins) an expression annotation.
func (inf *inferencer) annotate(e ast.Expr, t types.Type) types.Type {
	t = inf.sanitize(t)
	if old, ok := inf.res.Annots[e]; ok {
		t = types.Join(old, t)
	}
	inf.res.Annots[e] = t
	return t
}

func (inf *inferencer) transfer(blk *cfg.Block, env *tenv) *tenv {
	if blk.ForHead != nil {
		t := inf.loopVarType(blk.ForHead, env)
		// The head assigns the variable on the body edge only, and there
		// its type is the iteration range, whatever the name held before
		// (Forward's computeIn applies loopVar on that edge): reusing i in
		// a sibling loop does not widen it here. On the exit edge the
		// value left by the last body iteration survives (MATLAB: a body
		// reassignment of the loop variable sticks after the loop), or
		// the one from before an empty range: the out-set is the join.
		inf.loopVar[blk.ID] = inf.sanitize(t)
		if old, ok := env.get(blk.ForHead.Var); ok {
			t = types.Join(t, old)
		}
		env.set(blk.ForHead.Var, t)
		inf.noteVar(blk.ForHead.Var, t)
	}
	for _, s := range blk.Stmts {
		switch x := s.(type) {
		case *ast.ExprStmt:
			t := inf.expr(x.X, env)
			env.set("ans", t)
			inf.noteVar("ans", t)
		case *ast.Assign:
			inf.assign(x, env)
		case *ast.Global:
			for _, n := range x.Names {
				env.set(n, types.Top)
				inf.noteVar(n, types.Top)
			}
		case *ast.Clear:
			if len(x.Names) == 0 {
				clear(env.defined)
			} else {
				for _, n := range x.Names {
					env.unset(n)
				}
			}
		}
	}
	if blk.Cond != nil {
		inf.expr(blk.Cond, env)
	}
	return env
}

// loopVarType types the loop variable from the iteration expression.
func (inf *inferencer) loopVarType(f *ast.For, env *tenv) types.Type {
	if r, ok := f.Iter.(*ast.Range); ok {
		lo := inf.expr(r.Lo, env)
		step := types.ScalarOf(types.IInt, types.Const(1))
		if r.Step != nil {
			step = inf.expr(r.Step, env)
		}
		hi := inf.expr(r.Hi, env)
		inf.rangeArgs = [3]types.Type{lo, step, hi}
		inf.annotate(r, inf.calc.Forward(":", inf.rangeArgs[:]))
		i := types.IInt
		if !intLike(lo) || !intLike(step) || !intLike(hi) {
			i = types.IReal
		}
		if !types.LeqI(i, types.IReal) || lo.R.IsBot() || hi.R.IsBot() {
			return types.ScalarOf(types.IReal, types.RangeTop)
		}
		// The loop variable ranges over [lo, hi] (or [hi, lo] for
		// negative steps) — the hull covers both directions.
		return types.ScalarOf(i, types.JoinR(lo.R, hi.R))
	}
	t := inf.expr(f.Iter, env)
	// Iterating a matrix binds one column per iteration.
	if t.IsScalar() {
		return t
	}
	return types.Type{
		I:        t.I,
		MinShape: types.Shape{R: t.MinShape.R, C: types.Fin(1)},
		MaxShape: types.Shape{R: t.MaxShape.R, C: types.Fin(1)},
		R:        t.R,
	}
}

func (inf *inferencer) assign(x *ast.Assign, env *tenv) {
	// Multi-assignment from a builtin/user call.
	if len(x.LHS) > 1 {
		call, ok := x.RHS.(*ast.Call)
		if !ok {
			return
		}
		outs := inf.callN(call, env, len(x.LHS))
		for i, l := range x.LHS {
			t := types.Top
			if i < len(outs) {
				t = outs[i]
			}
			inf.bindLHS(l, t, env)
		}
		return
	}
	t := inf.expr(x.RHS, env)
	inf.bindLHS(x.LHS[0], t, env)
}

func (inf *inferencer) bindLHS(l ast.Expr, t types.Type, env *tenv) {
	switch lhs := l.(type) {
	case *ast.Ident:
		t = inf.sanitize(t)
		env.set(lhs.Name, t)
		inf.noteVar(lhs.Name, t)
	case *ast.Call:
		// Indexed assignment A(subs) = t: update A's type.
		old, defined := env.get(lhs.Name)
		if !defined {
			old = types.Type{I: types.IBottom, MinShape: types.ShapeBot, MaxShape: types.ShapeBot, R: types.RangeBot}
		}
		subTypes := inf.subscripts(lhs, old, env)
		nt := indexedAssignType(old, subTypes, t, lhs.Args)
		nt = inf.sanitize(nt)
		env.set(lhs.Name, nt)
		inf.noteVar(lhs.Name, nt)
		inf.annotate(lhs, nt)
	}
}

// subscripts types each subscript of an indexing expression, resolving
// 'end' against the base type's shape bounds.
func (inf *inferencer) subscripts(call *ast.Call, base types.Type, env *tenv) []types.Type {
	out := make([]types.Type, len(call.Args))
	for i, a := range call.Args {
		if _, isColon := a.(*ast.Colon); isColon {
			out[i] = types.Type{} // marker; consumers check the node kind
			continue
		}
		out[i] = inf.exprWithEnd(a, base, i, len(call.Args), env)
	}
	return out
}

func (inf *inferencer) exprWithEnd(e ast.Expr, base types.Type, dim, ndims int, env *tenv) types.Type {
	// 'end' nodes inside e take their value range from base's bounds.
	// We stash the context on the inferencer via a small closure-based
	// walk: End nodes are leaf expressions, so a pre-pass annotates them.
	ast.Walk(e, func(n ast.Node) bool {
		if en, ok := n.(*ast.End); ok {
			var minE, maxE types.Extent
			if ndims == 1 {
				if n, ok := base.MinShape.Numel(); ok {
					minE = types.Fin(n)
				} else {
					minE = types.Fin(0)
				}
				if n, ok := base.MaxShape.Numel(); ok {
					maxE = types.Fin(n)
				} else {
					maxE = types.InfExt
				}
			} else if en.Dim == 0 {
				minE, maxE = base.MinShape.R, base.MaxShape.R
			} else {
				minE, maxE = base.MinShape.C, base.MaxShape.C
			}
			hi := math.Inf(1)
			if !maxE.Inf {
				hi = float64(maxE.N)
			}
			inf.res.Annots[en] = inf.sanitize(types.ScalarOf(types.IInt, types.MkRange(float64(minE.N), hi)))
		}
		_, isCall := n.(*ast.Call)
		return !isCall || n == e
	})
	return inf.expr(e, env)
}

// indexedAssignType computes the post-assignment type of the base
// array: MATLAB growth semantics mean the shape's upper bound extends
// to the subscripts' upper bounds, and — the paper's §2.4 observation —
// the subscript ranges' lower bounds raise the guaranteed minimum shape.
func indexedAssignType(old types.Type, subs []types.Type, rhs types.Type, args []ast.Expr) types.Type {
	i := old.I
	if i == types.IBottom {
		i = rhs.I
	} else {
		i = types.JoinI(i, rhs.I)
	}
	if i == types.IBool && rhs.I == types.IBool {
		i = types.IBool
	}
	r := types.JoinR(old.R, rhs.R)
	if old.R.IsBot() {
		// New or empty array: zero-fill contributes 0 to the range.
		r = types.JoinR(rhs.R, types.Const(0))
	}
	minS, maxS := old.MinShape, old.MaxShape

	extFromSub := func(t types.Type, isColon bool, oldMin, oldMax types.Extent) (types.Extent, types.Extent) {
		if isColon {
			return oldMin, oldMax
		}
		lo, hi := t.R.Lo, t.R.Hi
		minE := oldMin
		if !t.R.IsBot() && !math.IsInf(lo, -1) && lo >= 1 {
			g := types.Fin(int(math.Ceil(lo - 1e-9)))
			if types.LeqE(minE, g) {
				minE = g
			}
		}
		maxE := oldMax
		if t.R.IsBot() || math.IsInf(hi, 1) {
			maxE = types.InfExt
		} else {
			h := types.Fin(int(hi))
			if types.LeqE(maxE, h) {
				maxE = h
			}
		}
		return minE, maxE
	}

	switch len(subs) {
	case 1:
		_, isColon := args[0].(*ast.Colon)
		if isColon {
			// A(:) = v never changes the shape.
			break
		}
		// Linear store: a vector grows along its orientation. Without
		// orientation knowledge only weak bounds survive; for row/column
		// vectors we extend the free dimension.
		minE, maxE := extFromSub(subs[0], false, types.Fin(0), types.Fin(0))
		switch {
		case old.MaxShape.R.N == 1 && !old.MaxShape.R.Inf:
			// row vector (or new array: MATLAB creates 1 x n)
			if old.MinShape.R.N <= 1 {
				newMinC := minE
				if types.LeqE(newMinC, old.MinShape.C) {
					newMinC = old.MinShape.C
				}
				newMaxC := types.JoinS(types.Shape{C: maxE}, types.Shape{C: old.MaxShape.C}).C
				minS = types.Shape{R: types.Fin(1), C: newMinC}
				maxS = types.Shape{R: types.Fin(1), C: newMaxC}
			}
		case old.MaxShape.C.N == 1 && !old.MaxShape.C.Inf:
			newMinR := minE
			if types.LeqE(newMinR, old.MinShape.R) {
				newMinR = old.MinShape.R
			}
			newMaxR := types.JoinS(types.Shape{R: maxE}, types.Shape{R: old.MaxShape.R}).R
			minS = types.Shape{R: newMinR, C: types.Fin(1)}
			maxS = types.Shape{R: newMaxR, C: types.Fin(1)}
		default:
			// Unknown orientation: numel ≥ subscript lower bound is not
			// representable per-dimension; keep weak bounds.
			minS = types.MeetS(old.MinShape, types.ShapeBot)
			maxS = types.ShapeTop
		}
	case 2:
		_, c0 := args[0].(*ast.Colon)
		_, c1 := args[1].(*ast.Colon)
		minR, maxR := extFromSub(subs[0], c0, old.MinShape.R, old.MaxShape.R)
		minC, maxC := extFromSub(subs[1], c1, old.MinShape.C, old.MaxShape.C)
		minS = types.Shape{R: extMax(old.MinShape.R, minR), C: extMax(old.MinShape.C, minC)}
		maxS = types.Shape{R: extMax(old.MaxShape.R, maxR), C: extMax(old.MaxShape.C, maxC)}
	}
	return types.Type{I: i, MinShape: minS, MaxShape: maxS, R: r}
}

// extMax returns the larger extent: after a store both the old extent
// and the subscript's reach hold, for guarantees and bounds alike.
func extMax(a, b types.Extent) types.Extent {
	if types.LeqE(a, b) {
		return b
	}
	return a
}
