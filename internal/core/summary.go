package core

import (
	"repro/internal/ast"
	"repro/internal/builtins"
	"repro/internal/cfg"
	"repro/internal/disambig"
	"repro/internal/infer"
	"repro/internal/repo"
	"repro/internal/types"
)

// Return summaries. A repository entry records the result types
// inference proved for its signature (repo.Entry.Ret); compiling a caller
// asks them back through infer.Opts.UserFnType, so a call whose result is
// a real or integer scalar continues in registers instead of through a
// box and the generic operators (codegen's resultBank). A summary is a
// prediction, not a fact — the locator may answer a call from another
// entry, or from a newer definition than the caller was compiled against
// — so the fetch is guarded, and a miss abandons the activation, which
// the engine then re-runs in the interpreter (runEntry). Re-running is
// only invisible for code without side effects, hence the rule: a
// function takes and offers summaries only when it is replay-safe — no
// output, no RNG draw, no global, here or in anything it calls.

// summaries is the state of one compile's summary resolution.
type summaries struct {
	r    *repo.Repository
	self string
	// family is the signature under compilation, widened: a recursive
	// call whose widened argument types it covers is served by this
	// version or a sibling compiled for other ranges of the same kinds
	// and shapes.
	family types.Signature
	// assume is what a recursive call (one the signature being compiled
	// covers) is taken to return while the function's own summary is
	// being solved for.
	assume   types.Type
	usedSelf bool
	deps     []repo.Dep
}

// inferWithSummaries runs forward inference for fn (work is its inlined
// body) with user calls typed by return summaries where that is sound,
// and records the outcome — result types and the callees consulted — in
// out.
//
// A function's summary depends on itself when it recurses, so it is
// solved for as an optimistic fixpoint: the first pass takes recursive
// calls to return ⊥ (they contribute nothing to any join), each later
// pass takes them to return the previous pass's result, and a pass whose
// result is no wider than its assumption is a proof by induction on
// recursion depth (for the calls this very version serves; for its
// siblings it is the prediction resultType describes). At most two extra passes run; the second already
// assumes ⊤, which is today's boxed call and trivially stable.
func (e *Engine) inferWithSummaries(fn, work *ast.Function, sig types.Signature, g *cfg.Graph,
	params map[string]types.Type, tbl *disambig.Table, po pipelineOpts, out *compiled) *infer.Result {
	opts := e.inferOptsFor(po)
	s := &summaries{r: e.lib.repo, self: fn.Name, family: widen(sig), assume: types.Bottom}
	if po.generic || po.boxedCalls || !s.replaySafe(work, tbl) {
		return infer.Forward(g, params, opts)
	}
	opts.UserFnType = s.resultType
	vouched := len(s.deps)
	for extra := 0; ; extra++ {
		s.usedSelf = false
		res := infer.Forward(g, params, opts)
		ret := resultTypes(fn, res)
		if !s.usedSelf || s.assume.I == types.ITop || types.Leq(ret[0], s.assume) {
			out.ret = ret
			out.deps = append(out.deps, s.deps...)
			return res
		}
		if extra == 0 {
			s.assume = types.Join(s.assume, ret[0])
		} else {
			s.assume = types.Top
		}
		s.deps = s.deps[:vouched]
	}
}

// resultTypes reads a function's result types off an inference run: the
// join of everything assigned to each output variable, with the range
// dropped — a guard checks kind and shape, not the interval, so callers
// must not conclude anything from one. An output that stays boxed
// (infer.Result.Boxed) returns whatever kind each path produced, so it
// promises nothing. The list always has at least one element, so a
// non-nil list also says "replay-safe" for a function without outputs.
func resultTypes(fn *ast.Function, res *infer.Result) []types.Type {
	ret := make([]types.Type, max(len(fn.Outs), 1))
	for i := range ret {
		ret[i] = types.Top
		if i < len(fn.Outs) {
			if t, ok := res.Vars[fn.Outs[i]]; ok && !t.IsBottom() && !res.Boxed[fn.Outs[i]] {
				t.R = types.RangeTop
				ret[i] = t
			}
		}
	}
	return ret
}

// replaySafe reports whether running work has no effect beyond its
// results: no echoing statement, no global, no effectful builtin, and no
// callee other than itself whose every compiled version is not known to
// be replay-safe too. The callees vouched for become dependencies: a
// redefinition that makes one of them print must recompile this caller.
func (s *summaries) replaySafe(work *ast.Function, tbl *disambig.Table) bool {
	safe := true
	ast.WalkStmts(work.Body, func(n ast.Node) bool {
		var name string
		switch x := n.(type) {
		case *ast.Global:
			safe = false
		case *ast.ExprStmt:
			safe = safe && !x.Display
		case *ast.Assign:
			safe = safe && !x.Display
		case *ast.Ident:
			name = x.Name
		case *ast.Call:
			name = x.Name
		}
		switch tbl.Uses[n] {
		case disambig.Builtin:
			safe = safe && !(name != "" && builtins.Effectful(name))
		case disambig.UserFunc:
			safe = safe && (name == s.self || s.vouch(name))
		}
		return safe
	})
	return safe
}

// vouch checks that every compiled version of callee is replay-safe and
// records the dependency.
func (s *summaries) vouch(callee string) bool {
	st := s.r.State(callee)
	if st.Fn == nil || len(st.Entries) == 0 {
		return false
	}
	for _, e := range st.Entries {
		if e.Ret == nil {
			return false
		}
	}
	s.depend(callee, st.SrcHash)
	return true
}

func (s *summaries) depend(name string, srcHash uint64) {
	for _, d := range s.deps {
		if d.Name == name && d.SrcHash == srcHash {
			return
		}
	}
	s.deps = append(s.deps, repo.Dep{Name: name, SrcHash: srcHash})
}

// resultType implements infer.Opts.UserFnType: the first result of
// name(args). A recursive call within the family of the signature under
// compilation gets the current assumption — it predicts that siblings
// compiled for other ranges return the same kind, which the guard then
// checks; any other call gets the join over every published entry that
// could serve it, or ⊤ when none could or one of them has no summary.
func (s *summaries) resultType(name string, args []types.Type) types.Type {
	if name == s.self && s.family.Safe(widen(args)) {
		s.usedSelf = true
		return s.assume
	}
	st := s.r.State(name)
	t := types.Bottom
	for _, e := range st.Entries {
		if !e.Sig.Safe(args) {
			continue
		}
		if e.Ret == nil {
			return types.Top
		}
		t = types.Join(t, e.Ret[0])
	}
	if t.IsBottom() {
		return types.Top
	}
	if name != s.self {
		s.depend(name, st.SrcHash)
	}
	return t
}
