// Package inline implements MaJIC's function inliner (paper §2.6.1):
// calls to small user functions (fewer than 200 lines) are expanded in
// place, preserving MATLAB's call-by-value semantics by copying actual
// parameters — except read-only formal parameters, which are not
// copied. Recursive calls inline at most 3 levels deep to avoid code
// explosion.
package inline

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/disambig"
)

// MaxLines is the callee size cap.
const MaxLines = 200

// MaxRecursion is the recursive inlining depth cap.
const MaxRecursion = 3

// Resolver provides callee lookup.
type Resolver interface {
	LookupFunction(name string) *ast.Function
}

type inliner struct {
	res      Resolver
	depth    map[string]int // per-callee inline nesting depth
	tmpCount int
	// callee analysis cache
	info map[string]*calleeInfo
	// spliced collects the callees whose bodies were expanded at least
	// once, by name.
	spliced map[string]*ast.Function
	// callerVars are the variables of the function being expanded.
	callerVars map[string]bool
}

type calleeInfo struct {
	fn *ast.Function
	// body is the analysed copy of fn.Body: its nodes carry the callee's
	// verdicts, and every splice is a clone of it.
	body   []ast.Stmt
	vars   map[string]bool // callee-local variable names
	writes map[string]bool // names (re)assigned in the body
	// free names the builtins and user functions the body refers to. A
	// caller variable of the same name would capture them once spliced.
	free map[string]bool
	ok   bool // inlinable at all
}

// Expand returns a copy of fn with eligible calls inlined. The input is
// never modified. Each splice is a clone of the callee body the inliner
// analysed, so a spliced call carries its callee's verdict (ast.Call.Kind)
// and is expanded by it. The returned function needs a fresh
// disambiguation pass (the paper: inlining "necessitates the re-building
// of the symbol table"), which classifies the spliced names in fn's scope:
// a callee is therefore not spliced where a variable of fn would capture
// one of its builtin or user calls.
func Expand(fn *ast.Function, res Resolver) *ast.Function {
	out, _ := ExpandDeps(fn, res)
	return out
}

// ExpandDeps is Expand that also reports the functions whose bodies it
// spliced in (the definitions it resolved, so a caller can record exactly
// which source the expansion depends on), sorted by name.
func ExpandDeps(fn *ast.Function, res Resolver) (*ast.Function, []*ast.Function) {
	in := &inliner{res: res, depth: map[string]int{}, info: map[string]*calleeInfo{}, spliced: map[string]*ast.Function{}}
	out := ast.CloneFunction(fn)
	// Disambiguating fn marks its user calls, the candidates, and names
	// its variables, which no splice may capture.
	g := cfg.Build(out.Body)
	tbl := disambig.Analyze(g, out.Ins, disambig.ResolverFunc(func(name string) bool {
		return res.LookupFunction(name) != nil
	}))
	if tbl.HasAmbiguous {
		return out, nil
	}
	in.callerVars = tbl.Vars
	out.Body = in.stmts(out.Body)
	names := make([]string, 0, len(in.spliced))
	for name := range in.spliced {
		names = append(names, name)
	}
	sort.Strings(names)
	deps := make([]*ast.Function, len(names))
	for i, name := range names {
		deps[i] = in.spliced[name]
	}
	return out, deps
}

// analyze classifies a callee for inlinability.
func (in *inliner) analyze(name string) *calleeInfo {
	if ci, ok := in.info[name]; ok {
		return ci
	}
	ci := &calleeInfo{}
	in.info[name] = ci
	fn := in.res.LookupFunction(name)
	if fn == nil || fn.LineCount >= MaxLines || len(fn.Outs) == 0 {
		return ci
	}
	// Reject bodies whose control flow cannot splice cleanly.
	clean := true
	ast.WalkStmts(fn.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.Return, *ast.Global, *ast.Clear:
			clean = false
		}
		return clean
	})
	if !clean {
		return ci
	}
	// Disambiguation stamps its verdicts on the nodes it visits, and the
	// callee's body is shared with every engine that resolves the name,
	// so it runs over a private copy, which the splices then clone.
	body := ast.CloneStmts(fn.Body)
	tbl := disambig.Analyze(cfg.Build(body), fn.Ins, disambig.ResolverFunc(func(nm string) bool {
		return in.res.LookupFunction(nm) != nil
	}))
	if tbl.HasAmbiguous {
		return ci
	}
	ci.fn, ci.body = fn, body
	ci.vars = tbl.Vars
	ci.writes, ci.free = map[string]bool{}, map[string]bool{}
	ast.WalkStmts(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Assign:
			for _, l := range x.LHS {
				switch lhs := l.(type) {
				case *ast.Ident:
					ci.writes[lhs.Name] = true
				case *ast.Call:
					ci.writes[lhs.Name] = true
				}
			}
		case *ast.For:
			ci.writes[x.Var] = true
		case *ast.Ident:
			if x.Kind == ast.Builtin || x.Kind == ast.UserFunc {
				ci.free[x.Name] = true
			}
		case *ast.Call:
			if x.Kind == ast.Builtin || x.Kind == ast.UserFunc {
				ci.free[x.Name] = true
			}
		}
		return true
	})
	ci.ok = true
	return ci
}

// stmts expands calls in a statement list.
func (in *inliner) stmts(list []ast.Stmt) []ast.Stmt {
	var out []ast.Stmt
	for _, s := range list {
		out = append(out, in.stmt(s)...)
	}
	return out
}

// stmt expands one statement, possibly into several.
func (in *inliner) stmt(s ast.Stmt) []ast.Stmt {
	switch x := s.(type) {
	case *ast.ExprStmt:
		pre, e := in.expr(x.X, true)
		x.X = e
		return append(pre, x)
	case *ast.Assign:
		// Whole-call multi-assignment [a,b] = f(...) inlines specially.
		if call, ok := x.RHS.(*ast.Call); ok && in.isInlinableCall(call) && len(x.LHS) >= 1 {
			if pre, outs, ok := in.expandCall(call, len(x.LHS)); ok {
				stmts := pre
				for i, l := range x.LHS {
					stmts = append(stmts, &ast.Assign{P: x.P, LHS: []ast.Expr{l}, RHS: outs[i]})
				}
				return stmts
			}
		}
		var pre []ast.Stmt
		for _, l := range x.LHS {
			if call, ok := l.(*ast.Call); ok {
				// subscripts of an indexed assignment target
				for i, a := range call.Args {
					p, e := in.expr(a, true)
					pre = append(pre, p...)
					call.Args[i] = e
				}
			}
		}
		p, e := in.expr(x.RHS, true)
		pre = append(pre, p...)
		x.RHS = e
		return append(pre, x)
	case *ast.If:
		var result []ast.Stmt
		var pre []ast.Stmt
		for i, c := range x.Conds {
			p, e := in.expr(c, true)
			if i == 0 {
				pre = append(pre, p...)
			} else if len(p) > 0 {
				// Hoisting from elseif conditions would evaluate them
				// unconditionally; skip inlining there.
				e = c
			}
			x.Conds[i] = e
			x.Blocks[i] = in.stmts(x.Blocks[i])
		}
		if x.Else != nil {
			x.Else = in.stmts(x.Else)
		}
		result = append(pre, x)
		return result
	case *ast.While:
		// Never hoist out of a while condition (re-evaluated per
		// iteration); only the body is expanded.
		x.Body = in.stmts(x.Body)
		return []ast.Stmt{x}
	case *ast.For:
		pre, e := in.expr(x.Iter, true)
		x.Iter = e
		x.Body = in.stmts(x.Body)
		return append(pre, x)
	case *ast.Switch:
		pre, e := in.expr(x.Subject, true)
		x.Subject = e
		for i := range x.CaseBlks {
			x.CaseBlks[i] = in.stmts(x.CaseBlks[i])
		}
		if x.Otherwise != nil {
			x.Otherwise = in.stmts(x.Otherwise)
		}
		return append(pre, x)
	}
	return []ast.Stmt{s}
}

// expr rewrites an expression, hoisting inlined calls into pre. hoist
// is false inside contexts where unconditional evaluation would change
// semantics (short-circuit right operands).
func (in *inliner) expr(e ast.Expr, hoist bool) ([]ast.Stmt, ast.Expr) {
	switch x := e.(type) {
	case *ast.Binary:
		if x.Op == ast.OpAndAnd || x.Op == ast.OpOrOr {
			pre, l := in.expr(x.L, hoist)
			_, r := in.expr(x.R, false)
			x.L, x.R = l, r
			return pre, x
		}
		p1, l := in.expr(x.L, hoist)
		p2, r := in.expr(x.R, hoist)
		x.L, x.R = l, r
		return append(p1, p2...), x
	case *ast.Unary:
		p, v := in.expr(x.X, hoist)
		x.X = v
		return p, x
	case *ast.Transpose:
		p, v := in.expr(x.X, hoist)
		x.X = v
		return p, x
	case *ast.Range:
		p1, lo := in.expr(x.Lo, hoist)
		x.Lo = lo
		var p2 []ast.Stmt
		if x.Step != nil {
			var st ast.Expr
			p2, st = in.expr(x.Step, hoist)
			x.Step = st
		}
		p3, hi := in.expr(x.Hi, hoist)
		x.Hi = hi
		return append(append(p1, p2...), p3...), x
	case *ast.Call:
		var pre []ast.Stmt
		for i, a := range x.Args {
			p, v := in.expr(a, hoist)
			pre = append(pre, p...)
			x.Args[i] = v
		}
		if hoist && in.isInlinableCall(x) {
			if p, outs, ok := in.expandCall(x, 1); ok {
				pre = append(pre, p...)
				return pre, outs[0]
			}
		}
		return pre, x
	case *ast.Matrix:
		var pre []ast.Stmt
		for _, row := range x.Rows {
			for i, el := range row {
				p, v := in.expr(el, hoist)
				pre = append(pre, p...)
				row[i] = v
			}
		}
		return pre, x
	}
	return nil, e
}

// isInlinableCall checks the call site: a user call with matching arity,
// whose callee refers to no builtin or user function that a variable of
// the function being expanded would capture once spliced. A spliced call
// carries the verdict of its callee's analysis.
func (in *inliner) isInlinableCall(call *ast.Call) bool {
	if call.Kind != ast.UserFunc {
		return false
	}
	ci := in.analyze(call.Name)
	if !ci.ok || len(call.Args) != len(ci.fn.Ins) {
		return false
	}
	for name := range ci.free {
		if in.callerVars[name] {
			return false
		}
	}
	return in.depth[call.Name] < MaxRecursion
}

// expandCall splices the callee body, returning the prelude statements
// and the expressions holding the outputs.
func (in *inliner) expandCall(call *ast.Call, nout int) ([]ast.Stmt, []ast.Expr, bool) {
	ci := in.analyze(call.Name)
	if !ci.ok || nout > len(ci.fn.Outs) {
		return nil, nil, false
	}
	in.depth[call.Name]++
	defer func() { in.depth[call.Name]-- }()
	in.spliced[call.Name] = ci.fn

	in.tmpCount++
	pfx := fmt.Sprintf("inl%d_", in.tmpCount)

	rename := map[string]string{}
	for v := range ci.vars {
		rename[v] = pfx + v
	}

	var pre []ast.Stmt
	// Bind parameters. Read-only identifier arguments substitute
	// directly (the paper's copy elision for read-only formals);
	// everything else binds through a renamed temporary.
	subst := map[string]ast.Expr{}
	for i, formal := range ci.fn.Ins {
		arg := call.Args[i]
		argIdent, argIsIdent := arg.(*ast.Ident)
		if !ci.writes[formal] && argIsIdent && argIdent.Kind == ast.Variable {
			subst[formal] = argIdent
			delete(rename, formal)
			continue
		}
		pre = append(pre, &ast.Assign{
			P:   call.P,
			LHS: []ast.Expr{&ast.Ident{P: call.P, Name: rename[formal]}},
			RHS: arg,
		})
	}

	// Splice the renamed body.
	body := ast.CloneStmts(ci.body)
	renameStmts(body, rename, subst)
	// Recursively expand calls inside the inlined body.
	body = in.stmts(body)
	pre = append(pre, body...)

	outs := make([]ast.Expr, nout)
	for i := 0; i < nout; i++ {
		name := ci.fn.Outs[i]
		if nn, ok := rename[name]; ok {
			name = nn
		}
		// An output is a variable, which a call it is passed to may substitute.
		outs[i] = &ast.Ident{P: call.P, Name: name, Kind: ast.Variable}
	}
	return pre, outs, true
}

// renameStmts rewrites identifier and call-base names per the rename
// map, substituting read-only parameters.
func renameStmts(body []ast.Stmt, rename map[string]string, subst map[string]ast.Expr) {
	var rewriteExpr func(e ast.Expr) ast.Expr
	rewriteExpr = func(e ast.Expr) ast.Expr {
		switch x := e.(type) {
		case *ast.Ident:
			if repl, ok := subst[x.Name]; ok {
				return ast.CloneExpr(repl)
			}
			if nn, ok := rename[x.Name]; ok {
				x.Name = nn
			}
			return x
		case *ast.Binary:
			x.L = rewriteExpr(x.L)
			x.R = rewriteExpr(x.R)
			return x
		case *ast.Unary:
			x.X = rewriteExpr(x.X)
			return x
		case *ast.Transpose:
			x.X = rewriteExpr(x.X)
			return x
		case *ast.Range:
			x.Lo = rewriteExpr(x.Lo)
			if x.Step != nil {
				x.Step = rewriteExpr(x.Step)
			}
			x.Hi = rewriteExpr(x.Hi)
			return x
		case *ast.Call:
			if repl, ok := subst[x.Name]; ok {
				// Indexing a substituted read-only parameter: the
				// substitute is an Ident, so re-point the base name.
				if id, isIdent := repl.(*ast.Ident); isIdent {
					x.Name = id.Name
				}
			} else if nn, ok := rename[x.Name]; ok {
				x.Name = nn
			}
			for i, a := range x.Args {
				x.Args[i] = rewriteExpr(a)
			}
			return x
		case *ast.Matrix:
			for _, row := range x.Rows {
				for i, el := range row {
					row[i] = rewriteExpr(el)
				}
			}
			return x
		}
		return e
	}
	var rewriteStmt func(s ast.Stmt)
	rewriteStmt = func(s ast.Stmt) {
		switch x := s.(type) {
		case *ast.ExprStmt:
			x.X = rewriteExpr(x.X)
		case *ast.Assign:
			for i, l := range x.LHS {
				x.LHS[i] = rewriteExpr(l)
			}
			x.RHS = rewriteExpr(x.RHS)
		case *ast.If:
			for i, c := range x.Conds {
				x.Conds[i] = rewriteExpr(c)
				for _, s2 := range x.Blocks[i] {
					rewriteStmt(s2)
				}
			}
			for _, s2 := range x.Else {
				rewriteStmt(s2)
			}
		case *ast.While:
			x.Cond = rewriteExpr(x.Cond)
			for _, s2 := range x.Body {
				rewriteStmt(s2)
			}
		case *ast.For:
			if nn, ok := rename[x.Var]; ok {
				x.Var = nn
			}
			x.Iter = rewriteExpr(x.Iter)
			for _, s2 := range x.Body {
				rewriteStmt(s2)
			}
		case *ast.Switch:
			x.Subject = rewriteExpr(x.Subject)
			for i, c := range x.CaseVals {
				x.CaseVals[i] = rewriteExpr(c)
				for _, s2 := range x.CaseBlks[i] {
					rewriteStmt(s2)
				}
			}
			for _, s2 := range x.Otherwise {
				rewriteStmt(s2)
			}
		}
	}
	for _, s := range body {
		rewriteStmt(s)
	}
}
