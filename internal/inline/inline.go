// Package inline implements MaJIC's function inliner (paper §2.6.1):
// calls to small user functions (fewer than 200 lines) are expanded in
// place, preserving MATLAB's call-by-value semantics by copying actual
// parameters — except read-only formal parameters that are not also
// outputs, which are not copied. Recursive calls inline at most 3 levels
// deep to avoid code explosion.
//
// An expansion allocates per kind of node, not per call site: every
// splice is a copy of its callee's template, taken from slabs the
// expansion owns (ast.Slabs.CloneStmts). A splice that finds a kind
// short of room grows it by as many copies as splices of the callee came
// before it, so a callee spliced k times takes about log2(k) arrays per
// kind. The names of a splice are cut from one builder, and a statement
// that expands is built on one stack and copied once into a window.
package inline

import (
	"slices"
	"strconv"
	"strings"

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
	res Resolver
	// info holds the callees met, analysed, by name.
	info map[string]*calleeInfo
	// callerVars are the variables of the function being expanded.
	callerVars map[string]bool
	// splices numbers the splices made: splice n's names are inl<n>_<v>.
	splices int

	// a holds every node the splices take and every list an expansion
	// copies out of the stack.
	a ast.Slabs
	// out is the stack statements are expanded onto: a statement's
	// prelude, then the statement (stmt).
	out []ast.Stmt
	// names is the builder the splices' names are cut from.
	names strings.Builder
	// rename and subst are the splice being renamed: per variable index
	// of its callee, the variable's name in the splice ("" where the name
	// is not a variable), and per parameter the argument substituted for
	// it (nil where the argument is copied).
	rename []string
	subst  []*ast.Ident
}

type calleeInfo struct {
	fn *ast.Function
	// tmpl is what a splice copies: a binding `<formal> = ...` per
	// parameter, the analysed copy of fn.Body (its nodes carry the
	// callee's verdicts) and a result `... = <output>` per output.
	tmpl []ast.Stmt
	// g numbers the body's names (cfg.Graph.VarID). vars is the rename
	// table: per variable index, the graph's names and then the
	// parameters and outputs the body never names.
	g    *cfg.Graph
	vars []calleeVar
	// stubs are the bindings, then the results, of tmpl.
	stubs []stub
	// size is the bytes of one splice's names, bar the splice numbers;
	// nvars counts them.
	size, nvars int
	// depth is the callee's inline nesting depth, and splices the splices
	// made of it.
	depth, splices int
	ok             bool // inlinable at all
}

// stub is a binding or a result of a callee's template, with the
// variable index of its parameter or output.
type stub struct {
	assign ast.Assign
	ident  ast.Ident
	lhs    [1]ast.Expr
	slot   int
}

// calleeVar is a name of the callee: one its body mentions, or a
// parameter or output it never names.
type calleeVar struct {
	name string
	// variable is whether the name is a variable; written whether the
	// body assigns it or it is an output. A splice copies a written
	// parameter rather than substitute its argument: substituted, an
	// output would be a caller variable that an earlier result of a
	// multi-assignment may overwrite before it is read.
	variable, written bool
	// free is whether the name is a builtin or user function the body
	// refers to. A caller variable of the same name would capture it
	// once spliced.
	free  bool
	param int // the parameter the name is, or -1
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
	out, _, _, _ := ExpandDeps(fn, res)
	return out
}

// ExpandDeps is Expand that also reports the functions whose bodies it
// spliced in (the definitions it resolved, so a caller can record exactly
// which source the expansion depends on), sorted by name. When it splices
// nothing, out's body is the one it analysed to find the candidates, and
// g and tbl are that body's graph and table; otherwise they are nil, and
// the expanded body needs its own.
func ExpandDeps(fn *ast.Function, res Resolver) (out *ast.Function, deps []*ast.Function, g *cfg.Graph, tbl *disambig.Table) {
	// The map is made when the first candidate is met: most bodies call
	// no user function.
	in := &inliner{res: res}
	out = ast.CloneFunction(fn)
	// Disambiguating fn marks its user calls, the candidates, and names
	// its variables, which no splice may capture.
	g = cfg.Build(out.Body)
	tbl = disambig.Analyze(g, out.Ins, disambig.ResolverFunc(func(name string) bool {
		return res.LookupFunction(name) != nil
	}))
	if tbl.HasAmbiguous {
		return out, nil, g, tbl
	}
	in.callerVars = tbl.Vars
	out.Body = in.stmts(out.Body)
	if in.splices == 0 {
		return out, nil, g, tbl
	}
	for _, ci := range in.info {
		if ci.splices > 0 {
			deps = append(deps, ci.fn)
		}
	}
	slices.SortFunc(deps, func(a, b *ast.Function) int { return strings.Compare(a.Name, b.Name) })
	return out, deps, nil, nil
}

// analyze classifies a callee for inlinability.
func (in *inliner) analyze(name string) *calleeInfo {
	if ci, ok := in.info[name]; ok {
		return ci
	}
	ci := &calleeInfo{}
	if in.info == nil {
		in.info = map[string]*calleeInfo{}
	}
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
	g := cfg.Build(body)
	res := in.res
	tbl := disambig.Analyze(g, fn.Ins, disambig.ResolverFunc(func(nm string) bool {
		return res.LookupFunction(nm) != nil
	}))
	if tbl.HasAmbiguous {
		return ci
	}
	ci.fn, ci.g, ci.ok = fn, g, true

	// The rename table holds the graph's names, then the parameters and
	// outputs the graph lacks. The template is a binding per parameter,
	// the body and a result per output; a binding's right side and a
	// result's left side are the call site's, set per splice.
	m, k := len(fn.Ins), len(fn.Outs)
	ci.vars = make([]calleeVar, len(g.Vars), len(g.Vars)+m+k)
	for i, v := range g.Vars {
		ci.vars[i] = calleeVar{name: v, variable: tbl.Vars[v], param: -1}
	}
	ci.stubs = make([]stub, m+k)
	ci.tmpl = make([]ast.Stmt, 0, m+len(body)+k)
	for p, formal := range fn.Ins {
		i, ok := g.VarID(formal)
		if !ok {
			i = len(ci.vars)
			ci.vars = append(ci.vars, calleeVar{name: formal, variable: true})
		}
		ci.vars[i].param = p
		st := &ci.stubs[p]
		st.slot, st.ident = i, ast.Ident{Name: formal}
		st.lhs[0] = &st.ident
		st.assign.LHS = st.lhs[:]
		ci.tmpl = append(ci.tmpl, &st.assign)
	}
	ci.tmpl = append(ci.tmpl, body...)
	for j, output := range fn.Outs {
		// An output the body never names is still the callee's: renamed,
		// it is undefined in the caller rather than a caller variable.
		st := &ci.stubs[m+j]
		if i, ok := g.VarID(output); ok {
			st.slot = i
		} else if p := slices.Index(fn.Ins, output); p >= 0 {
			st.slot = ci.stubs[p].slot
		} else {
			st.slot = len(ci.vars)
			ci.vars = append(ci.vars, calleeVar{name: output, variable: true, param: -1})
		}
		ci.vars[st.slot].written = true
		st.ident = ast.Ident{Name: output, Kind: ast.Variable}
		st.assign.LHS, st.assign.RHS = st.lhs[:], &st.ident
		ci.tmpl = append(ci.tmpl, &st.assign)
	}
	for _, v := range ci.vars {
		if v.variable {
			ci.size += len("inl_") + len(v.name)
			ci.nvars++
		}
	}
	ast.WalkStmts(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Assign:
			for _, l := range x.LHS {
				switch lhs := l.(type) {
				case *ast.Ident:
					ci.mark(lhs.Name, false)
				case *ast.Call:
					ci.mark(lhs.Name, false)
				}
			}
		case *ast.For:
			ci.mark(x.Var, false)
		case *ast.Ident:
			if x.Kind == ast.Builtin || x.Kind == ast.UserFunc {
				ci.mark(x.Name, true)
			}
		case *ast.Call:
			if x.Kind == ast.Builtin || x.Kind == ast.UserFunc {
				ci.mark(x.Name, true)
			}
		}
		return true
	})
	return ci
}

// mark records that the body assigns name, or, free, that it refers to
// name as a builtin or user function.
func (ci *calleeInfo) mark(name string, free bool) {
	if i, ok := ci.g.VarID(name); ok {
		if free {
			ci.vars[i].free = true
		} else {
			ci.vars[i].written = true
		}
	}
}

// stmts expands calls in a statement list. It returns list itself when
// no statement in it expands into several (a statement may still be
// rewritten in place), and otherwise a window of the expanded list.
func (in *inliner) stmts(list []ast.Stmt) []ast.Stmt {
	mark := len(in.out)
	for i, s := range list {
		if in.stmt(s) {
			// What s expands into is on the stack: the statements before
			// it go under it, and the rest follow.
			in.out = slices.Insert(in.out, mark, list[:i]...)
			in.push(list[i+1:])
			w := in.a.Stmts.Copy(in.out[mark:])
			in.out = in.out[:mark]
			return w
		}
	}
	return list
}

// push expands the statements of list onto the stack.
func (in *inliner) push(list []ast.Stmt) {
	for _, s := range list {
		if !in.stmt(s) {
			in.out = append(in.out, s)
		}
	}
}

// stmt expands one statement in place. When s stays the one statement
// it reports false and leaves the stack as it was; otherwise it has
// pushed what replaces s: the prelude of its spliced calls followed by
// s, or by what replaces s.
func (in *inliner) stmt(s ast.Stmt) bool {
	mark := len(in.out)
	switch x := s.(type) {
	case *ast.ExprStmt:
		x.X = in.expr(x.X, true)
	case *ast.Assign:
		// Whole-call multi-assignment [a,b] = f(...) inlines specially:
		// each target takes its result.
		if call, ok := x.RHS.(*ast.Call); ok && in.isInlinableCall(call) && len(x.LHS) >= 1 {
			if results, ok := in.expandCall(call, len(x.LHS)); ok {
				for i, r := range results {
					a := r.(*ast.Assign)
					a.P, a.LHS[0] = x.P, x.LHS[i]
					in.out = append(in.out, a)
				}
				return true
			}
		}
		for _, l := range x.LHS {
			if call, ok := l.(*ast.Call); ok {
				// subscripts of an indexed assignment target
				for i, a := range call.Args {
					call.Args[i] = in.expr(a, true)
				}
			}
		}
		x.RHS = in.expr(x.RHS, true)
	case *ast.If:
		for i, c := range x.Conds {
			// Hoisting from an elseif condition would evaluate it
			// unconditionally: only the first condition inlines.
			x.Conds[i] = in.expr(c, i == 0)
			x.Blocks[i] = in.stmts(x.Blocks[i])
		}
		if x.Else != nil {
			x.Else = in.stmts(x.Else)
		}
	case *ast.While:
		// Never hoist out of a while condition (re-evaluated per
		// iteration); only the body is expanded.
		x.Body = in.stmts(x.Body)
	case *ast.For:
		x.Iter = in.expr(x.Iter, true)
		x.Body = in.stmts(x.Body)
	}
	if len(in.out) == mark {
		return false
	}
	in.out = append(in.out, s)
	return true
}

// expr rewrites an expression, pushing the prelude of the calls it
// inlines. hoist is false inside contexts where unconditional evaluation
// would change semantics (short-circuit right operands).
func (in *inliner) expr(e ast.Expr, hoist bool) ast.Expr {
	switch x := e.(type) {
	case *ast.Binary:
		x.L = in.expr(x.L, hoist)
		if x.Op == ast.OpAndAnd || x.Op == ast.OpOrOr {
			hoist = false
		}
		x.R = in.expr(x.R, hoist)
	case *ast.Unary:
		x.X = in.expr(x.X, hoist)
	case *ast.Transpose:
		x.X = in.expr(x.X, hoist)
	case *ast.Range:
		x.Lo = in.expr(x.Lo, hoist)
		if x.Step != nil {
			x.Step = in.expr(x.Step, hoist)
		}
		x.Hi = in.expr(x.Hi, hoist)
	case *ast.Call:
		for i, a := range x.Args {
			x.Args[i] = in.expr(a, hoist)
		}
		if hoist && in.isInlinableCall(x) {
			if results, ok := in.expandCall(x, 1); ok {
				return results[0].(*ast.Assign).RHS
			}
		}
	case *ast.Matrix:
		for _, row := range x.Rows {
			for i, el := range row {
				row[i] = in.expr(el, hoist)
			}
		}
	}
	return e
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
	for _, v := range ci.vars {
		if v.free && in.callerVars[v.name] {
			return false
		}
	}
	return ci.depth < MaxRecursion
}

// expandCall splices the callee body: it pushes the prelude, the
// parameter bindings and the renamed body, and returns one result
// `... = <output>` per output asked for, whose left side the caller
// sets.
func (in *inliner) expandCall(call *ast.Call, nout int) ([]ast.Stmt, bool) {
	ci := in.analyze(call.Name)
	if !ci.ok || nout > len(ci.fn.Outs) {
		return nil, false
	}
	// A splice short of room makes room for itself and as many more
	// splices of the callee as were made before: a callee spliced k times
	// takes about log2(k) arrays per kind, under twice what its splices
	// use.
	room := max(1, ci.splices)
	in.splices++
	ci.splices++
	t := in.a.CloneStmts(ci.tmpl, room)
	in.name(ci, room)
	m, k := len(ci.fn.Ins), len(ci.fn.Outs)
	body, results := t[m:len(t)-k], t[len(t)-k:][:nout]

	// Bind parameters. Read-only identifier arguments substitute
	// directly (the paper's copy elision for read-only formals);
	// everything else binds through a renamed temporary.
	in.subst = slices.Grow(in.subst[:0], m)[:m]
	for p, arg := range call.Args {
		slot := ci.stubs[p].slot
		argIdent, argIsIdent := arg.(*ast.Ident)
		if !ci.vars[slot].written && argIsIdent && argIdent.Kind == ast.Variable {
			in.subst[p] = argIdent
			continue
		}
		in.subst[p] = nil
		bind := t[p].(*ast.Assign)
		lhs := bind.LHS[0].(*ast.Ident)
		bind.P, bind.RHS = call.P, arg
		lhs.P, lhs.Name = call.P, in.rename[slot]
		in.out = append(in.out, bind)
	}
	for _, s := range body {
		in.renameStmt(ci, s)
	}
	for j, r := range results {
		// An output is a variable, which a call it is passed to may
		// substitute.
		out := r.(*ast.Assign).RHS.(*ast.Ident)
		out.P = call.P
		in.renameIdent(ci, out, ci.stubs[m+j].slot)
	}

	// Recursively expand calls inside the inlined body.
	ci.depth++
	in.push(body)
	ci.depth--
	return results, true
}

// name cuts the names of the splice in.splices of ci from the builder,
// inl<n>_<v> for each variable v: in.rename holds them by variable
// index. A builder without room for them is replaced by one with room
// for as many more splices of ci as were made before, so the names a
// splice took are never moved.
func (in *inliner) name(ci *calleeInfo, room int) {
	var num [20]byte
	pfx := strconv.AppendInt(num[:0], int64(in.splices), 10)
	size := ci.size + ci.nvars*len(pfx)
	if in.names.Cap()-in.names.Len() < size {
		in.names = strings.Builder{}
		in.names.Grow(room * size)
	}
	in.rename = slices.Grow(in.rename[:0], len(ci.vars))[:len(ci.vars)]
	for i, v := range ci.vars {
		in.rename[i] = ""
		if v.variable {
			lo := in.names.Len()
			in.names.WriteString("inl")
			in.names.Write(pfx)
			in.names.WriteByte('_')
			in.names.WriteString(v.name)
			in.rename[i] = in.names.String()[lo:]
		}
	}
}

// renameIdent rewrites an identifier of the callee whose variable index
// is slot: a substituted parameter becomes a copy of its argument, and a
// variable takes its name in the splice.
func (in *inliner) renameIdent(ci *calleeInfo, x *ast.Ident, slot int) {
	if p := ci.vars[slot].param; p >= 0 && in.subst[p] != nil {
		*x = *in.subst[p]
	} else if nn := in.rename[slot]; nn != "" {
		x.Name = nn
	}
}

// renameExpr rewrites identifier and call-base names per the splice's
// rename table, substituting read-only parameters.
func (in *inliner) renameExpr(ci *calleeInfo, e ast.Expr) {
	switch x := e.(type) {
	case *ast.Ident:
		if slot, ok := ci.g.VarID(x.Name); ok {
			in.renameIdent(ci, x, slot)
		}
	case *ast.Binary:
		in.renameExpr(ci, x.L)
		in.renameExpr(ci, x.R)
	case *ast.Unary:
		in.renameExpr(ci, x.X)
	case *ast.Transpose:
		in.renameExpr(ci, x.X)
	case *ast.Range:
		in.renameExpr(ci, x.Lo)
		in.renameExpr(ci, x.Step)
		in.renameExpr(ci, x.Hi)
	case *ast.Call:
		if slot, ok := ci.g.VarID(x.Name); ok {
			if p := ci.vars[slot].param; p >= 0 && in.subst[p] != nil {
				// Indexing a substituted read-only parameter: re-point the
				// base name at the argument.
				x.Name = in.subst[p].Name
			} else if nn := in.rename[slot]; nn != "" {
				x.Name = nn
			}
		}
		for _, a := range x.Args {
			in.renameExpr(ci, a)
		}
	case *ast.Matrix:
		for _, row := range x.Rows {
			for _, el := range row {
				in.renameExpr(ci, el)
			}
		}
	}
}

// renameStmt rewrites the names of a spliced statement.
func (in *inliner) renameStmt(ci *calleeInfo, s ast.Stmt) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		in.renameExpr(ci, x.X)
	case *ast.Assign:
		for _, l := range x.LHS {
			in.renameExpr(ci, l)
		}
		in.renameExpr(ci, x.RHS)
	case *ast.If:
		for i, c := range x.Conds {
			in.renameExpr(ci, c)
			for _, s2 := range x.Blocks[i] {
				in.renameStmt(ci, s2)
			}
		}
		for _, s2 := range x.Else {
			in.renameStmt(ci, s2)
		}
	case *ast.While:
		in.renameExpr(ci, x.Cond)
		for _, s2 := range x.Body {
			in.renameStmt(ci, s2)
		}
	case *ast.For:
		if slot, ok := ci.g.VarID(x.Var); ok && in.rename[slot] != "" {
			x.Var = in.rename[slot]
		}
		in.renameExpr(ci, x.Iter)
		for _, s2 := range x.Body {
			in.renameStmt(ci, s2)
		}
	}
}
