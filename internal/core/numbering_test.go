package core_test

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/disambig"
	"repro/internal/infer"
	"repro/internal/inline"
	"repro/internal/parser"
	"repro/internal/types"
)

// TestExprNumbering pins the one numbering the analyses share their
// per-expression records by. For every function of the Table 1 sources
// and benchmark/programs/*.m, after inlining: cfg.Build gives each
// expression node a distinct number in [1, Exprs]; a clone carries every
// node's number and verdict; and inference answers ⊤ for an expression it
// never reached, a bare ':' or a node no graph numbered.
func TestExprNumbering(t *testing.T) {
	for _, p := range goldenPrograms(t) {
		file, err := parser.Parse(p.src)
		if err != nil {
			t.Fatal(err)
		}
		res := fileResolver{}
		for _, fn := range file.Funcs {
			res[fn.Name] = fn
		}
		for _, fn := range file.Funcs {
			work := inline.Expand(fn, res)
			g := cfg.Build(work.Body)
			disambig.Analyze(g, work.Ins, disambig.ResolverFunc(func(n string) bool { return res[n] != nil }))
			params := map[string]types.Type{}
			for _, in := range work.Ins {
				params[in] = types.Top
			}
			if fn.Name == p.fn {
				for i, typ := range types.SignatureOf(p.args) {
					params[work.Ins[i]] = typ
				}
			}
			r := infer.Forward(g, params, infer.Opts{})

			seen := make([]bool, g.Exprs+1)
			var nodes []ast.Expr
			ast.WalkStmts(work.Body, func(n ast.Node) bool {
				e, ok := n.(ast.Expr)
				if !ok {
					return true
				}
				if id := e.ID(); id < 1 || id > g.Exprs || seen[id] {
					t.Errorf("%s/%s: %s numbered %d (of %d, seen %v)", p.name, fn.Name, ast.ExprString(e), id, g.Exprs, id >= 1 && id <= g.Exprs && seen[id])
				} else {
					seen[id] = true
				}
				if _, colon := e.(*ast.Colon); colon && r.TypeOf(e) != types.Top {
					t.Errorf("%s/%s: ':' typed %v, want ⊤", p.name, fn.Name, r.TypeOf(e))
				}
				nodes = append(nodes, e)
				return true
			})
			if len(nodes) != g.Exprs {
				t.Errorf("%s/%s: %d expression nodes, Exprs %d", p.name, fn.Name, len(nodes), g.Exprs)
			}

			i := 0
			ast.WalkStmts(ast.CloneStmts(work.Body), func(n ast.Node) bool {
				c, ok := n.(ast.Expr)
				if !ok {
					return true
				}
				if e := nodes[i]; c == e || c.ID() != e.ID() || kindOf(c) != kindOf(e) {
					t.Errorf("%s/%s: clone of %s is #%d %v, want a copy of #%d %v", p.name, fn.Name, ast.ExprString(e), c.ID(), kindOf(c), e.ID(), kindOf(e))
				}
				i++
				return true
			})

			if got := r.TypeOf(&ast.Ident{Name: "x"}); got != types.Top {
				t.Errorf("%s/%s: an unnumbered node typed %v, want ⊤", p.name, fn.Name, got)
			}
		}
	}

	// Inference never reaches the statement after the return.
	file, err := parser.Parse("function y = f(x)\n  y = x + 1;\n  return\n  y = x * 2;\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	body := file.Funcs[0].Body
	g := cfg.Build(body)
	disambig.Analyze(g, []string{"x"}, nil)
	r := infer.Forward(g, map[string]types.Type{"x": types.ScalarOf(types.IInt, types.Const(1))}, infer.Opts{})
	reached, unreached := body[0].(*ast.Assign).RHS, body[2].(*ast.Assign).RHS
	if got := r.TypeOf(reached); got == types.Top {
		t.Errorf("x + 1 typed ⊤")
	}
	if got := r.TypeOf(unreached); got != types.Top {
		t.Errorf("unreached x * 2 typed %v, want ⊤", got)
	}
}

// kindOf is the verdict recorded on a name occurrence.
func kindOf(e ast.Expr) ast.Kind {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Kind
	case *ast.Call:
		return x.Kind
	}
	return ast.Unresolved
}
