package disambig

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/parser"
)

func analyze(t *testing.T, src string, params []string, userFns ...string) (*Table, *ast.Function) {
	t.Helper()
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var body []ast.Stmt
	var fn *ast.Function
	if len(file.Funcs) > 0 {
		fn = file.Funcs[0]
		body = fn.Body
		if params == nil {
			params = fn.Ins
		}
	} else {
		body = file.Stmts
	}
	known := map[string]bool{}
	for _, f := range userFns {
		known[f] = true
	}
	for _, f := range file.Funcs {
		known[f.Name] = true
	}
	g := cfg.Build(body)
	return Analyze(g, params, ResolverFunc(func(n string) bool { return known[n] })), fn
}

// meaningOf finds the verdict on the first classified use of name.
func meaningOf(t *testing.T, body []ast.Stmt, name string) (ast.Kind, bool) {
	t.Helper()
	m := ast.Unresolved
	ast.WalkStmts(body, func(n ast.Node) bool {
		if m == ast.Unresolved {
			switch x := n.(type) {
			case *ast.Ident:
				if x.Name == name {
					m = x.Kind
				}
			case *ast.Call:
				if x.Name == name {
					m = x.Kind
				}
			}
		}
		return m == ast.Unresolved
	})
	return m, m != ast.Unresolved
}

func TestBasicClassification(t *testing.T) {
	src := `
function y = f(x)
  a = x + 1;
  y = a * sin(a) + g(a);
end
function y = g(a)
  y = a;
end`
	tbl, fn := analyze(t, src, nil)
	if tbl.HasAmbiguous {
		t.Fatal("no ambiguity expected")
	}
	if m, ok := meaningOf(t, fn.Body, "a"); !ok || m != ast.Variable {
		t.Errorf("a classified %v", m)
	}
	if m, ok := meaningOf(t, fn.Body, "sin"); !ok || m != ast.Builtin {
		t.Errorf("sin classified %v", m)
	}
	if m, ok := meaningOf(t, fn.Body, "g"); !ok || m != ast.UserFunc {
		t.Errorf("g classified %v", m)
	}
	if m, ok := meaningOf(t, fn.Body, "x"); !ok || m != ast.Variable {
		t.Errorf("param x classified %v", m)
	}
}

// Figure 2 (left): z = i where i is assigned later in the loop — i is
// √-1 on the first iteration and a variable afterwards: ambiguous.
func TestFigure2LeftAmbiguousI(t *testing.T) {
	src := `
function z = f(n)
  k = 0;
  while k < n
    z = i;
    i = z + 1;
    k = k + 1;
  end
end`
	tbl, fn := analyze(t, src, nil)
	if !tbl.HasAmbiguous {
		t.Fatal("the Figure 2 i-loop must be flagged ambiguous")
	}
	if m, ok := meaningOf(t, fn.Body, "i"); !ok || m != ast.Ambiguous {
		t.Errorf("i classified %v, want ambiguous", m)
	}
}

// Figure 2 (right): y is defined on a previous iteration before every
// use — control flow proves it a variable on all reaching paths... but
// a pure reaching-definitions view sees the first-iteration path where
// y is undefined, so the use is variable-on-some-paths: ambiguous for
// a conservative analysis. The paper notes control flow makes it "a
// variable"; like MaJIC we defer such functions to the interpreter.
func TestFigure2RightConditionalDef(t *testing.T) {
	src := `
function x = f(N)
  x = 0;
  for p = 1:N
    if p >= 2
      x = y;
    end
    y = p;
  end
end`
	_, fn := analyze(t, src, nil)
	m, ok := meaningOf(t, fn.Body, "y")
	if !ok {
		t.Fatal("y not classified")
	}
	if m != ast.Ambiguous && m != ast.Variable {
		t.Errorf("y classified %v", m)
	}
}

func TestMustBeVariableAfterAllPaths(t *testing.T) {
	src := `
function r = f(c)
  if c > 0
    v = 1;
  else
    v = 2;
  end
  r = v;
end`
	tbl, fn := analyze(t, src, nil)
	if tbl.HasAmbiguous {
		t.Fatal("v assigned on all paths must not be ambiguous")
	}
	if m, _ := meaningOf(t, fn.Body, "v"); m != ast.Variable {
		t.Errorf("v classified %v", m)
	}
}

func TestSomePathsOnlyIsAmbiguous(t *testing.T) {
	src := `
function r = f(c)
  if c > 0
    v = 1;
  end
  r = v;
end`
	tbl, _ := analyze(t, src, nil)
	if !tbl.HasAmbiguous {
		t.Fatal("v assigned on one path only must be ambiguous")
	}
}

func TestLoopVariableIsVariable(t *testing.T) {
	src := `
function s = f(n)
  s = 0;
  for i = 1:n
    s = s + i;
  end
end`
	tbl, fn := analyze(t, src, nil)
	if tbl.HasAmbiguous {
		t.Fatal("loop variable must not be ambiguous")
	}
	if m, _ := meaningOf(t, fn.Body, "i"); m != ast.Variable {
		t.Errorf("loop var i classified %v", m)
	}
}

func TestShadowingBuiltin(t *testing.T) {
	// assigning to sin makes subsequent uses variables
	src := `
function y = f(x)
  sin = x;
  y = sin + 1;
end`
	tbl, fn := analyze(t, src, nil)
	if tbl.HasAmbiguous {
		t.Fatal("no ambiguity")
	}
	if m, _ := meaningOf(t, fn.Body, "sin"); m != ast.Variable {
		t.Errorf("shadowed sin classified %v", m)
	}
}

func TestUndefinedName(t *testing.T) {
	src := `
function y = f(x)
  y = totally_undefined_thing(x);
end`
	tbl, fn := analyze(t, src, nil)
	if !tbl.HasAmbiguous {
		t.Fatal("undefined name must block compilation")
	}
	if m, _ := meaningOf(t, fn.Body, "totally_undefined_thing"); m != ast.Undefined {
		t.Errorf("classified %v", m)
	}
}

func TestIndexingVsCall(t *testing.T) {
	src := `
function y = f(x)
  A = zeros(3, 3);
  y = A(2, 2) + sin(x);
end`
	tbl, fn := analyze(t, src, nil)
	if tbl.HasAmbiguous {
		t.Fatal("no ambiguity expected")
	}
	var aCall, sinCall *ast.Call
	ast.WalkStmts(fn.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.Call); ok {
			switch c.Name {
			case "A":
				aCall = c
			case "sin":
				sinCall = c
			}
		}
		return true
	})
	if aCall == nil || aCall.Kind != ast.Variable {
		t.Errorf("A(2,2) kind = %v", aCall.Kind)
	}
	if sinCall == nil || sinCall.Kind != ast.Builtin {
		t.Errorf("sin(x) kind = %v", sinCall.Kind)
	}
}

func TestBreakPathsRespected(t *testing.T) {
	// v is assigned before break on one path; after the loop the use
	// joins paths where v may be unassigned.
	src := `
function r = f(n)
  for i = 1:n
    if i == 2
      v = 1;
      break;
    end
  end
  r = v;
end`
	tbl, _ := analyze(t, src, nil)
	if !tbl.HasAmbiguous {
		t.Fatal("conditionally assigned v used after loop must be ambiguous")
	}
}

func TestClearRemovesDefinitions(t *testing.T) {
	src := `
x = 1;
clear x
y = x;
`
	tbl, _ := analyze(t, src, []string{})
	if !tbl.HasAmbiguous {
		t.Fatal("use after clear must not be a definite variable")
	}
}

func TestCFGShape(t *testing.T) {
	file, err := parser.Parse(`
s = 0;
for i = 1:10
  if s > 5
    break;
  end
  s = s + i;
end
t = s;
`)
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Build(file.Stmts)
	if g.Entry == nil || g.Exit == nil || len(g.Blocks) < 4 {
		t.Fatalf("blocks: %d", len(g.Blocks))
	}
	// one block must be a for-head with two successors
	var head *cfg.Block
	for _, b := range g.Blocks {
		if b.ForHead != nil {
			head = b
		}
	}
	if head == nil || len(head.Succs) != 2 {
		t.Fatalf("for-head missing or malformed: %+v", head)
	}
	// every successor must list the block among its preds
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			found := false
			for _, p := range s.Preds {
				if p == b {
					found = true
				}
			}
			if !found {
				t.Fatalf("B%d → B%d missing back-pointer", b.ID, s.ID)
			}
		}
	}
}
