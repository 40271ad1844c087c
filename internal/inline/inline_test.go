package inline

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

type mapResolver map[string]*ast.Function

func (m mapResolver) LookupFunction(name string) *ast.Function { return m[name] }

func parseAll(t *testing.T, src string) (mapResolver, *ast.Function) {
	t.Helper()
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res := mapResolver{}
	for _, f := range file.Funcs {
		res[f.Name] = f
	}
	return res, file.Funcs[0]
}

// countCalls counts remaining user-call sites to name.
func countCalls(fn *ast.Function, name string) int {
	n := 0
	ast.WalkStmts(fn.Body, func(node ast.Node) bool {
		if c, ok := node.(*ast.Call); ok && c.Name == name {
			n++
		}
		return true
	})
	return n
}

func TestSimpleInline(t *testing.T) {
	res, fn := parseAll(t, `
function y = f(x)
  y = sq(x) + 1;
end
function y = sq(a)
  y = a*a;
end`)
	out := Expand(fn, res)
	if countCalls(out, "sq") != 0 {
		t.Errorf("sq not inlined:\n%s", ast.Print(out))
	}
	// the original function is untouched
	if countCalls(fn, "sq") != 1 {
		t.Error("Expand mutated its input")
	}
	// read-only parameter: substituted directly, no copy assignment
	printed := ast.Print(out)
	if strings.Contains(printed, "= x;") && strings.Contains(printed, "inl") {
		// a temp copy of x would look like "inlN_a = x;"
		t.Errorf("read-only arg should substitute, not copy:\n%s", printed)
	}
}

func TestWrittenParamGetsCopy(t *testing.T) {
	res, fn := parseAll(t, `
function y = f(x)
  y = bump(x) + x;
end
function y = bump(a)
  a = a + 1;
  y = a;
end`)
	out := Expand(fn, res)
	if countCalls(out, "bump") != 0 {
		t.Fatal("bump not inlined")
	}
	printed := ast.Print(out)
	// the written formal must bind through a renamed temp, preserving
	// call-by-value (x unchanged in the caller)
	if !strings.Contains(printed, "_a = x") {
		t.Errorf("written parameter must copy:\n%s", printed)
	}
}

func TestRecursionDepthCap(t *testing.T) {
	res, fn := parseAll(t, `
function y = f(n)
  if n < 1
    y = 0;
  else
    y = f(n-1) + 1;
  end
end`)
	out := Expand(fn, res)
	// after 3 levels the recursive call must remain
	if countCalls(out, "f") == 0 {
		t.Error("recursion fully unrolled; depth cap missing")
	}
	// expansion happened at all
	printed := ast.Print(out)
	if !strings.Contains(printed, "inl") {
		t.Errorf("no inlining happened:\n%s", printed)
	}
}

func TestNoInlineBigFunction(t *testing.T) {
	var b strings.Builder
	b.WriteString("function y = f(x)\n  y = big(x);\nend\n")
	b.WriteString("function y = big(a)\n  y = 0;\n")
	for i := 0; i < MaxLines+10; i++ {
		b.WriteString("  y = y + a;\n")
	}
	b.WriteString("end\n")
	res, fn := parseAll(t, b.String())
	out := Expand(fn, res)
	if countCalls(out, "big") != 1 {
		t.Error("oversized callee must not inline")
	}
}

func TestNoInlineReturnBody(t *testing.T) {
	res, fn := parseAll(t, `
function y = f(x)
  y = early(x);
end
function y = early(a)
  y = 0;
  if a > 0
    y = 1;
    return;
  end
  y = 2;
end`)
	out := Expand(fn, res)
	if countCalls(out, "early") != 1 {
		t.Error("bodies with return must not inline")
	}
}

func TestNoHoistFromWhileCond(t *testing.T) {
	res, fn := parseAll(t, `
function y = f(x)
  y = 0;
  while check(y) < x
    y = y + 1;
  end
end
function c = check(v)
  c = v * 2;
end`)
	out := Expand(fn, res)
	if countCalls(out, "check") != 1 {
		t.Error("calls in while conditions must stay (re-evaluated per iteration)")
	}
}

func TestNoHoistFromShortCircuitRHS(t *testing.T) {
	res, fn := parseAll(t, `
function y = f(x)
  y = 0;
  if x > 0 && helper(x) > 0
    y = 1;
  end
end
function h = helper(v)
  h = v - 1;
end`)
	out := Expand(fn, res)
	if countCalls(out, "helper") != 1 {
		t.Error("calls in && right operands must stay lazy")
	}
}

// TestNoHoistFromElseifCond: a call nested in an elseif condition stays
// a call, whole; before, its operand was rewritten to a spliced output
// whose prelude was then dropped, and the function did not compile.
func TestNoHoistFromElseifCond(t *testing.T) {
	res, fn := parseAll(t, `
function y = f(x)
  if x > 5
    y = 1;
  elseif x > g(x)
    y = 2;
  else
    y = 3;
  end
end
function z = g(x)
  z = x - 1;
end`)
	out, deps, g, tbl := ExpandDeps(fn, res)
	if countCalls(out, "g") != 1 || len(deps) != 0 || strings.Contains(ast.Print(out), "inl") {
		t.Errorf("the elseif condition must keep its call:\n%s", ast.Print(out))
	}
	if g == nil || tbl == nil || tbl.HasAmbiguous {
		t.Errorf("an expansion that splices nothing hands back its own analysis (graph %v, table %+v)", g, tbl)
	}
}

// TestNothingSplicedCopiesNothing: where no statement expands, the
// inliner hands back the lists it was given, nested ones included, and
// allocates nothing on the way.
func TestNothingSplicedCopiesNothing(t *testing.T) {
	res, fn := parseAll(t, `
function y = f(x)
  y = 0;
  for k = 1:x
    if k > 2
      y = y + sin(k);
    else
      y = y - k;
    end
  end
end`)
	body := ast.CloneStmts(fn.Body)
	in := &inliner{res: res}
	loop := body[1].(*ast.For)
	inner := loop.Body
	if got := in.stmts(body); &got[0] != &body[0] || len(got) != len(body) || &loop.Body[0] != &inner[0] {
		t.Error("an expansion that splices nothing copied a list")
	}
	if n := testing.AllocsPerRun(10, func() { in.stmts(body) }); n != 0 {
		t.Errorf("an expansion that splices nothing allocated %v times", n)
	}
}

// TestSplicedOutputsAreTheCallees: a spliced output is never a caller
// variable, neither one that bears the output's name (here x or y, both
// 5) nor the argument of a parameter that is also an output: such a
// parameter is copied, even where the body only reads it. Substituted,
// [p, q] = swap(p, q) would assign p before reading it as the second
// result, and both would end up as the old q. An output the callee never
// assigns is renamed, so that the caller reads an undefined name and is
// not compiled.
func TestSplicedOutputsAreTheCallees(t *testing.T) {
	const keep = "function r = f(a)\n  x = 5;\n  y = 5;\n  r = keep(a);\nend\n"
	for _, tc := range []struct {
		name, src string
		want      []string
	}{
		{"read-only parameter", keep + "function x = keep(x)\n  if x > 100\n    y = 1;\n  end\nend", []string{"inl1_x = a;", "r = inl1_x;"}},
		{"never assigned", keep + "function y = keep(x)\n  z = x * 2;\nend", []string{"r = inl1_y;"}},
		{"swapped", "function r = f(p, q)\n  [p, q] = keep(p, q);\n  r = p * 10 + q;\nend\nfunction [b, a] = keep(a, b)\nend",
			[]string{"inl1_a = p;", "inl1_b = q;", "p = inl1_b;", "q = inl1_a;"}},
	} {
		res, fn := parseAll(t, tc.src)
		out := Expand(fn, res)
		printed := ast.Print(out)
		if countCalls(out, "keep") != 0 {
			t.Errorf("%s: not spliced:\n%s", tc.name, printed)
		}
		for _, w := range tc.want {
			if !strings.Contains(printed, w) {
				t.Errorf("%s: want %q:\n%s", tc.name, w, printed)
			}
		}
	}
}

func TestMultiOutputInline(t *testing.T) {
	res, fn := parseAll(t, `
function s = f(x)
  [a, b] = divmod(x, 3);
  s = a*10 + b;
end
function [q, r] = divmod(x, y)
  q = floor(x/y);
  r = x - q*y;
end`)
	out := Expand(fn, res)
	if countCalls(out, "divmod") != 0 {
		t.Errorf("multi-output call not inlined:\n%s", ast.Print(out))
	}
}

func TestNestedHelperChain(t *testing.T) {
	res, fn := parseAll(t, `
function y = f(x)
  y = outer(x);
end
function y = outer(a)
  y = inner(a) + 1;
end
function y = inner(b)
  y = b * 2;
end`)
	out := Expand(fn, res)
	if countCalls(out, "outer") != 0 || countCalls(out, "inner") != 0 {
		t.Errorf("chain not fully inlined:\n%s", ast.Print(out))
	}
}

func TestRenamingAvoidsCapture(t *testing.T) {
	// callee local 'tmp' must not collide with caller's 'tmp'
	res, fn := parseAll(t, `
function y = f(x)
  tmp = 100;
  y = g(x) + tmp;
end
function y = g(a)
  tmp = a * 2;
  y = tmp + 1;
end`)
	out := Expand(fn, res)
	printed := ast.Print(out)
	if countCalls(out, "g") != 0 {
		t.Fatal("g not inlined")
	}
	// the callee's tmp must appear renamed
	if !strings.Contains(printed, "_tmp") {
		t.Errorf("callee local not renamed:\n%s", printed)
	}
}

// TestSplicedCallsKeepTheirVerdict: a call spliced in from a callee's
// body is expanded by the verdict the callee's analysis gave it, whatever
// its name; and a callee is not spliced where a variable of the function
// being expanded would capture one of its builtin or user calls.
func TestSplicedCallsKeepTheirVerdict(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		spliced   []string
		left      string // a call that must stay
	}{
		{"inlet", `
function y = f(x)
  y = g(x) + 1;
end
function y = g(a)
  y = inlet(a) * 2;
end
function y = inlet(b)
  y = b + 3;
end`, []string{"g", "inlet"}, ""},
		{"sq", `
function y = f(x)
  y = g(x) + 1;
end
function y = g(a)
  y = sq(a) * 2;
end
function y = sq(b)
  y = b * b;
end`, []string{"g", "sq"}, ""},
		{"builtin captured", `
function r = f(x)
  sum = [5 6 7];
  r = g(x) + sum(1);
end
function z = g(a)
  z = sum(a) * 2;
end`, nil, "g"},
		{"user captured", `
function r = f(x)
  h = [5 6 7];
  r = g(x) + h(1);
end
function z = g(a)
  z = h(a) * 2;
end
function y = h(b)
  y = b * 10;
end`, nil, "g"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, fn := parseAll(t, tc.src)
			out, deps, _, _ := ExpandDeps(fn, res)
			var names []string
			for _, d := range deps {
				names = append(names, d.Name)
			}
			if strings.Join(names, " ") != strings.Join(tc.spliced, " ") {
				t.Errorf("spliced %v, want %v:\n%s", names, tc.spliced, ast.Print(out))
			}
			for _, name := range tc.spliced {
				if countCalls(out, name) != 0 {
					t.Errorf("a call to %s is left:\n%s", name, ast.Print(out))
				}
			}
			if tc.left != "" && countCalls(out, tc.left) != 1 {
				t.Errorf("the call to %s is not left alone:\n%s", tc.left, ast.Print(out))
			}
		})
	}
}
