package ast_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

func parse(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestWalkVisitsEverything(t *testing.T) {
	f := parse(t, `
function y = f(x)
  for i = 1:x
    if i > 2
      y = i + sin(x);
    else
      y = [1 2; 3 4];
    end
  end
  while y < 10
    y = y + 1;
  end
  switch x
  case 1
    y = 0;
  otherwise
    y = -1;
  end
end`)
	counts := map[string]int{}
	ast.Walk(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.For:
			counts["for"]++
		case *ast.If:
			counts["if"]++
		case *ast.While:
			counts["while"]++
		case *ast.Matrix:
			counts["matrix"]++
		case *ast.Binary:
			counts["binary"]++
		case *ast.Call:
			counts["call"]++
		case *ast.Ident:
			counts["ident"]++
		}
		return true
	})
	// The parser lowers the switch to an if on a case match.
	for k, n := range map[string]int{"for": 1, "if": 2, "while": 1, "matrix": 1} {
		if counts[k] != n {
			t.Errorf("%s visited %d times, want %d", k, counts[k], n)
		}
	}
	if counts["binary"] < 5 || counts["ident"] < 6 || counts["call"] < 1 {
		t.Errorf("counts: %v", counts)
	}
	// early termination
	seen := 0
	ast.Walk(f, func(n ast.Node) bool {
		seen++
		return false
	})
	if seen != 1 {
		t.Errorf("walk with false visited %d nodes", seen)
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := parse(t, `
function y = f(x)
  v = [1 2 3];
  for i = 1:3
    v(i) = x * i;
  end
  y = sum(v);
end`)
	fn := f.Funcs[0]
	clone := ast.CloneFunction(fn)
	// renaming every identifier in the clone must not affect the original
	ast.WalkStmts(clone.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			x.Name = "zz_" + x.Name
		case *ast.Call:
			x.Name = "zz_" + x.Name
		}
		return true
	})
	tainted := false
	ast.WalkStmts(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if strings.HasPrefix(x.Name, "zz_") {
				tainted = true
			}
		case *ast.Call:
			if strings.HasPrefix(x.Name, "zz_") {
				tainted = true
			}
		}
		return true
	})
	if tainted {
		t.Fatal("clone shares nodes with the original")
	}
	// print equality before mutation (structure preserved)
	f2 := parse(t, `
function y = g(a, b)
  y = a^2 + b';
end`)
	c2 := ast.CloneFunction(f2.Funcs[0])
	if ast.Print(c2) != ast.Print(f2.Funcs[0]) {
		t.Error("clone prints differently")
	}

	// Every kind of node and list: the clone shares no node and no list
	// backing with the source.
	f3 := parse(t, `
function [y, z] = h(a, b)
  global g1 g2
  v = [1 2; a b];
  [m, k] = max(v(:, end));
  if a > 0 && b < 1
    y = g(a, b) + g(b, a)';
  elseif a == 0
    y = -a;
  else
    y = 'str';
  end
  while k < 3
    k = k + 1;
    if k == 2, break; end
    continue;
  end
  for i = 1:2:9
    z(i) = i;
  end
  switch m
  case 1
    z = 2;
  otherwise
    return;
  end
  clear v
end`)
	src := f3.Funcs[0]
	clone = ast.CloneFunction(src)
	if ast.Print(clone) != ast.Print(src) {
		t.Fatal("clone prints differently")
	}
	mem := map[uintptr]bool{}
	parts(reflect.ValueOf(src), func(p uintptr) { mem[p] = true })
	parts(reflect.ValueOf(clone), func(p uintptr) {
		if mem[p] {
			t.Errorf("clone shares %#x with the source", p)
		}
	})

	// A list a clone hands out has no spare capacity: appending to one
	// call's arguments copies them, and leaves the call beside it alone.
	want := ast.Print(clone)
	ast.Walk(clone, func(n ast.Node) bool {
		if c, ok := n.(*ast.Call); ok {
			_ = append(c.Args, &ast.Ident{Name: "zz"})
		}
		if a, ok := n.(*ast.Assign); ok {
			_ = append(a.LHS, &ast.Ident{Name: "zz"})
		}
		return true
	})
	if got := ast.Print(clone); got != want {
		t.Errorf("an append to a cloned list wrote its neighbour:\n%s", got)
	}
}

// parts reports the address of every node and of every non-empty list
// backing reachable from v.
func parts(v reflect.Value, f func(uintptr)) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			f(v.Pointer())
			parts(v.Elem(), f)
		}
	case reflect.Interface:
		parts(v.Elem(), f)
	case reflect.Slice:
		if v.Len() > 0 {
			f(v.Pointer())
		}
		for i := 0; i < v.Len(); i++ {
			parts(v.Index(i), f)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			parts(v.Field(i), f)
		}
	}
}

func TestOperatorStringers(t *testing.T) {
	ops := map[ast.BinOp]string{
		ast.OpAdd: "+", ast.OpSub: "-", ast.OpMul: "*", ast.OpDiv: "/",
		ast.OpLDiv: "\\", ast.OpPow: "^", ast.OpEMul: ".*", ast.OpEDiv: "./",
		ast.OpELDiv: ".\\", ast.OpEPow: ".^", ast.OpEq: "==", ast.OpNe: "~=",
		ast.OpLt: "<", ast.OpLe: "<=", ast.OpGt: ">", ast.OpGe: ">=",
		ast.OpAnd: "&", ast.OpOr: "|", ast.OpAndAnd: "&&", ast.OpOrOr: "||",
	}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%d prints %q, want %q", op, op.String(), want)
		}
	}
	if !ast.OpLt.IsRelational() || ast.OpAdd.IsRelational() {
		t.Error("IsRelational")
	}
	if !ast.OpAndAnd.IsLogical() || ast.OpMul.IsLogical() {
		t.Error("IsLogical")
	}
}

func TestPrintStatements(t *testing.T) {
	src := `
function [a, b] = f(x)
  global g
  clear tmp
  a = x;
  b = 'str''s';
  if a > 0
    break;
  else
    continue;
  end
  return;
end`
	f := parse(t, src)
	printed := ast.Print(f)
	for _, want := range []string{
		"function [a, b] = f(x)", "global g", "clear tmp", "'str''s'",
		"break;", "continue;", "return;", "else",
	} {
		if !strings.Contains(printed, want) {
			t.Errorf("printed output lacks %q:\n%s", want, printed)
		}
	}
}
