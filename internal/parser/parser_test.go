package parser

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
)

// parseExpr parses src as a one-statement script and returns the
// expression it states.
func parseExpr(src string) (ast.Expr, error) {
	file, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(file.Stmts) == 1 && len(file.Funcs) == 0 {
		if s, ok := file.Stmts[0].(*ast.ExprStmt); ok {
			return s.X, nil
		}
	}
	return nil, fmt.Errorf("%q is not one expression statement", src)
}

func parseExprString(t *testing.T, src string) string {
	t.Helper()
	e, err := parseExpr(src)
	if err != nil {
		t.Fatalf("parseExpr(%q): %v", src, err)
	}
	return ast.ExprString(e)
}

// Golden-style precedence tests: the printer fully parenthesizes, so
// the output pins the parse tree.
func TestPrecedence(t *testing.T) {
	cases := map[string]string{
		"1 + 2*3":     "(1 + (2 * 3))",
		"(1 + 2)*3":   "((1 + 2) * 3)",
		"2^3^2":       "((2 ^ 3) ^ 2)", // left-assoc in MATLAB
		"-2^2":        "(-(2 ^ 2))",
		"2^-3":        "(2 ^ (-3))",
		"a < b + 1":   "(a < (b + 1))",
		"a & b | c":   "((a & b) | c)",
		"~a & b":      "((~a) & b)",
		"a && b || c": "((a && b) || c)",
		"1:2:10":      "(1:2:10)",
		"1:n+1":       "(1:(n + 1))",
		"a*b'":        "(a * b')",
		"a'*b":        "(a' * b)",
		"2*a(1)":      "(2 * a(1))",
		"x == y ~= z": "((x == y) ~= z)",
		"a/b*c":       "((a / b) * c)",
		"a\\b":        "(a \\ b)",
		"a.^2.'":      "(a .^ 2.')",
		"3 - - 2":     "(3 - (-2))",
		"x(end)":      "x(end)",
		"x(end-1)":    "x((end - 1))",
		"A(2, :)":     "A(2, :)",
		"f(g(h(1)))":  "f(g(h(1)))",
		"[1 2; 3 4]":  "[1, 2; 3, 4]",
		"[1 -2]":      "[1, (-2)]",
		"[1 - 2]":     "[(1 - 2)]",
		"[1-2]":       "[(1 - 2)]",
		"[a' b]":      "[a', b]",
		"[x, -y]":     "[x, (-y)]",
		"2.5e2 + .25": "(250 + 0.25)",
		"x.*y + z":    "((x .* y) + z)",
	}
	for src, want := range cases {
		if got := parseExprString(t, src); got != want {
			t.Errorf("%q parsed as %s, want %s", src, got, want)
		}
	}
}

func TestImaginaryLiterals(t *testing.T) {
	e, err := parseExpr("2 + 3i")
	if err != nil {
		t.Fatal(err)
	}
	bin := e.(*ast.Binary)
	im := bin.R.(*ast.NumberLit)
	if !im.Imag || im.Value != 3 {
		t.Fatalf("3i parsed as %+v", im)
	}
}

func TestIntLiteralFlag(t *testing.T) {
	n := func(src string) *ast.NumberLit {
		e, err := parseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		return e.(*ast.NumberLit)
	}
	if !n("42").IsInt {
		t.Error("42 must be an int literal")
	}
	if n("42.0").IsInt {
		t.Error("42.0 must not be an int literal")
	}
	if n("1e3").IsInt {
		t.Error("1e3 must not be an int literal")
	}
}

func TestStatements(t *testing.T) {
	src := `
x = 1;
y = 2
if x > 0
  z = 1;
elseif x < 0
  z = 2;
else
  z = 3;
end
while x < 10, x = x + 1; end
for i = 1:10
  s = i;
end
switch x
case 1
  a = 1;
otherwise
  a = 2;
end
break
continue
return
global g1 g2
clear x y
`
	// break/continue outside loops parse fine; execution rejects them.
	file, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// The switch lowers to two: its subject's assignment and an if.
	if len(file.Stmts) != 12 {
		t.Fatalf("got %d statements", len(file.Stmts))
	}
	if a, ok := file.Stmts[0].(*ast.Assign); !ok || a.Display {
		t.Error("x = 1; must be a suppressed assignment")
	}
	if a, ok := file.Stmts[1].(*ast.Assign); !ok || !a.Display {
		t.Error("y = 2 without semicolon must display")
	}
	g := file.Stmts[10].(*ast.Global)
	if len(g.Names) != 2 || g.Names[0] != "g1" {
		t.Errorf("global: %+v", g)
	}
}

func TestFunctions(t *testing.T) {
	src := `
function y = f(x)
  y = x;
end

function [a, b] = two(p, q)
  a = p;
  b = q;
end

function noout(x)
  disp(x);
end

function r = noargs
  r = 1;
end
`
	file, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Funcs) != 4 {
		t.Fatalf("got %d functions", len(file.Funcs))
	}
	f := file.Funcs[0]
	if f.Name != "f" || len(f.Ins) != 1 || len(f.Outs) != 1 {
		t.Errorf("f: %+v", f)
	}
	two := file.Funcs[1]
	if len(two.Outs) != 2 || two.Outs[1] != "b" {
		t.Errorf("two: %+v", two)
	}
	if len(file.Funcs[2].Outs) != 0 {
		t.Error("noout must have no outputs")
	}
	if file.Funcs[3].Name != "noargs" || len(file.Funcs[3].Ins) != 0 {
		t.Errorf("noargs: %+v", file.Funcs[3])
	}
}

func TestFunctionsWithoutEnd(t *testing.T) {
	// classic MATLAB files separate functions without closing 'end'
	src := `
function y = a(x)
  y = x + 1;

function y = b(x)
  y = x + 2;
`
	file, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Funcs) != 2 || file.Funcs[1].Name != "b" {
		t.Fatalf("funcs: %d", len(file.Funcs))
	}
}

func TestMultiAssign(t *testing.T) {
	file, err := Parse("[a, b] = size(x);")
	if err != nil {
		t.Fatal(err)
	}
	as := file.Stmts[0].(*ast.Assign)
	if len(as.LHS) != 2 {
		t.Fatalf("LHS: %d", len(as.LHS))
	}
	call := as.RHS.(*ast.Call)
	if call.NArgsOut != 2 {
		t.Errorf("NArgsOut = %d", call.NArgsOut)
	}
	// indexed target in multi-assignment
	file, err = Parse("[v(1), w] = size(x);")
	if err != nil {
		t.Fatal(err)
	}
	as = file.Stmts[0].(*ast.Assign)
	if _, ok := as.LHS[0].(*ast.Call); !ok {
		t.Error("v(1) target must parse as a Call")
	}
	// matrix literal on its own is NOT a multi-assignment
	file, err = Parse("[1, 2] == 3;")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := file.Stmts[0].(*ast.ExprStmt); !ok {
		t.Error("[1,2] == 3 must be an expression statement")
	}
}

func TestEndResolution(t *testing.T) {
	e, err := parseExpr("A(end, end-1)")
	if err != nil {
		t.Fatal(err)
	}
	call := e.(*ast.Call)
	end0 := call.Args[0].(*ast.End)
	if end0.Dim != 0 || end0.NumDims != 2 {
		t.Errorf("first end: dim=%d ndims=%d", end0.Dim, end0.NumDims)
	}
	bin := call.Args[1].(*ast.Binary)
	end1 := bin.L.(*ast.End)
	if end1.Dim != 1 || end1.NumDims != 2 {
		t.Errorf("second end: dim=%d ndims=%d", end1.Dim, end1.NumDims)
	}
	// nested: inner end belongs to the inner call
	e, err = parseExpr("A(B(end))")
	if err != nil {
		t.Fatal(err)
	}
	inner := e.(*ast.Call).Args[0].(*ast.Call)
	ie := inner.Args[0].(*ast.End)
	if ie.NumDims != 1 {
		t.Errorf("inner end ndims=%d", ie.NumDims)
	}
}

func TestMatrixRows(t *testing.T) {
	e, err := parseExpr("[1 2 3; 4 5 6]")
	if err != nil {
		t.Fatal(err)
	}
	m := e.(*ast.Matrix)
	if len(m.Rows) != 2 || len(m.Rows[0]) != 3 {
		t.Fatalf("rows: %d x %d", len(m.Rows), len(m.Rows[0]))
	}
	// newline inside brackets separates rows
	file, err := Parse("A = [1 2\n3 4];")
	if err != nil {
		t.Fatal(err)
	}
	m = file.Stmts[0].(*ast.Assign).RHS.(*ast.Matrix)
	if len(m.Rows) != 2 {
		t.Fatalf("newline row split: %d rows", len(m.Rows))
	}
	// empty matrix
	e, err = parseExpr("[]")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.(*ast.Matrix).Rows) != 0 {
		t.Error("[] must have no rows")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"x = ;",
		"if x",            // unterminated
		"for i = 1:3",     // unterminated
		"x = (1 + 2;",     // unbalanced
		"x = [1, 2;",      // unterminated literal
		"1 = x;",          // bad lvalue
		"function = f(x)", // malformed
		"x = a b;",        // juxtaposition outside brackets
		"end",             // stray end
		"else",            // stray else
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestCommandsWithCommas(t *testing.T) {
	// MATLAB allows comma-terminated clauses
	src := "for p = 1:3, x = p; end"
	file, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	f := file.Stmts[0].(*ast.For)
	if f.Var != "p" || len(f.Body) != 1 {
		t.Errorf("for: %+v", f)
	}
}

func TestRoundTripBenchStyle(t *testing.T) {
	// A representative chunk of benchmark-style code must round-trip
	// through the printer and reparse to the same rendering.
	src := `
function s = demo(n)
  U = zeros(n, n);
  for i = 2:n-1
    for j = 2:n-1
      U(i,j) = 0.25*(U(i-1,j) + U(i+1,j) + U(i,j-1) + U(i,j+1));
    end
  end
  s = 0;
  while s < 10 && n > 0
    s = s + U(1,1) + 1;
  end
end
`
	f1, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	printed := ast.Print(f1)
	f2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse of printed source failed: %v\n%s", err, printed)
	}
	if p2 := ast.Print(f2); p2 != printed {
		t.Errorf("print not stable:\n%s\nvs\n%s", printed, p2)
	}
	if !strings.Contains(printed, "function s = demo(n)") {
		t.Errorf("header lost:\n%s", printed)
	}
}

// TestSwitchLowering: a switch is its subject's assignment to a
// temporary and an if-chain of case matches on it, so the subject is
// evaluated once and before any case value. Its temporaries are
// numbered per function, a nested switch taking the next number, and it
// counts as one statement of the function's LineCount.
func TestSwitchLowering(t *testing.T) {
	file, err := Parse(`
function y = f(x)
  switch x + 1
  case 1
    y = 1;
  case [2 3]
    y = 2;
  otherwise
    switch y
    case 'a'
      y = 3;
    end
  end
end
function y = g(x)
  switch x
  case 1
    y = 1;
  end
end`)
	if err != nil {
		t.Fatal(err)
	}
	want := `switch#1 = (x + 1);
if (switch#1 case 1)
  y = 1;
elseif (switch#1 case [2, 3])
  y = 2;
else
  switch#2 = y;
  if (switch#2 case 'a')
    y = 3;
  end
end
`
	if got := ast.Print(&ast.File{Stmts: file.Funcs[0].Body}); got != want {
		t.Errorf("lowered f:\n%s\nwant:\n%s", got, want)
	}
	if got := ast.Print(file.Funcs[1].Body[0]); got != "switch#1 = x;\n" {
		t.Errorf("g's temporary: %q", got)
	}
	// f: the two switches and their three case statements.
	if n := file.Funcs[0].LineCount; n != 5 {
		t.Errorf("f's LineCount is %d, want 5", n)
	}
	for _, name := range []string{"switch#1", "inl3_switch#2"} {
		if !ast.IsTemp(name) {
			t.Errorf("%s is not a temporary", name)
		}
	}
	if ast.IsTemp("x") {
		t.Error("x is a temporary")
	}
}

// TestSwitchWithoutCases: a switch with only an otherwise is the
// subject's assignment and the otherwise's statements, and one without
// either is the assignment alone: the subject is evaluated all the same.
func TestSwitchWithoutCases(t *testing.T) {
	for src, want := range map[string]string{
		"a = 1;\nswitch a\notherwise\n  b = 2;\nend\nc = 3;": "a = 1;\nswitch#1 = a;\nb = 2;\nc = 3;\n",
		"switch f(1)\nend\nc = 3;":                           "switch#1 = f(1);\nc = 3;\n",
		"switch a\notherwise\nend":                           "switch#1 = a;\n",
	} {
		file, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := ast.Print(file); got != want {
			t.Errorf("%q lowered to\n%s\nwant\n%s", src, got, want)
		}
	}
}
