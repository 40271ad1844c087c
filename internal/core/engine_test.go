package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mat"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	return New(Options{Tier: TierInterp})
}

func evalVar(t *testing.T, src, name string) *mat.Value {
	t.Helper()
	e := newTestEngine(t)
	if err := e.EvalString(src); err != nil {
		t.Fatalf("EvalString(%q): %v", src, err)
	}
	v, ok := e.Workspace(name)
	if !ok {
		t.Fatalf("variable %q not set after %q", name, src)
	}
	return v
}

func wantScalar(t *testing.T, v *mat.Value, want float64) {
	t.Helper()
	got, err := v.Scalar()
	if err != nil {
		t.Fatalf("want scalar %g, got %dx%d matrix", want, v.Rows(), v.Cols())
	}
	if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
		t.Fatalf("got %g, want %g", got, want)
	}
}

func TestScalarArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"x = 1 + 2;", 3},
		{"x = 2 * 3 + 4;", 10},
		{"x = 2 + 3 * 4;", 14},
		{"x = (2 + 3) * 4;", 20},
		{"x = 2^3;", 8},
		{"x = -2^2;", -4},
		{"x = 2^-2;", 0.25},
		{"x = 10 / 4;", 2.5},
		{"x = 7 - 3 - 2;", 2},
		{"x = 2^3^2;", 64}, // MATLAB: left-assoc => (2^3)^2
		{"x = mod(7, 3);", 1},
		{"x = mod(-1, 3);", 2},
		{"x = rem(-1, 3);", -1},
		{"x = abs(-5);", 5},
		{"x = floor(2.7);", 2},
		{"x = 1e3;", 1000},
		{"x = .5 * 4;", 2},
		{"x = 1.5e-2;", 0.015},
	}
	for _, c := range cases {
		wantScalar(t, evalVar(t, c.src, "x"), c.want)
	}
}

func TestRelationalAndLogical(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"x = 1 < 2;", 1},
		{"x = 2 <= 1;", 0},
		{"x = 3 == 3;", 1},
		{"x = 3 ~= 3;", 0},
		{"x = 1 & 0;", 0},
		{"x = 1 | 0;", 1},
		{"x = ~0;", 1},
		{"x = 1 && 0;", 0},
		{"x = 0 || 1;", 1},
		{"x = 1 < 2 & 2 < 3;", 1},
	}
	for _, c := range cases {
		wantScalar(t, evalVar(t, c.src, "x"), c.want)
	}
}

func TestMatrixLiteralsAndIndexing(t *testing.T) {
	v := evalVar(t, "A = [1 2 3; 4 5 6];", "A")
	if v.Rows() != 2 || v.Cols() != 3 {
		t.Fatalf("A is %dx%d, want 2x3", v.Rows(), v.Cols())
	}
	if v.At(1, 2) != 6 {
		t.Fatalf("A(2,3) = %g, want 6", v.At(1, 2))
	}

	wantScalar(t, evalVar(t, "A = [1 2 3; 4 5 6]; x = A(2,3);", "x"), 6)
	wantScalar(t, evalVar(t, "A = [1 2 3; 4 5 6]; x = A(4);", "x"), 5) // column-major linear
	wantScalar(t, evalVar(t, "A = [1 2 3]; x = A(end);", "x"), 3)
	wantScalar(t, evalVar(t, "A = [1 2 3; 4 5 6]; x = A(end,end);", "x"), 6)
	wantScalar(t, evalVar(t, "A = [1 2 3; 4 5 6]; B = A(:,2); x = B(1) + B(2);", "x"), 7)
	wantScalar(t, evalVar(t, "A = [1 2 3; 4 5 6]; B = A(1,:); x = B(3);", "x"), 3)
	wantScalar(t, evalVar(t, "v = 1:5; x = sum(v(2:4));", "x"), 9)

	// space-sensitivity in literals
	v = evalVar(t, "A = [1 -2];", "A")
	if v.Numel() != 2 {
		t.Fatalf("[1 -2] has %d elements, want 2", v.Numel())
	}
	v = evalVar(t, "A = [1 - 2];", "A")
	if v.Numel() != 1 || v.Re()[0] != -1 {
		t.Fatalf("[1 - 2] = %v, want scalar -1", v)
	}
}

func TestIndexedAssignmentAndGrowth(t *testing.T) {
	wantScalar(t, evalVar(t, "A = zeros(2,2); A(1,2) = 7; x = A(1,2);", "x"), 7)
	// growth by 2-D store
	v := evalVar(t, "A = zeros(2,2); A(3,4) = 1;", "A")
	if v.Rows() != 3 || v.Cols() != 4 {
		t.Fatalf("A grew to %dx%d, want 3x4", v.Rows(), v.Cols())
	}
	// growth by linear store on a vector
	v = evalVar(t, "v = [1 2]; v(5) = 9;", "v")
	if v.Rows() != 1 || v.Cols() != 5 || v.Re()[4] != 9 || v.Re()[2] != 0 {
		t.Fatalf("v = %v, want 1x5 [1 2 0 0 9]", v)
	}
	// undefined variable springs into existence
	v = evalVar(t, "clear; B(2,2) = 5;", "B")
	if v.Rows() != 2 || v.Cols() != 2 || v.At(1, 1) != 5 {
		t.Fatalf("B = %v, want 2x2 with B(2,2)=5", v)
	}
}

func TestCopyOnWriteAliasing(t *testing.T) {
	// B = A must behave as a value copy even though we alias internally.
	src := "A = [1 2 3]; B = A; A(1) = 99; x = B(1); y = A(1);"
	e := newTestEngine(t)
	if err := e.EvalString(src); err != nil {
		t.Fatal(err)
	}
	x, _ := e.Workspace("x")
	y, _ := e.Workspace("y")
	wantScalar(t, x, 1)
	wantScalar(t, y, 99)
}

func TestControlFlow(t *testing.T) {
	wantScalar(t, evalVar(t, `
s = 0;
for i = 1:10
  s = s + i;
end
`, "s"), 55)
	wantScalar(t, evalVar(t, `
s = 0;
k = 0;
while k < 5
  k = k + 1;
  s = s + k*k;
end
`, "s"), 55)
	wantScalar(t, evalVar(t, `
x = 3;
if x > 2
  y = 1;
elseif x > 1
  y = 2;
else
  y = 3;
end
`, "y"), 1)
	wantScalar(t, evalVar(t, `
s = 0;
for i = 1:10
  if i == 4
    break;
  end
  s = s + i;
end
`, "s"), 6)
	wantScalar(t, evalVar(t, `
s = 0;
for i = 1:5
  if mod(i,2) == 0
    continue;
  end
  s = s + i;
end
`, "s"), 9)
	wantScalar(t, evalVar(t, `
for p = 1:2:9
  q = p;
end
`, "q"), 9)
}

func TestFunctions(t *testing.T) {
	e := newTestEngine(t)
	err := e.Define(`
function y = sq(x)
  y = x * x;
end

function [a, b] = divmod(x, y)
  a = floor(x / y);
  b = x - a*y;
end
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EvalString("r = sq(7);"); err != nil {
		t.Fatal(err)
	}
	v, _ := e.Workspace("r")
	wantScalar(t, v, 49)

	if err := e.EvalString("[q, m] = divmod(17, 5);"); err != nil {
		t.Fatal(err)
	}
	q, _ := e.Workspace("q")
	m, _ := e.Workspace("m")
	wantScalar(t, q, 3)
	wantScalar(t, m, 2)
}

func TestRecursion(t *testing.T) {
	e := newTestEngine(t)
	err := e.Define(`
function f = fib(n)
  if n < 2
    f = n;
  else
    f = fib(n-1) + fib(n-2);
  end
end
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EvalString("x = fib(10);"); err != nil {
		t.Fatal(err)
	}
	v, _ := e.Workspace("x")
	wantScalar(t, v, 55)
}

func TestComplexArithmetic(t *testing.T) {
	v := evalVar(t, "z = 3 + 4i; x = abs(z);", "x")
	wantScalar(t, v, 5)
	v = evalVar(t, "z = i * i; x = real(z);", "x")
	wantScalar(t, v, -1)
	v = evalVar(t, "z = (1+2i) * (3-1i); x = imag(z);", "x")
	wantScalar(t, v, 5)
	v = evalVar(t, "x = real(exp(i*pi));", "x")
	wantScalar(t, v, -1)
	v = evalVar(t, "z = sqrt(-4); x = imag(z);", "x")
	wantScalar(t, v, 2)
}

func TestStringsAndDisplay(t *testing.T) {
	var b strings.Builder
	e := New(Options{Tier: TierInterp, Out: &b})
	if err := e.EvalString(`fprintf('n=%d v=%.2f %s\n', 42, 3.14159, 'ok');`); err != nil {
		t.Fatal(err)
	}
	want := "n=42 v=3.14 ok\n"
	if b.String() != want {
		t.Fatalf("fprintf output %q, want %q", b.String(), want)
	}
}

func TestBuiltinsBasics(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"x = sum([1 2 3 4]);", 10},
		{"x = prod([1 2 3 4]);", 24},
		{"x = max([3 1 4 1 5]);", 5},
		{"x = min([3 1 4 1 5]);", 1},
		{"x = length(zeros(3, 7));", 7},
		{"x = numel(ones(3, 7));", 21},
		{"x = size(zeros(3, 7), 1);", 3},
		{"x = size(zeros(3, 7), 2);", 7},
		{"x = norm([3 4]);", 5},
		{"x = dot([1 2 3], [4 5 6]);", 32},
		{"A = eye(3); x = sum(A(:));", 3},
		{"x = mean([2 4 6]);", 4},
		{"A = [4 2; 1 3]; v = A*[1;1]; x = v(1);", 6},
		{"A = [4 2; 1 3]; x = det(A);", 10},
		{"A = [4 2; 1 3]; b = [6; 4]; y = A\\b; x = y(1);", 1},
		{"x = any([0 0 1]);", 1},
		{"x = all([1 0 1]);", 0},
		{"v = find([0 3 0 7]); x = v(2);", 4},
		{"v = linspace(0, 1, 5); x = v(2);", 0.25},
		{"[m, k] = max([3 9 2]); x = k;", 2},
	}
	for _, c := range cases {
		wantScalar(t, evalVar(t, c.src, "x"), c.want)
	}
}

func TestMultiReturnSize(t *testing.T) {
	e := newTestEngine(t)
	if err := e.EvalString("[r, c] = size(zeros(3, 7));"); err != nil {
		t.Fatal(err)
	}
	r, _ := e.Workspace("r")
	c, _ := e.Workspace("c")
	wantScalar(t, r, 3)
	wantScalar(t, c, 7)
}

func TestSwitch(t *testing.T) {
	wantScalar(t, evalVar(t, `
x = 2;
switch x
case 1
  y = 10;
case 2
  y = 20;
otherwise
  y = 30;
end
`, "y"), 20)
}

// TestSwitchTemporaryIsNotListed: a script's switch binds its subject's
// temporary in the workspace (the parser lowers it), and who leaves the
// temporary out.
func TestSwitchTemporaryIsNotListed(t *testing.T) {
	e := newTestEngine(t)
	if err := e.EvalString("x = 2;\nswitch x\ncase 2\n  y = 20;\nend"); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Workspace("switch#1"); !ok {
		t.Fatal("the switch bound no temporary")
	}
	if got := strings.Join(e.WorkspaceNames(), " "); got != "x y" {
		t.Errorf("who lists %q, want \"x y\"", got)
	}
}

func TestGlobals(t *testing.T) {
	e := newTestEngine(t)
	err := e.Define(`
function bump()
  global counter
  counter = counter + 1;
end
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EvalString("global counter\ncounter = 10;\nbump();\nbump();\nx = counter;"); err != nil {
		t.Fatal(err)
	}
	v, _ := e.Workspace("x")
	wantScalar(t, v, 12)
}

func TestTranspose(t *testing.T) {
	wantScalar(t, evalVar(t, "A = [1 2; 3 4]; B = A'; x = B(1,2);", "x"), 3)
	wantScalar(t, evalVar(t, "z = (1+2i)'; x = imag(z);", "x"), -2)
	wantScalar(t, evalVar(t, "z = (1+2i).'; x = imag(z);", "x"), 2)
	// string vs transpose ambiguity
	wantScalar(t, evalVar(t, "x = length('abc');", "x"), 3)
	wantScalar(t, evalVar(t, "A = [1 2]; B = A'; x = B(2,1);", "x"), 2)
}

func TestRangeSemantics(t *testing.T) {
	wantScalar(t, evalVar(t, "v = 1:0; x = isempty(v);", "x"), 1)
	wantScalar(t, evalVar(t, "v = 5:-1:1; x = v(1) - v(5);", "x"), 4)
	wantScalar(t, evalVar(t, "v = 0:0.25:1; x = length(v);", "x"), 5)
	wantScalar(t, evalVar(t, "v = 1:3; x = v(end) + length(v);", "x"), 6)
}

func TestErrorsSurface(t *testing.T) {
	e := newTestEngine(t)
	for _, src := range []string{
		"x = undefined_thing_xyz;",
		"A = [1 2]; x = A(3);",
		"A = [1 2]; x = A(0);",
		"A = [1 2]; x = A(1.5);",
		"A = [1 2; 3 4]; B = [1 2 3]; C = A * B;",
		"A = [1 2]; B = [1 2 3]; C = A + B;",
		"error('boom %d', 3);",
	} {
		if err := e.EvalString(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}
