package infer

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/disambig"
	"repro/internal/parser"
	"repro/internal/types"
)

func inferFn(t *testing.T, src string, params map[string]types.Type) (*Result, *ast.Function) {
	t.Helper()
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fn := file.Funcs[0]
	g := cfg.Build(fn.Body)
	known := map[string]bool{}
	for _, f := range file.Funcs {
		known[f.Name] = true
	}
	disambig.Analyze(g, fn.Ins, disambig.ResolverFunc(func(n string) bool { return known[n] }))
	if params == nil {
		params = map[string]types.Type{}
		for _, p := range fn.Ins {
			params[p] = types.Top
		}
	}
	return Forward(g, params, Opts{}), fn
}

func TestPolyExampleSignatures(t *testing.T) {
	// The paper's Figure 3: poly compiled under different signatures.
	src := `
function p = poly(x)
  p = x^5 + 3*x + 2;
end`
	// int scalar constant: constant propagation gives a constant result
	_, ok := func() (float64, bool) {
		res, _ := inferFn(t, src, map[string]types.Type{
			"x": types.ScalarOf(types.IInt, types.Const(3)),
		})
		return res.Vars["p"].R.IsConst()
	}()
	if !ok {
		t.Error("poly(3) must infer a constant result (254)")
	}
	res, _ := inferFn(t, src, map[string]types.Type{
		"x": types.ScalarOf(types.IInt, types.Const(3)),
	})
	if v, _ := res.Vars["p"].R.IsConst(); v != 254 {
		t.Errorf("poly(3) inferred %v, want 254", res.Vars["p"].R)
	}

	// int scalar: result stays an int scalar
	res, _ = inferFn(t, src, map[string]types.Type{
		"x": types.ScalarOf(types.IInt, types.RangeTop),
	})
	if p := res.Vars["p"]; !types.LeqI(p.I, types.IInt) || !p.IsScalar() {
		t.Errorf("poly(int) inferred %v", p)
	}

	// real scalar
	res, _ = inferFn(t, src, map[string]types.Type{
		"x": types.ScalarOf(types.IReal, types.RangeTop),
	})
	if p := res.Vars["p"]; !types.LeqI(p.I, types.IReal) || !p.IsScalar() {
		t.Errorf("poly(real) inferred %v", p)
	}

	// complex matrix: generic
	res, _ = inferFn(t, src, map[string]types.Type{
		"x": types.MatrixOf(types.ICplx),
	})
	if p := res.Vars["p"]; !types.LeqI(types.ICplx, p.I) && p.I != types.ICplx {
		t.Errorf("poly(cplx matrix) inferred %v", p)
	}
}

func TestExactShapeInference(t *testing.T) {
	// zeros(m, n) with constant m, n has an exact shape (paper §2.4).
	src := `
function A = f()
  m = 10;
  n = 20;
  A = zeros(m, n);
end`
	res, _ := inferFn(t, src, nil)
	r, c, ok := res.Vars["A"].ExactShape()
	if !ok || r != 10 || c != 20 {
		t.Errorf("A inferred %v", res.Vars["A"])
	}
}

func TestShapeFromIndexedAssign(t *testing.T) {
	// A(i) = ... raises the guaranteed minimum shape via the index's
	// range (paper: "the range of the index can determine the shape").
	src := `
function v = f()
  v = zeros(1, 1);
  for i = 1:50
    v(i) = i;
  end
end`
	res, _ := inferFn(t, src, nil)
	v := res.Vars["v"]
	if v.MaxShape.C.IsInf() || v.MaxShape.C < 50 {
		t.Errorf("v upper shape %v", v.MaxShape)
	}
	if v.MinShape.R != 1 {
		t.Errorf("v must stay a row vector: %v", v)
	}
}

func TestLoopVarRange(t *testing.T) {
	src := `
function s = f()
  s = 0;
  for i = 2:99
    s = s + i;
  end
end`
	res, _ := inferFn(t, src, nil)
	found := false
	for name, ty := range res.Vars {
		if name == "i" {
			found = true
			if ty.R.Lo != 2 || ty.R.Hi != 99 || !types.LeqI(ty.I, types.IInt) {
				t.Errorf("loop var type %v", ty)
			}
		}
	}
	if !found {
		t.Fatal("loop variable not typed")
	}
}

func TestRangeWidening(t *testing.T) {
	// growing accumulator must widen, not loop forever, and must stay
	// sound (hi → +Inf)
	src := `
function s = f(n)
  s = 0;
  k = 0;
  while k < n
    s = s + 1;
    k = k + 1;
  end
end`
	res, _ := inferFn(t, src, map[string]types.Type{
		"n": types.ScalarOf(types.IInt, types.RangeTop),
	})
	s := res.Vars["s"]
	if s.R.Lo > 0 {
		t.Errorf("s range %v must include 0", s.R)
	}
	if s.R.Hi < 1e300 {
		t.Errorf("s range %v should be widened above any finite bound", s.R)
	}
}

func TestComplexPropagation(t *testing.T) {
	src := `
function z = f(n)
  z = 0*i;
  for k = 1:n
    z = z*z + 1;
  end
end`
	res, _ := inferFn(t, src, map[string]types.Type{
		"n": types.ScalarOf(types.IInt, types.RangeTop),
	})
	if z := res.Vars["z"]; !types.LeqI(z.I, types.ICplx) || types.LeqI(z.I, types.IReal) {
		t.Errorf("z inferred %v, want complex", z)
	}
}

func TestEigConservative(t *testing.T) {
	src := `
function e = f(A)
  e = eig(A);
end`
	res, _ := inferFn(t, src, map[string]types.Type{"A": types.MatrixOf(types.IReal)})
	if e := res.Vars["e"]; e.I != types.ICplx {
		t.Errorf("eig result %v, want complex (paper §3.6 mei)", e)
	}
}

func TestSubscriptRemovalInfo(t *testing.T) {
	// with constant bounds the subscript annotations prove in-boundedness
	src := `
function s = f()
  A = zeros(10, 10);
  s = 0;
  for i = 2:9
    for j = 2:9
      s = s + A(i, j);
    end
  end
end`
	res, fn := inferFn(t, src, nil)
	var call *ast.Call
	ast.WalkStmts(fn.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.Call); ok && c.Name == "A" && c.Kind == ast.Variable {
			call = c
		}
		return true
	})
	if call == nil {
		t.Fatal("A(i,j) not found")
	}
	base, ok := res.BaseOf(call)
	if !ok {
		t.Fatal("A(i,j) has no base type")
	}
	r, c, ok := base.ExactShape()
	if !ok || r != 10 || c != 10 {
		t.Fatalf("base type %v", base)
	}
	iAnn := res.TypeOf(call.Args[0])
	if iAnn.R.Lo < 1 || iAnn.R.Hi > 10 {
		t.Errorf("subscript range %v cannot prove bounds", iAnn.R)
	}
}

func TestRuleDatabaseSize(t *testing.T) {
	// the paper reports "about 250 rules"; ours must be of that order
	n := DefaultCalc.NumRules()
	if n < 120 {
		t.Errorf("only %d rules registered", n)
	}
	t.Logf("type calculator has %d forward rules", n)
}

func TestDefaultRuleIsTop(t *testing.T) {
	got := DefaultCalc.Forward("no_such_operator", []types.Type{types.Top})
	if !types.Leq(types.Top, got) {
		t.Errorf("default rule returned %v, want ⊤", got)
	}
}

// --- speculator ---------------------------------------------------------------

func speculate(t *testing.T, src string) types.Signature {
	t.Helper()
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fn := file.Funcs[0]
	g := cfg.Build(fn.Body)
	disambig.Analyze(g, fn.Ins, nil)
	return Speculate(fn, g, Opts{})
}

func TestSpeculatorColonHint(t *testing.T) {
	sig := speculate(t, `
function s = f(n)
  s = 0;
  for i = 1:n
    s = s + i;
  end
end`)
	if !sig[0].IsScalar() || !types.LeqI(sig[0].I, types.IInt) {
		t.Errorf("colon operand guessed %v, want int scalar", sig[0])
	}
}

func TestSpeculatorRelationalHint(t *testing.T) {
	sig := speculate(t, `
function y = f(x)
  if x > 0
    y = 1;
  else
    y = 2;
  end
end`)
	if !sig[0].IsScalar() || !types.LeqI(sig[0].I, types.IReal) {
		t.Errorf("relational operand guessed %v, want real scalar", sig[0])
	}
}

func TestSpeculatorSubscriptHint(t *testing.T) {
	sig := speculate(t, `
function y = f(k)
  A = zeros(10, 10);
  y = A(k, k);
end`)
	if !sig[0].IsScalar() || !types.LeqI(sig[0].I, types.IInt) {
		t.Errorf("subscript guessed %v, want int scalar", sig[0])
	}
}

func TestSpeculatorConstructorHint(t *testing.T) {
	sig := speculate(t, `
function A = f(n)
  A = zeros(n, n);
end`)
	if !sig[0].IsScalar() || !types.LeqI(sig[0].I, types.IInt) {
		t.Errorf("zeros argument guessed %v, want int scalar", sig[0])
	}
}

func TestSpeculatorIndexedBaseHint(t *testing.T) {
	// F77-style indexed parameter → real matrix guess (icn-style)
	sig := speculate(t, `
function s = f(A)
  n = size(A, 1);
  s = 0;
  for i = 1:n
    s = s + A(i, i);
  end
end`)
	if !types.LeqI(sig[0].I, types.IReal) || sig[0].MaybeScalar() == false && sig[0].I == types.ITop {
		t.Errorf("indexed base guessed %v, want real matrix", sig[0])
	}
	if sig[0].I == types.ITop {
		t.Errorf("base stayed ⊤")
	}
}

func TestSpeculatorNoHintsIsTop(t *testing.T) {
	// qmr-style: a parameter used only in whole-matrix operations gets
	// no specific guess — the safe generic signature.
	sig := speculate(t, `
function y = f(A, x)
  y = A*x;
end`)
	if sig[0].I != types.ITop {
		t.Errorf("A guessed %v, want ⊤ (speculation miss)", sig[0])
	}
}

func TestSpeculativeSignatureIsSafeForTypicalCalls(t *testing.T) {
	// the guessed signature must accept a typical integer invocation
	sig := speculate(t, `
function s = f(n)
  s = 0;
  for i = 1:n
    s = s + i;
  end
end`)
	actual := types.Signature{types.ScalarOf(types.IInt, types.Const(100))}
	if !sig.Safe(actual) {
		t.Errorf("speculative signature %v rejects f(100)", sig)
	}
}

// inferWithSummary runs inference over the first function of src with
// every user call answered by summary.
func inferWithSummary(t *testing.T, src string, params map[string]types.Type, summary types.Type) (*Result, *ast.Function) {
	t.Helper()
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fn := file.Funcs[0]
	g := cfg.Build(fn.Body)
	disambig.Analyze(g, fn.Ins, disambig.ResolverFunc(func(n string) bool { return n == "callee" }))
	return Forward(g, params, Opts{UserFnType: func(string, []types.Type) types.Type { return summary }}), fn
}

// TestUserCallsTakeReturnSummaries: Opts.UserFnType types a user call,
// the type flows on like any other, and ⊥ — "not known yet", the seed of
// the recursive-summary fixpoint — is absorbed by every operator and by
// joins instead of degrading to ⊤.
func TestUserCallsTakeReturnSummaries(t *testing.T) {
	const src = `
function y = f(n)
  if n < 2
    y = n;
  else
    y = callee(n - 1) + callee(n - 2);
  end
end`
	intN := map[string]types.Type{"n": types.ScalarOf(types.IInt, types.RangeTop)}

	res, _ := inferWithSummary(t, src, intN, types.ScalarOf(types.IInt, types.RangeTop))
	if y := res.Vars["y"]; !y.IsScalar() || y.I != types.IInt {
		t.Errorf("int summary: y inferred %v, want an int scalar", y)
	}
	if len(res.Boxed) != 0 {
		t.Errorf("nothing mixes here, yet Boxed = %v", res.Boxed)
	}

	res, _ = inferWithSummary(t, src, intN, types.Bottom)
	if y := res.Vars["y"]; !y.IsScalar() || y.I != types.IInt {
		t.Errorf("⊥ summary: y inferred %v; the recursive arm must contribute nothing", y)
	}

	res, _ = inferWithSummary(t, src, intN, types.Top)
	if y := res.Vars["y"]; y.I != types.ITop {
		t.Errorf("⊤ summary: y inferred %v, want ⊤ (today's boxed call)", y)
	}
}

// TestMixedClassVariablesStayBoxed: a variable that takes an integer on
// one path and a real that derives from a typed call on another must
// keep boxed storage (Result.Boxed) so each path's value keeps its kind;
// a mixed variable no call feeds was a register before summaries and
// stays one.
func TestMixedClassVariablesStayBoxed(t *testing.T) {
	const src = `
function [y, z] = f(n)
  y = 1;
  z = 1;
  t = callee(n);
  if n > 2
    y = t * 0.5;
    z = n * 0.5;
  end
end`
	res, _ := inferWithSummary(t, src,
		map[string]types.Type{"n": types.ScalarOf(types.IInt, types.RangeTop)},
		types.ScalarOf(types.IReal, types.RangeTop))
	if !res.Boxed["y"] {
		t.Errorf("y mixes int and a call-derived real but is not boxed: %v", res.Boxed)
	}
	if res.Boxed["z"] || res.Boxed["t"] {
		t.Errorf("z (no call feeds it) or t (one class) is boxed: %v", res.Boxed)
	}
}
