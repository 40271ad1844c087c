package codegen

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/disambig"
	"repro/internal/infer"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/types"
)

func compileFn(t *testing.T, src string, params map[string]types.Type, cfg_ Config) *ir.Prog {
	t.Helper()
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fn := file.Funcs[0]
	g := cfg.Build(fn.Body)
	tbl := disambig.Analyze(g, fn.Ins, nil)
	if params == nil {
		params = map[string]types.Type{}
	}
	res := infer.Forward(g, params, infer.Opts{})
	prog, err := Compile(fn, res, tbl, cfg_)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func count(p *ir.Prog, ops ...ir.Op) int {
	n := 0
	for _, in := range p.Ins {
		for _, op := range ops {
			if in.Op == op {
				n++
			}
		}
	}
	return n
}

// Subscript-check removal (paper §2.4): provably in-bounds accesses use
// unchecked loads/stores; unprovable ones keep the checks.
func TestSubscriptCheckRemoval(t *testing.T) {
	const src = `
function s = f()
  A = zeros(10, 10);
  s = 0;
  for i = 1:10
    for j = 1:10
      A(i,j) = i + j;
    end
  end
  for i = 1:10
    for j = 1:10
      s = s + A(i,j);
    end
  end
end`
	p := compileFn(t, src, nil, DefaultConfig())
	if n := count(p, ir.OpFLd2); n != 0 {
		t.Errorf("%d checked loads remain with provable bounds:\n%s", n, p.Disasm())
	}
	if n := count(p, ir.OpFLd2U); n == 0 {
		t.Error("no unchecked loads emitted")
	}
	if n := count(p, ir.OpFSt2); n != 0 {
		t.Errorf("%d checked stores remain with provable bounds", n)
	}
}

func TestChecksStayWithoutRanges(t *testing.T) {
	const src = `
function s = f(n)
  A = zeros(n, n);
  s = 0;
  for i = 1:n
    for j = 1:n
      s = s + A(i,j) + 1;
      A(i,j) = s;
    end
  end
end`
	// n has an unknown range → bounds unprovable → checked accesses
	p := compileFn(t, src, map[string]types.Type{
		"n": types.ScalarOf(types.IInt, types.RangeTop),
	}, DefaultConfig())
	if n := count(p, ir.OpFLd2U, ir.OpFSt2U); n != 0 {
		t.Errorf("%d unchecked accesses without provable bounds:\n%s", n, p.Disasm())
	}
	// (the subscripts are in the I bank: the bounds check stays, the
	// integrality test and the conversions feeding it do not)
	if n := count(p, ir.OpFLd2I, ir.OpFSt2I); n == 0 {
		t.Errorf("expected bounds-checked accesses:\n%s", p.Disasm())
	}
	if n := count(p, ir.OpItoF); n != 0 {
		t.Errorf("%d conversions of I-bank subscripts:\n%s", n, p.Disasm())
	}
	// with a constant n the checks disappear
	p = compileFn(t, src, map[string]types.Type{
		"n": types.ScalarOf(types.IInt, types.Const(50)),
	}, DefaultConfig())
	if n := count(p, ir.OpFLd2); n != 0 {
		t.Errorf("constant-size matrix still has %d checked loads", n)
	}
}

// Small-vector unrolling (paper §2.6.1).
func TestSmallVectorUnrolling(t *testing.T) {
	const src = `
function s = f()
  a = [1 2 3];
  b = [4 5 6];
  c = a + b;
  s = c(1);
end`
	p := compileFn(t, src, nil, DefaultConfig())
	if n := count(p, ir.OpGBin); n != 0 {
		t.Errorf("generic op used for small exact-shape add:\n%s", p.Disasm())
	}
	// with unrolling disabled the generic path returns
	cfgNo := DefaultConfig()
	cfgNo.UnrollSmallVectors = false
	p = compileFn(t, src, nil, cfgNo)
	if n := count(p, ir.OpGBin); n == 0 {
		t.Error("expected a generic op with unrolling disabled")
	}
}

// dgemv fusion (paper §2.6.1).
func TestGEMVFusion(t *testing.T) {
	const src = `
function r = f(A, x, b)
  r = b - A*x;
end`
	params := map[string]types.Type{
		"A": types.Exact(types.IReal, 50, 50, types.RangeTop),
		"x": types.Exact(types.IReal, 50, 1, types.RangeTop),
		"b": types.Exact(types.IReal, 50, 1, types.RangeTop),
	}
	p := compileFn(t, src, params, DefaultConfig())
	if n := count(p, ir.OpGEMV); n != 1 {
		t.Errorf("expected one fused gemv, got %d:\n%s", n, p.Disasm())
	}
	if n := count(p, ir.OpGBin); n != 0 {
		t.Errorf("generic ops remain after fusion: %d", n)
	}
	cfgNo := DefaultConfig()
	cfgNo.FuseGEMV = false
	p = compileFn(t, src, params, cfgNo)
	if n := count(p, ir.OpGEMV); n != 0 {
		t.Error("gemv emitted with fusion disabled")
	}
}

// Elementwise fusion (§2.6.1 temporary elimination): a chain of k >= 2
// elementwise vector operators compiles to exactly one OpVFused kernel
// and no generic ops.
func TestElemwiseFusion(t *testing.T) {
	const src = `
function r = f(a, b, c, s)
  r = a + b .* c - a ./ s;
end`
	vec := types.Exact(types.IReal, 1, 10000, types.RangeTop)
	params := map[string]types.Type{
		"a": vec, "b": vec, "c": vec,
		"s": types.ScalarOf(types.IReal, types.RangeTop),
	}
	cfgFuse := DefaultConfig()
	cfgFuse.FuseElemwise = true
	p := compileFn(t, src, params, cfgFuse)
	if n := count(p, ir.OpVFused); n != 1 {
		t.Errorf("expected one fused kernel, got %d:\n%s", n, p.Disasm())
	}
	if n := count(p, ir.OpGBin); n != 0 {
		t.Errorf("%d generic ops remain beside the fused kernel:\n%s", n, p.Disasm())
	}
	// the scalar divisor is staged once, not loaded per element
	if n := count(p, ir.OpVFuseArgF); n != 1 {
		t.Errorf("expected one staged scalar, got %d:\n%s", n, p.Disasm())
	}
	// Off by default: the vector∘vector operators stay generic. Only the
	// register scalar's operator (t - a./s, with its divisor staged
	// instead of boxed) is a kernel, which FuseElemwise does not govern.
	p = compileFn(t, src, params, DefaultConfig())
	if n, g := count(p, ir.OpVFused), count(p, ir.OpGBin); n != 1 || g != 2 {
		t.Errorf("fusion disabled: %d kernels and %d generic ops, want 1 and 2:\n%s", n, g, p.Disasm())
	}
	if n := count(p, ir.OpBoxF); n != 0 {
		t.Errorf("the scalar divisor was boxed:\n%s", p.Disasm())
	}
}

// A scalar in an F or I register enters array arithmetic through the
// kernel's slot file, never through a box — with fusion off.
func TestRegisterScalarIsNotBoxed(t *testing.T) {
	vec := types.Exact(types.IReal, 5000, 1, types.RangeTop)
	params := map[string]types.Type{
		"x": vec, "p": vec, "alpha": types.ScalarOf(types.IReal, types.RangeTop),
	}
	for _, c := range []struct {
		expr         string
		kernels, ops int // OpVFused instructions; operators of the last one
	}{
		{"alpha*p", 1, 1},
		{"p/alpha", 1, 1},
		{"p + 2", 1, 1},
		{"x - alpha*p", 1, 2},
		{"alpha*p + x", 1, 2},
		{"(x + p) + alpha*p", 1, 2}, // x + p stays a generic leaf
		{"x + p", 0, 0},
		{"p .^ alpha", 0, 0}, // can promote to complex: not selected
		// Only + - * / .* ./ root a kernel with FuseElemwise off; under any
		// other root the scalar-side child is a one-operator kernel of its own.
		{"(alpha*p) .^ x", 1, 1},
		{"sqrt(alpha*p)", 1, 1},
		{"-(alpha*p)", 1, 1},
	} {
		p := compileFn(t, "function r = f(x, p, alpha)\n  r = "+c.expr+";\nend", params, DefaultConfig())
		if n := count(p, ir.OpVFused); n != c.kernels {
			t.Errorf("%s: %d kernels, want %d:\n%s", c.expr, n, c.kernels, p.Disasm())
			continue
		}
		if n := count(p, ir.OpBoxF, ir.OpBoxI); n != 0 && c.kernels > 0 {
			t.Errorf("%s: %d boxes remain:\n%s", c.expr, n, p.Disasm())
		}
		for _, in := range p.Ins {
			if in.Op == ir.OpVFused {
				nv := int(p.Aux[in.B])
				nops := 0
				prog := p.Aux[int(in.B)+3+nv:]
				for j := 0; j < int(p.Aux[int(in.B)+2+nv]); j++ {
					if prog[2*j] >= ir.FuseAdd {
						nops++
					}
				}
				if nops != c.ops {
					t.Errorf("%s: kernel of %d operators, want %d:\n%s", c.expr, nops, c.ops, p.Disasm())
				}
			}
		}
	}
}

// Math builtins and unary minus root fused trees too, and a subtree the
// dgemv matcher claims stays an unfused leaf so the beta-folding
// accumulation order (and bit pattern) is preserved.
func TestElemwiseFusionRootsAndGEMVLeaves(t *testing.T) {
	vec := types.Exact(types.IReal, 1, 5000, types.RangeTop)
	cfgFuse := DefaultConfig()
	cfgFuse.FuseElemwise = true

	p := compileFn(t, `
function r = f(a, b)
  r = exp(-(a + b));
end`, map[string]types.Type{"a": vec, "b": vec}, cfgFuse)
	if n := count(p, ir.OpVFused); n != 1 {
		t.Errorf("builtin-rooted tree: expected one fused kernel, got %d:\n%s", n, p.Disasm())
	}
	if n := count(p, ir.OpGBuiltin, ir.OpGBin, ir.OpGUn); n != 0 {
		t.Errorf("builtin-rooted tree left %d generic ops:\n%s", n, p.Disasm())
	}

	col := types.Exact(types.IReal, 40, 1, types.RangeTop)
	mtx := types.Exact(types.IReal, 40, 40, types.RangeTop)
	p = compileFn(t, `
function r = f(A, x, b, c)
  r = (b - A*x) .* c;
end`, map[string]types.Type{"A": mtx, "x": col, "b": col, "c": col}, cfgFuse)
	if n := count(p, ir.OpGEMV); n != 1 {
		t.Errorf("dgemv subtree not preserved as a leaf: %d gemv ops:\n%s", n, p.Disasm())
	}
}

// Storage classes: int scalars in I registers, real scalars in F,
// complex scalars in C, matrices boxed in V.
func TestStorageClasses(t *testing.T) {
	const src = `
function s = f(n)
  x = 1.5;
  z = 0*i;
  A = zeros(3, 3);
  s = 0;
  for k = 1:n
    z = z + x;
    s = s + k;
  end
  s = s + real(z) + A(1,1);
end`
	p := compileFn(t, src, map[string]types.Type{
		"n": types.ScalarOf(types.IInt, types.RangeTop),
	}, DefaultConfig())
	if count(p, ir.OpIAdd) == 0 {
		t.Error("integer loop arithmetic missing")
	}
	if count(p, ir.OpCAdd) == 0 {
		t.Error("complex scalar arithmetic missing")
	}
	if count(p, ir.OpFAdd) == 0 {
		t.Error("float arithmetic missing")
	}
}

// Scalar math inlining: sin on a real scalar is an FMath instruction,
// not a builtin dispatch.
func TestScalarMathInlined(t *testing.T) {
	const src = `
function y = f(x)
  y = sin(x) + sqrt(abs(x));
end`
	p := compileFn(t, src, map[string]types.Type{
		"x": types.ScalarOf(types.IReal, types.RangeTop),
	}, DefaultConfig())
	if count(p, ir.OpFMath) < 3 {
		t.Errorf("math functions not inlined:\n%s", p.Disasm())
	}
	if count(p, ir.OpGBuiltin) != 0 {
		t.Errorf("builtin dispatch used for inlinable math:\n%s", p.Disasm())
	}
}

// mcc-style generic compilation: everything through boxed ops.
func TestGenericCompilation(t *testing.T) {
	const src = `
function s = f(a, b)
  s = a*b + a - b;
end`
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fn := file.Funcs[0]
	g := cfg.Build(fn.Body)
	tbl := disambig.Analyze(g, fn.Ins, nil)
	res := infer.Forward(g, map[string]types.Type{"a": types.Top, "b": types.Top},
		infer.Opts{AllTop: true})
	cfgGen := DefaultConfig()
	cfgGen.UnrollSmallVectors = false
	cfgGen.FuseGEMV = false
	p, err := Compile(fn, res, tbl, cfgGen)
	if err != nil {
		t.Fatal(err)
	}
	if count(p, ir.OpGBin) != 3 {
		t.Errorf("generic compile should use 3 boxed ops, got %d:\n%s",
			count(p, ir.OpGBin), p.Disasm())
	}
	if count(p, ir.OpFAdd, ir.OpFMul, ir.OpFSub, ir.OpIAdd, ir.OpIMul) != 0 {
		t.Error("typed scalar ops in an all-⊤ compilation")
	}
}

// Unsupported constructs must fail with ErrUnsupported (the engine falls
// back to interpretation).
func TestUnsupportedFallsBack(t *testing.T) {
	for _, src := range []string{
		"function y = f(x)\n  global g\n  y = g;\nend",
		"function y = f(x)\n  clear x\n  y = 1;\nend",
	} {
		file, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		fn := file.Funcs[0]
		g := cfg.Build(fn.Body)
		tbl := disambig.Analyze(g, fn.Ins, nil)
		res := infer.Forward(g, map[string]types.Type{"x": types.Top}, infer.Opts{})
		_, err = Compile(fn, res, tbl, DefaultConfig())
		if err == nil {
			t.Errorf("%q must fail to compile", src)
			continue
		}
		if _, ok := err.(*ErrUnsupported); !ok {
			t.Errorf("%q: error %T, want *ErrUnsupported", src, err)
		}
	}
}

// Loop unrolling (the optimizing backend's flag) replicates the body.
func TestLoopUnrollGrowsBody(t *testing.T) {
	const src = `
function s = f()
  s = 0;
  for i = 1:100
    s = s + i*i;
  end
end`
	plain := compileFn(t, src, nil, DefaultConfig())
	cfgU := DefaultConfig()
	cfgU.UnrollLoops = 4
	unrolled := compileFn(t, src, nil, cfgU)
	if len(unrolled.Ins) <= len(plain.Ins) {
		t.Errorf("unrolled program not larger: %d vs %d", len(unrolled.Ins), len(plain.Ins))
	}
	// bodies with break must not unroll
	const withBreak = `
function s = f()
  s = 0;
  for i = 1:100
    if i > 50
      break;
    end
    s = s + i;
  end
end`
	a := compileFn(t, withBreak, nil, DefaultConfig())
	b := compileFn(t, withBreak, nil, cfgU)
	if len(a.Ins) != len(b.Ins) {
		t.Error("loop with break must not unroll")
	}
}

// TestTypedCallsUnboxBehindAGuard: a user call typed by a return summary
// continues in registers — fibonacci's sum is an iadd — and takes its
// result through a guarded fetch, with nothing boxed on the way in or
// unboxed on the way out; with no summary the result stays boxed and the
// sum is a generic operator call, but the argument still crosses in its
// register.
func TestTypedCallsUnboxBehindAGuard(t *testing.T) {
	const src = `
function y = f(n)
  if n < 2
    y = n;
  else
    y = f(n - 1) + f(n - 2);
  end
end`
	compile := func(summary types.Type) *ir.Prog {
		file, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		fn := file.Funcs[0]
		g := cfg.Build(fn.Body)
		tbl := disambig.Analyze(g, fn.Ins, disambig.ResolverFunc(func(n string) bool { return n == "f" }))
		res := infer.Forward(g, map[string]types.Type{"n": types.ScalarOf(types.IInt, types.RangeTop)},
			infer.Opts{UserFnType: func(string, []types.Type) types.Type { return summary }})
		prog, err := Compile(fn, res, tbl, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	// guards counts the fetches; unboxes whatever still unboxes.
	guards := func(p *ir.Prog) (guarded, unboxes int) {
		return count(p, ir.OpFetchI, ir.OpFetchF), count(p, ir.OpUnboxI, ir.OpUnboxF)
	}

	typed := compile(types.ScalarOf(types.IInt, types.RangeTop))
	if g, unboxes := guards(typed); g != 2 || unboxes != 0 {
		t.Errorf("typed calls: %d guarded fetches and %d unboxes, want 2 and 0:\n%s", g, unboxes, typed.Disasm())
	}
	if count(typed, ir.OpGBin) != 0 || count(typed, ir.OpIAdd) == 0 {
		t.Errorf("the sum of two typed calls is not an iadd:\n%s", typed.Disasm())
	}
	// y is an I register: both arguments and both returns are staged, and
	// the function boxes nothing at all.
	if st, box := count(typed, ir.OpStageI), count(typed, ir.OpBoxI, ir.OpBoxF); st != 3 || box != 0 {
		t.Errorf("typed calls: %d stage.i and %d boxes, want 3 (two arguments, one output) and 0:\n%s", st, box, typed.Disasm())
	}
	if len(typed.OutRegs) != 1 || typed.OutRegs[0] != ir.Staged {
		t.Errorf("an I-register output is not staged: OutRegs %v", typed.OutRegs)
	}

	boxed := compile(types.Top)
	if g, _ := guards(boxed); g != 0 || count(boxed, ir.OpGBin) != 1 {
		t.Errorf("boxed calls: %d guards, %d generic operators, want 0 and 1:\n%s", g, count(boxed, ir.OpGBin), boxed.Disasm())
	}
	if st := count(boxed, ir.OpStageI); st != 2 {
		t.Errorf("boxed results: %d staged arguments, want 2:\n%s", st, boxed.Disasm())
	}

	real := compile(types.ScalarOf(types.IReal, types.RangeTop))
	if g, _ := guards(real); g != 2 || count(real, ir.OpFAdd) == 0 {
		t.Errorf("real summary: %d guards, %d fadd:\n%s", g, count(real, ir.OpFAdd), real.Disasm())
	}
}
