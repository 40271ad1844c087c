package core

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/mat"
)

// complexPrograms read single elements of complex arrays: in the three
// forms each of a 1-D and a 2-D read takes (cld*u proven in bounds, cld*i
// with I subscripts, cld* with F subscripts), with −0, NaN and infinite
// parts, from real data under a complex annotation (eig of a symmetric
// matrix), and where the element is boxed unchanged — a builtin's
// argument, a returned value, a negation — and must keep the Complex kind
// the interpreter's read gives it even when its imaginary part is 0.
// TestComplexReads holds them to the interpreter's bits and kinds.
var complexPrograms = []diffProg{
	{name: "complex_read_1d_unchecked", src: `
function r = f()
  z = [1+2i, 3, -0i, conj(0i), NaN*1i, sqrt(-Inf)];
  s = 0;
  for k = 1:4
    s = s + z(k)*(k + 1i);
  end
  r = [s, 1/real(z(3)), 1/imag(z(3)), 1/imag(z(4)), real(z(5)), imag(z(5)), abs(z(6)), imag(z(6))];
end`},
	{name: "complex_read_1d_ibank", args: []float64{3}, src: `
function r = f(n)
  z = [1+2i, 3, -0i];
  m = numel(find(ones(1, n)));
  s = 0;
  for k = 1:m
    s = s + abs(z(k)) + real(z(k))*imag(z(k));
  end
  r = [s, 1/real(z(m)), 1/imag(z(m))];
end`},
	{name: "complex_read_1d_checked", args: []float64{4}, noOSR: true, src: `
function r = f(n)
  z = [1+2i, 3-1i, 2i];
  x = n/2;
  r = real(z(x)) + 10*imag(z(x)) + abs(z(x - 1)) + z(x + 1)*z(x + 1);
end`},
	{name: "complex_read_2d", args: []float64{2}, src: `
function r = f(n)
  Z = [1+1i, 2; 3, 4i];
  s = 0;
  for a = 1:2
    for b = 1:2
      s = s + Z(a, b)*Z(b, a);
    end
  end
  m = numel(find(ones(1, n)));
  for a = 1:m
    s = s + abs(Z(a, m)) + imag(Z(m, a));
  end
  h = n/2;
  r = s + real(Z(h, h + 1))*2 - Z(h + 1, h)*1i;
end`},
	{name: "complex_read_real_data", src: `
function r = f()
  A = [2 1 0; 1 2 1; 0 1 2];
  e = eig(A);
  s = 0;
  for k = 1:3
    s = s + abs(e(k))^0.5 + e(k)*2;
  end
  w = e(2);
  r = [s, isreal(e(1)), isreal(w), isreal(s), isreal(-e(3))];
end`},
	{name: "complex_isreal_loop", src: `
function r = f()
  z = [1+2i, 3, -0-0i];
  r = 0;
  for k = 1:3
    r = r + isreal(z(k));
  end
end`},
	{name: "complex_element_returned", args: []float64{2}, noOSR: true, src: `
function r = f(k)
  r = g(k);
end
function r = g(k)
  z = [1+2i, 3, -0-0i];
  r = z(k);
end`},
	{name: "complex_parameter_returned", noOSR: true, src: `
function r = f()
  y = [1+2i 3];
  r = isreal(id(y(2))) + 10*isreal(id(y(1))) + 100*isreal(twice(y(2)));
end
function r = id(x)
  r = x;
end
function r = twice(x)
  r = x + x;
end`},
	{name: "complex_kind_kept_through_unary", noOSR: true, src: `
function r = f()
  z = [1+2i, 3];
  w = z(2);
  v = 0i;
  r = isreal(-z(2)) + 10*isreal(-w) + 100*isreal(z(2)') + 1e3*isreal(w*1) + ...
      1e4*isreal(conj(z(2))) + 1e5*isreal(v) + 1e6*isreal(-v);
end`},
}

// complexErrors read out of range or at a non-integer through each
// checked form: every tier fails as the interpreter does.
var complexErrors = []struct {
	diffProg
	msg string
}{
	{diffProg{name: "cld1i_out_of_range", args: []float64{3}, src: `
function r = f(n)
  z = [1+2i, 3];
  r = abs(z(numel(find(ones(1, n)))));
end`}, "index exceeds matrix dimensions"},
	{diffProg{name: "cld1_out_of_range", args: []float64{6}, src: `
function r = f(n)
  z = [1+2i, 3];
  r = abs(z(n/2));
end`}, "index exceeds matrix dimensions"},
	{diffProg{name: "cld1_not_an_integer", args: []float64{3}, src: `
function r = f(n)
  z = [1+2i, 3];
  r = abs(z(n/2));
end`}, "subscript indices must be positive integers"},
	{diffProg{name: "cld2i_out_of_range", args: []float64{3}, src: `
function r = f(n)
  Z = [1+1i, 2; 3, 4i];
  r = abs(Z(numel(find(ones(1, n))), 1));
end`}, "index exceeds matrix dimensions"},
	{diffProg{name: "cld2_not_an_integer", args: []float64{3}, src: `
function r = f(n)
  Z = [1+1i, 2; 3, 4i];
  r = abs(Z(1, n/2));
end`}, "subscript indices must be positive integers"},
}

// TestComplexReads holds complexPrograms to the interpreter bit for bit,
// kind included, under every compiling tier on both platforms and under a
// tiered engine, and checks that between them they compile every one of
// the six complex loads.
func TestComplexReads(t *testing.T) {
	for _, p := range complexPrograms {
		t.Run(p.name, func(t *testing.T) { bitIdenticalAcrossTiers(t, p) })
	}
	seen := map[ir.Op]bool{}
	for _, p := range complexPrograms {
		for op := range jitOps(t, p) {
			seen[op] = true
		}
	}
	for _, op := range []ir.Op{ir.OpCLd1, ir.OpCLd1I, ir.OpCLd1U, ir.OpCLd2, ir.OpCLd2I, ir.OpCLd2U} {
		if !seen[op] {
			t.Errorf("no program compiles a %v", op)
		}
	}
}

// jitOps calls p's f once under the JIT and returns the opcodes of every
// body the call compiled.
func jitOps(t *testing.T, p diffProg) map[ir.Op]bool {
	t.Helper()
	e := New(Options{Tier: TierJIT})
	defer e.Close()
	if err := e.Define(p.src); err != nil {
		t.Fatal(err)
	}
	args := make([]*mat.Value, len(p.args))
	for i, a := range p.args {
		args[i] = mat.Scalar(a)
	}
	e.Call("f", args, 1) // an error program fails after compiling
	ops := map[ir.Op]bool{}
	for _, fn := range e.Functions() {
		for _, en := range e.Repo().Entries(fn) {
			if en.Code != nil {
				for _, in := range en.Code.P.Ins {
					ops[in.Op] = true
				}
			}
		}
	}
	return ops
}

// TestComplexReadErrors: a complex read out of bounds or at a fractional
// subscript fails in every tier, with the interpreter's words, through
// the checked form it compiles to.
func TestComplexReadErrors(t *testing.T) {
	for _, c := range complexErrors {
		t.Run(c.name, func(t *testing.T) {
			args := make([]*mat.Value, len(c.args))
			for i, a := range c.args {
				args[i] = mat.Scalar(a)
			}
			check := func(label string, e *Engine) {
				t.Helper()
				_, err := e.Call("f", args, 1)
				if err == nil || !strings.Contains(err.Error(), c.msg) {
					t.Errorf("%s: error %v, want one saying %q", label, err, c.msg)
				}
			}
			for _, tier := range append([]Tier{TierInterp}, allTiers...) {
				for _, platform := range []Platform{PlatformSPARC, PlatformMIPS} {
					e := New(Options{Tier: tier, Platform: platform})
					if err := e.Define(c.src); err != nil {
						t.Fatal(err)
					}
					check(tier.String()+"/"+platform.String(), e)
					e.Close()
				}
			}
			e := newTiered(t)
			if err := e.Define(c.src); err != nil {
				t.Fatal(err)
			}
			for call := 0; call < DefaultTierThreshold+2; call++ {
				check("tiered", e)
				e.Drain()
			}
			ops := jitOps(t, c.diffProg)
			if !ops[ir.OpCLd1] && !ops[ir.OpCLd1I] && !ops[ir.OpCLd2] && !ops[ir.OpCLd2I] {
				t.Errorf("the JIT compiled no checked complex load")
			}
		})
	}
}

// TestComplexArgumentKeepsKind: a complex scalar whose imaginary part is
// 0 passes through a compiled function unchanged, kind included, when it
// arrives from outside (the boxed boundary) in every tier.
func TestComplexArgumentKeepsKind(t *testing.T) {
	const src = `
function r = id(x)
  r = x;
end`
	for _, tier := range append([]Tier{TierInterp}, allTiers...) {
		e := New(Options{Tier: tier})
		if err := e.Define(src); err != nil {
			t.Fatal(err)
		}
		for call := 0; call < 3; call++ {
			outs, err := e.Call("id", []*mat.Value{mat.ComplexScalar(3)}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if outs[0].Kind() != mat.Complex {
				t.Errorf("%s call %d: id(complex(3, 0)) came back %v", tier, call, outs[0].Kind())
			}
		}
		e.Close()
	}
}
