package core

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// Programs exercising the fused elementwise kernel's edge cases: kind
// refinement, runtime broadcasting, complex promotion aborts, NaN/Inf
// propagation, in-place destination reuse, and coexistence with the
// dgemv fusion rule.
var fusionPrograms = []diffProg{
	{name: "chain_inplace", src: `
function s = f()
  n = 300;
  a = (1:n) ./ n;
  b = a + 0.5;
  c = a .* 2;
  x = zeros(1, n);
  for i = 1:20
    x = x + a .* b - c ./ 2;
    x = 2 * x + exp(-b);
  end
  s = sum(x);
end`},
	{name: "int_kinds", src: `
function s = f()
  v = 1:50;
  w = v .* 3 + 1;
  u = w - v .* 2;
  s = sum(w) + sum(u) + u(50);
end`},
	{name: "int_to_real_div", src: `
function s = f()
  v = 1:40;
  w = v ./ 4 + v .* 2;
  s = sum(w);
end`},
	{name: "pow_abort", src: `
function s = f()
  v = -4:1:20;
  a = v .^ 2 + v;
  b = (v - 0.5) .^ 0.5;
  s = sum(a) + sum(real(b)) + sum(imag(b));
end`},
	{name: "sqrt_abort", src: `
function s = f()
  v = -3:0.5:8;
  w = sqrt(v + 1) .* 2;
  s = sum(real(w)) + sum(imag(w));
end`},
	{name: "nan_inf", src: `
function s = f()
  v = [0 1 2 3];
  w = v ./ 0 - v .* 2;
  u = (v - 1) ./ (v - 1) + v;
  s = [w u];
end`},
	{name: "broadcast_scalar_value", src: `
function s = f()
  v = 1:30;
  one = ones(1, 1);
  w = v .* one + v ./ one;
  s = sum(w);
end`},
	{name: "neg_root", src: `
function s = f()
  v = linspace(0, 2, 41);
  w = -(v .* v - v);
  s = sum(w) + w(41);
end`},
	{name: "math_chain", src: `
function s = f()
  t = linspace(0, 1, 101);
  y = sin(t .* 3) + cos(t ./ 2) .* exp(-t);
  s = sum(y);
end`},
	{name: "gemv_plus_elemwise", src: `
function s = f()
  n = 25;
  A = zeros(n, n);
  for i = 1:n
    for j = 1:n
      A(i,j) = 1/(i+j);
    end
  end
  x = ones(n, 1);
  b = A*x;
  r = (b - A*x) .* b + b ./ 2;
  s = sum(r) + norm(b - A*x);
end`},
	{name: "shared_operand_dst", src: `
function s = f()
  a = 1:100;
  a = a + a .* 2 - a ./ 4;
  a = a .* a + a;
  s = sum(a);
end`},
	{name: "empty_vectors", src: `
function s = f()
  e = [];
  w = e + e .* 2;
  s = numel(w) + size(w, 1) + size(w, 2);
end`},
}

// valuesExact demands bit-for-bit identity including the kind tag: the
// fused kernel must reproduce the generic chain exactly, not merely to
// within rounding.
func valuesExact(a, b *mat.Value) bool {
	if a.Kind() != b.Kind() || a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	ar, br := a.Re(), b.Re()
	for i := range ar {
		if math.Float64bits(ar[i]) != math.Float64bits(br[i]) {
			return false
		}
	}
	ai, bi := a.Im(), b.Im()
	if (ai == nil) != (bi == nil) {
		return false
	}
	for i := range ai {
		if math.Float64bits(ai[i]) != math.Float64bits(bi[i]) {
			return false
		}
	}
	return true
}

func runWithOpts(t *testing.T, p diffProg, opts Options) *mat.Value {
	t.Helper()
	opts.Seed = 12345
	e := New(opts)
	if err := e.Define(p.src); err != nil {
		t.Fatalf("[%s] define: %v", p.name, err)
	}
	e.Precompile()
	args := make([]*mat.Value, len(p.args))
	for i, a := range p.args {
		args[i] = mat.Scalar(a)
	}
	outs, err := e.Call("f", args, 1)
	if err != nil {
		t.Fatalf("[%s %+v] call: %v", p.name, opts, err)
	}
	return outs[0]
}

// TestFusionBitIdentical: enabling elementwise fusion must not change a
// single bit of any result — on the fusion edge cases above and on the
// whole differential program suite, across every compiling tier.
func TestFusionBitIdentical(t *testing.T) {
	progs := append(append([]diffProg{}, fusionPrograms...), diffPrograms...)
	for _, p := range progs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			for _, tier := range allTiers {
				want := runWithOpts(t, p, Options{Tier: tier})
				got := runWithOpts(t, p, Options{Tier: tier, FuseElemwise: true})
				if !valuesExact(want, got) {
					t.Errorf("tier %s: fused result diverged: got %s, want %s", tier, got, want)
				}
			}
			// and fused results still agree with the interpreter
			ref := runWithOpts(t, p, Options{Tier: TierInterp})
			got := runWithOpts(t, p, Options{Tier: TierFalcon, FuseElemwise: true})
			if !sameBitsAnyKind(ref, got) {
				t.Errorf("fused falcon diverged from interpreter: got %s, want %s", got, ref)
			}
		})
	}
}
