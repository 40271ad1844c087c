package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/mat"
)

// differential programs: each defines a function f taking no arguments
// (or specified args) and returning one value; every execution tier
// must agree with the interpreter.
type diffProg struct {
	name string
	src  string
	args []float64 // scalar args for f
	// noOSR marks a program that runs no loop iteration of its own, so
	// a tiered activation never reaches the threshold to transfer at.
	noOSR bool
}

var diffPrograms = []diffProg{
	{name: "scalar_loop", src: `
function s = f()
  s = 0;
  for i = 1:100
    s = s + i*i;
  end
end`},
	{name: "nested_loops_array", src: `
function s = f()
  A = zeros(20, 20);
  for i = 1:20
    for j = 1:20
      A(i,j) = i*10 + j;
    end
  end
  s = 0;
  for i = 1:20
    for j = 1:20
      s = s + A(i,j);
    end
  end
end`},
	{name: "while_loop", src: `
function s = f()
  s = 1;
  k = 0;
  while k < 30
    k = k + 1;
    s = s + 1/k;
  end
end`},
	{name: "if_chain", src: `
function s = f()
  s = 0;
  for i = 1:50
    if mod(i, 3) == 0
      s = s + i;
    elseif mod(i, 5) == 0
      s = s - i;
    else
      s = s + 1;
    end
  end
end`},
	{name: "break_continue", src: `
function s = f()
  s = 0;
  for i = 1:100
    if i > 40
      break;
    end
    if mod(i, 2) == 0
      continue;
    end
    s = s + i;
  end
end`},
	{name: "vector_ops", src: `
function s = f()
  v = [1 2 3];
  w = [4 5 6];
  u = v + w;
  z = v .* w;
  s = sum(u) + sum(z) + dot(v, w);
end`},
	{name: "growth", src: `
function s = f()
  v = [];
  for i = 1:50
    v(i) = i*i;
  end
  s = sum(v) + length(v);
end`},
	{name: "growth_2d", src: `
function s = f()
  A = zeros(2,2);
  A(5, 7) = 3;
  s = numel(A) + A(5,7) + size(A,1)*100 + size(A,2);
end`},
	{name: "range_index", src: `
function s = f()
  v = 1:100;
  w = v(10:20);
  s = sum(w) + v(end) + w(end-3);
end`},
	{name: "colon_index", src: `
function s = f()
  A = zeros(5,5);
  for i = 1:5
    for j = 1:5
      A(i,j) = i + j*j;
    end
  end
  c = A(:,3);
  r = A(2,:);
  s = sum(c) + sum(r) + sum(A(:));
end`},
	{name: "matmul", src: `
function s = f()
  A = [1 2; 3 4];
  B = [5 6; 7 8];
  C = A*B;
  s = C(1,1) + C(1,2) + C(2,1) + C(2,2) + det(A);
end`},
	{name: "matvec_gemv", src: `
function s = f()
  n = 30;
  A = zeros(n, n);
  for i = 1:n
    for j = 1:n
      A(i,j) = 1/(i+j);
    end
  end
  x = ones(n, 1);
  b = A*x;
  r = b - A*x;
  q = b + A*x;
  s = norm(r) + sum(b) + sum(q);
end`},
	{name: "matvec_gemv_trans", src: `
function s = f()
  n = 31;
  A = zeros(n, n);
  for i = 1:n
    for j = 1:n
      A(i,j) = 1/(i+2*j) - 0.01*j;
    end
  end
  A(3,5) = -0;
  x = ones(n, 1);
  x(4) = -0;
  y = (1:n)'/7;
  a = A'*x;
  b = y - A'*x;
  c = A'*x + y;
  d = A.'*x - y;
  p = x/3;
  e = p'*y;
  S = sparse(A);
  g = S'*x;
  s = sum(a) + sum(b) + sum(c) + sum(d) + e + sum(g);
end`},
	{name: "complex_scalar", src: `
function s = f()
  z = 0;
  c = -0.4 + 0.6i;
  k = 0;
  for iter = 1:50
    z = z*z + c;
    if abs(z) > 2
      break;
    end
    k = k + 1;
  end
  s = k + real(z) + imag(z);
end`},
	{name: "complex_funcs", src: `
function s = f()
  z = exp(i*pi/4);
  w = sqrt(-9);
  s = real(z)*1000 + imag(z)*100 + imag(w) + abs(z');
end`},
	{name: "recursion", src: `
function s = f()
  s = fib(15);
end
function y = fib(n)
  if n < 2
    y = n;
  else
    y = fib(n-1) + fib(n-2);
  end
end`},
	{name: "helper_inline", src: `
function s = f()
  s = 0;
  for k = 1:20
    s = s + sq(k) - cube(k)/10;
  end
end
function y = sq(x)
  y = x*x;
end
function y = cube(x)
  y = x*x*x;
end`},
	{name: "multiout", src: `
function s = f()
  [m, idx] = max([3 1 4 1 5 9 2 6]);
  [r, c] = size(zeros(3, 7));
  s = m*1000 + idx*100 + r*10 + c;
end`},
	{name: "builtins_mix", src: `
function s = f()
  v = linspace(0, pi, 21);
  s = 0;
  for k = 1:21
    s = s + sin(v(k)) * cos(v(k)/2);
  end
  s = s + floor(2.7) + ceil(-1.2) + round(0.5) + fix(-3.9) + sign(-7);
end`},
	{name: "transpose_ops", src: `
function s = f()
  A = [1 2 3; 4 5 6];
  B = A';
  v = [1; 2; 3];
  w = v'*v;
  s = B(3,2) + w + sum(sum(A*B));
end`},
	{name: "logical_ops", src: `
function s = f()
  s = 0;
  for a = 0:1
    for b = 0:1
      s = s + (a & b) + 2*(a | b) + 4*xorlike(a, b) + 8*(~a);
    end
  end
end
function y = xorlike(a, b)
  y = (a | b) & ~(a & b);
end`},
	{name: "strings", src: `
function s = f()
  msg = 'hello';
  s = length(msg) + double_first(msg);
end
function y = double_first(m)
  y = m(1) + 0;
end`},
	{name: "rand_stream", src: `
function s = f()
  s = 0;
  for k = 1:100
    r = rand;
    if r < 0.5
      s = s + r;
    else
      s = s - r/2;
    end
  end
end`},
	{name: "small_vec_unroll", src: `
function s = f()
  p = [1 2];
  v = [0.5 -0.5];
  s = 0;
  for k = 1:100
    p = p + v;
    v = v * 0.99;
    s = s + p(1) - p(2);
  end
end`},
	{name: "linear_solve", src: `
function s = f()
  A = [4 1 0; 1 4 1; 0 1 4];
  b = [6; 12; 14];
  x = A \ b;
  s = x(1)*100 + x(2)*10 + x(3) + norm(A*x - b);
end`},
	{name: "eig_sym", src: `
function s = f()
  A = [2 1; 1 2];
  e = eig(A);
  s = e(1)*10 + e(2);
end`},
	{name: "negative_step", src: `
function s = f()
  s = 0;
  for i = 10:-2:1
    s = s*10 + i;
  end
end`},
	{name: "float_step", src: `
function s = f()
  s = 0;
  for t = 0:0.1:1
    s = s + t;
  end
end`},
	{name: "switch_stmt", src: `
function s = f()
  s = 0;
  for i = 1:10
    switch mod(i, 3)
    case 0
      s = s + 100;
    case 1
      s = s + 10;
    otherwise
      s = s + 1;
    end
  end
end`},
	{name: "args_scalar", src: `
function y = f(a, b)
  y = 0;
  for i = 1:50
    y = y + a*i + b;
  end
end`, args: []float64{3, 7}},
	{name: "args_shape_growth", src: `
function y = f(n)
  A = zeros(n, n);
  for i = 1:n
    for j = 1:n
      A(i,j) = i - j;
    end
  end
  y = sum(A(:)) + A(n,n) + A(1,n);
end`, args: []float64{12}},
	{name: "end_arith", src: `
function s = f()
  v = 1:20;
  s = v(end) + v(end-1) + v(end-18);
  A = [1 2 3; 4 5 6];
  s = s + A(end, end) + A(1, end-1);
end`},
	{name: "shortcircuit", src: `
function s = f()
  s = 0;
  v = [1 2 3];
  for i = 1:5
    if i <= 3 && v(min(i,3)) > 1
      s = s + 1;
    end
    if i > 4 || i < 2
      s = s + 10;
    end
  end
end`},
	{name: "oversize_growth", src: `
function s = f()
  v = zeros(1, 1);
  for i = 1:200
    v(i) = mod(i, 7);
  end
  s = sum(v) + length(v);
end`},
	{name: "ack_like", src: `
function s = f()
  s = ack(2, 3);
end
function y = ack(m, n)
  if m == 0
    y = n + 1;
  elseif n == 0
    y = ack(m-1, 1);
  else
    y = ack(m-1, ack(m, n-1));
  end
end`},
	{name: "matrix_literal_rows", src: `
function s = f()
  a = 1; b = 2;
  M = [a b; b a];
  N = [M; 2*M];
  s = sum(N(:)) + N(4,2) + size(N,1);
end`},
	{name: "elem_pow", src: `
function s = f()
  v = [1 2 3 4];
  w = v.^2;
  u = 2.^v;
  s = sum(w) + sum(u) + 2^10 + (-2)^3;
end`},
	{name: "complex_vectors", src: `
function s = f()
  v = [1+2i, 3-1i, 2i];
  w = v * 2;
  u = v + w;
  t = v .* w;
  s = real(sum(u)) + imag(sum(t)) + abs(v(2));
end`},
	{name: "string_ops", src: `
function s = f()
  msg = sprintf('%d-%d', 4, 2);
  s = length(msg) + (msg(2) - msg(1));
end`},
	{name: "reshape_repmat_find", src: `
function s = f()
  A = reshape(1:12, 3, 4);
  B = repmat([1 2], 2, 2);
  idx = find(A > 6);
  s = A(2,3) + sum(B(:)) + sum(idx) + numel(idx);
end`},
	{name: "nargin_fallback", src: `
function s = f()
  s = h(1, 2) + h(1, 2);
end
function y = h(a, b)
  y = nargin * 10 + a + b;
end`},
	{name: "sort_multiout", src: `
function s = f()
  [v, idx] = sort([3 1 2]);
  s = v(1)*100 + idx(1)*10 + v(3);
end`},
	{name: "triangular", src: `
function s = f()
  A = reshape(1:9, 3, 3);
  L = tril(A);
  U = triu(A, 1);
  s = sum(L(:)) * 100 + sum(U(:)) + det(eye(3));
end`},
	{name: "dotops_vectors", src: `
function s = f()
  v = 1:6;
  w = v ./ (v + 1);
  u = (v + 1) .\ v;
  z = v .^ 0.5;
  s = sum(w) + sum(u) + sum(z);
end`},
	{name: "while_matrix_update", src: `
function s = f()
  A = eye(3);
  k = 0;
  while sum(A(:)) < 30
    A = A + A';
    k = k + 1;
  end
  s = k + sum(A(:));
end`},
	// A callee's builtin or user call must not be captured by a caller
	// variable of the same name once the callee is spliced in.
	{name: "inline_capture_builtin", args: []float64{2}, src: `
function r = f(x)
  sum = [5 6 7];
  r = g(x) + sum(1);
end
function z = g(a)
  z = sum(a)*2;
end`},
	{name: "inline_capture_user", args: []float64{2}, src: `
function r = f(x)
  h = [5 6 7];
  r = g(x) + h(1);
end
function z = g(a)
  z = h(a)*2;
end
function y = h(b)
  % return: h itself is never spliced
  y = b*10 + 3;
  return
end`},
	// && and || as values, not branch conditions: the right operand runs
	// only when the left one does not decide, so v(0) is never indexed.
	{name: "and_value_short_circuits", args: []float64{0}, src: `
function a = f(n)
  v = [1 2 3];
  a = n > 0 && v(n) > 1;
end`},
	{name: "or_value_short_circuits", args: []float64{0}, src: `
function a = f(n)
  v = [1 2 3];
  a = n < 1 || v(n) > 1;
end`},
	{name: "and_value_accumulates", src: `
function s = f()
  s = 0;
  for i = 1:10
    t = i > 2 && mod(i, 2) == 1;
    s = s + t;
  end
end`},
	// x^y of two reals is complex only for a negative base and a
	// non-integral exponent, also once pw holds code for (int, real):
	// r(k + 5) flags an imaginary part the interpreter does not make.
	{name: "real_pow_keeps_the_scalar_rule", src: `
function r = f()
  xs = [-2, -3, 2, -1, -2];
  ys = [2.5, 2, Inf, Inf, 3];
  r = zeros(1, 10);
  for k = 1:5
    z = pw(xs(k), ys(k));
    r(k) = real(z);
    r(k + 5) = imag(z) ~= 0;
  end
end
function z = pw(x, y)
  z = x^y;
end`},
	// Integral results past 2^53 are doubles, never wrapped int64s.
	{name: "int_product_past_2p53", args: []float64{3e18, 4}, src: `
function r = f(x, y)
  r = x*y + 1;
end`},
	{name: "int_power_past_2p53", args: []float64{3, 40}, src: `
function r = f(x, y)
  r = x^y + 1;
end`},
	{name: "int_literal_past_2p53", src: `
function r = f()
  r = 30000000000000000000 + 1;
end`},
}

// loopPrograms pin what a for loop means, whichever way it is lowered
// (DESIGN §19): where the variable is left — after a normal exit, a break,
// an empty range — what a body that assigns the variable or the bound's
// source does, steps of every sign and kind, float ranges, bounds where
// float64 runs out of integers, a variable name reused across a nest.
// They ride in diffPrograms (every tier, platform, ablation, the
// ownership hook) and TestLoopSemantics holds them to the interpreter's
// bits.
var loopPrograms = []diffProg{
	{name: "loop_var_after_normal_exit", src: `
function r = f()
  s = 0;
  for i = 1:7
    s = s + i;
  end
  r = [i s];
end`},
	{name: "loop_var_after_break", src: `
function r = f()
  s = 0;
  for i = 1:100
    if i > 4
      break;
    end
    s = s + i;
  end
  for k = 10:-1:1
    if k < 7
      break;
    end
  end
  r = [i s k];
end`},
	{name: "loop_empty_range_keeps_var", args: []float64{0}, noOSR: true, src: `
function r = f(n)
  i = 42; j = 43; k = 44; x = 45;
  for i = 5:1
    i = -1;
  end
  for j = 1:n
    j = -1;
  end
  for k = 1:-1:n+2
    k = -1;
  end
  for x = 0.5:0.25:n
    x = -1;
  end
  r = [i j k x];
end`},
	{name: "loop_body_assigns_var", src: `
function r = f()
  s = 0; t = 0;
  for i = 1:5
    s = s + i;
    i = i * 10;
    t = t + i;
  end
  for k = 3:-1:1
    k = k + 0.5;
    t = t + k;
  end
  r = [i s t k];
end`},
	{name: "loop_body_changes_bound_source", args: []float64{5}, src: `
function r = f(n)
  s = 0;
  st = 1;
  for i = 1:st:n
    n = n + 3;
    st = st + 1;
    s = s + i;
  end
  r = [i n s st];
end`},
	{name: "loop_bound_is_the_variable", src: `
function r = f()
  i = 4; s = 0;
  for i = 1:i
    s = s + i;
  end
  k = 2;
  for k = k:k+3
    s = s + k;
  end
  r = [i k s];
end`},
	{name: "loop_continue", src: `
function r = f()
  s = 0;
  for i = 1:10
    if mod(i, 3) == 0
      continue;
    end
    s = s + i;
  end
  r = [i s];
end`},
	{name: "loop_negative_steps", args: []float64{9}, src: `
function r = f(n)
  s = 0; t = 0;
  for i = n:-1:1
    s = s*2 + i;
  end
  for k = 20:-3:n
    t = t*2 + k;
  end
  for m = -n:-2:-13
    t = t + m;
  end
  r = [i s k t m];
end`},
	{name: "loop_zero_step", noOSR: true, src: `
function r = f()
  i = 7; s = 0; z = 0;
  for i = 1:0:5
    s = s + 1;
  end
  for k = 1:z:5
    s = s + 1;
  end
  r = [i s];
end`},
	{name: "loop_step_from_argument_up", args: []float64{3}, src: `
function r = f(st)
  s = 0;
  for i = 1:st:20
    s = s*3 + i;
  end
  for k = 20:-st:1
    s = s + k;
  end
  r = [i k s];
end`},
	{name: "loop_step_from_argument_down", args: []float64{-4}, src: `
function r = f(st)
  s = 0; i = 0;
  for i = 1:st:20
    s = s + 1;
  end
  for k = 20:st:1
    s = s*3 + k;
  end
  r = [i k s];
end`},
	{name: "loop_float_ranges", src: `
function r = f()
  s = 0; t = 0;
  for x = 0:0.1:1
    s = s + x;
  end
  for y = 1:-0.25:0
    t = t*2 + y;
  end
  for z = 0.5:3
    t = t + z;
  end
  r = [x s y t z];
end`},
	{name: "loop_bounds_at_2_pow_53", src: `
function r = f()
  p = 2^53;
  s = 0; t = 0;
  for i = p-2:p
    s = s + (i - (p - 3));
  end
  for k = -p:-p+2
    t = t + (k + p + 1);
  end
  for m = p:-1:p-2
    t = t*2 + (p - m);
  end
  r = [i s k t m];
end`},
	{name: "loop_var_reused_across_a_nest", src: `
function s = f()
  n = 12;
  U = zeros(n, n);
  V = zeros(1, n);
  for i = 1:n
    U(i,1) = i;
  end
  for j = 2:n
    for i = 2:n-1
      V(i) = U(i-1,j-1) + U(i+1,j-1) + 0.5*U(i,j-1);
    end
    for i = n-1:-1:1
      V(i) = V(i) - 0.25*V(i+1);
    end
    for i = 1:n
      U(i,j) = V(i)/4;
    end
  end
  s = 0;
  for i = 1:n
    s = s + U(i,n);
  end
end`},
}

// signedZeroPrograms take −0 into compiled code: as an argument, which
// the function locator types (types.OfScalar), and as the result of a
// rounding builtin, a negation or a product of integers (infer's rules).
// IInt means integral and not −0, so each stays in F registers and 1/x
// keeps its sign.
var signedZeroPrograms = []diffProg{
	{name: "signed_zero_argument", args: []float64{math.Copysign(0, -1)}, src: `
function r = f(x)
  r = 1/x;
end`},
	{name: "signed_zero_ceil", args: []float64{-0.5}, src: `
function r = f(x)
  b = ceil(x);
  r = 1/b;
end`},
	{name: "signed_zero_negation", args: []float64{0}, src: `
function r = f(x)
  y = -x;
  r = 1/y;
end`},
	{name: "signed_zero_product", args: []float64{0, -3}, src: `
function r = f(x, y)
  z = x*y;
  r = 1/z;
end`},
	{name: "signed_zero_elementwise_product", args: []float64{-2, 0}, src: `
function r = f(x, y)
  z = x.*y;
  r = 1/z;
end`},
}

func init() {
	diffPrograms = append(diffPrograms, loopPrograms...)
	diffPrograms = append(diffPrograms, signedZeroPrograms...)
}

var allTiers = []Tier{TierMCC, TierFalcon, TierJIT, TierSpec}

func runTier(t *testing.T, p diffProg, tier Tier, platform Platform) *mat.Value {
	t.Helper()
	e := New(Options{Tier: tier, Platform: platform, Seed: 12345})
	if err := e.Define(p.src); err != nil {
		t.Fatalf("[%s/%s] define: %v", p.name, tier, err)
	}
	e.Precompile()
	args := make([]*mat.Value, len(p.args))
	for i, a := range p.args {
		args[i] = mat.Scalar(a)
	}
	outs, err := e.Call("f", args, 1)
	if err != nil {
		t.Fatalf("[%s/%s] call: %v", p.name, tier, err)
	}
	if len(outs) == 0 {
		t.Fatalf("[%s/%s] no output", p.name, tier)
	}
	return outs[0]
}

// sameBitsAnyKind reports whether a and b have the same shape and the
// same float bits in every element, a missing imaginary part reading as
// +0. The kind tag is not compared: compiled code and the interpreter
// may still tag one value double, int or logical differently.
func sameBitsAnyKind(a, b *mat.Value) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	ar, br := a.Re(), b.Re()
	for i := range ar {
		if math.Float64bits(ar[i]) != math.Float64bits(br[i]) {
			return false
		}
	}
	ai, bi := a.Im(), b.Im()
	for i := 0; i < a.Numel(); i++ {
		var x, y float64
		if ai != nil {
			x = ai[i]
		}
		if bi != nil {
			y = bi[i]
		}
		if math.Float64bits(x) != math.Float64bits(y) {
			return false
		}
	}
	return true
}

// TestTiersMatchInterpreter is the central differential test: every
// compilation tier must produce the interpreter's results on every
// program, on both platform profiles.
func TestTiersMatchInterpreter(t *testing.T) {
	for _, p := range diffPrograms {
		p := p
		t.Run(p.name, func(t *testing.T) {
			want := runTier(t, p, TierInterp, PlatformSPARC)
			for _, tier := range allTiers {
				for _, platform := range []Platform{PlatformSPARC, PlatformMIPS} {
					got := runTier(t, p, tier, platform)
					if !sameBitsAnyKind(want, got) {
						t.Errorf("tier %s/%s: got %s, want %s", tier, platform, got, want)
					}
				}
			}
		})
	}
}

// TestLoopSemantics holds loopPrograms to the interpreter bit for bit:
// under every compiling tier on both platforms (the unroll factors 2 and
// 4), and under a tiered engine, whose first calls interpret, transfer
// into a continuation at the second iteration of the program's first
// loop (warmBackEdges) and then run promoted code.
func TestLoopSemantics(t *testing.T) {
	for _, p := range loopPrograms {
		p := p
		t.Run(p.name, func(t *testing.T) { bitIdenticalAcrossTiers(t, p) })
	}
}

// bitIdenticalAcrossTiers holds one program to the interpreter's bits
// under every way the engine can run it.
func bitIdenticalAcrossTiers(t *testing.T, p diffProg) {
	t.Helper()
	want := []*mat.Value{runTier(t, p, TierInterp, PlatformSPARC)}
	for _, tier := range allTiers {
		for _, platform := range []Platform{PlatformSPARC, PlatformMIPS} {
			payloadEqual(t, tier.String()+"/"+platform.String(), want, []*mat.Value{runTier(t, p, tier, platform)})
		}
	}
	e := newTiered(t)
	if err := e.Define(warmBackEdges(p.src)); err != nil {
		t.Fatal(err)
	}
	args := make([]*mat.Value, len(p.args))
	for i, a := range p.args {
		args[i] = mat.Scalar(a)
	}
	for call := 0; call < DefaultTierThreshold+2; call++ {
		outs, err := e.Call("f", args, 1)
		if err != nil {
			t.Fatalf("tiered call %d: %v", call, err)
		}
		payloadEqual(t, "tiered", want, outs)
		e.Drain()
	}
	if n := e.ProfileStats().OSRTransfers; (n > 0) == p.noOSR {
		t.Fatalf("tiered: %d OSR transfers (noOSR %v)", n, p.noOSR)
	}
}

// warmBackEdges prefixes the first function of src with a loop of
// DefaultTierThreshold-2 empty iterations. A tiered activation counts
// back-edges across all its loops, so it then crosses the threshold at
// the second iteration of the program's own first loop: the transfer
// lands mid-loop in the shape under test, however short its loops are.
func warmBackEdges(src string) string {
	i := strings.Index(src, "function ")
	i += strings.IndexByte(src[i:], '\n') + 1
	return src[:i] + fmt.Sprintf("  for warmup = 1:%d\n  end\n", DefaultTierThreshold-2) + src[i:]
}

// TestConstantBitPatterns: literals are interned by bit pattern and by
// bank (ir.Prog.FConst), so the constants a program can tell apart stay
// apart in every tier — 0 and -0 (1/x tells), the integer 1 and the real
// 1.0, NaN, both infinities — and folding them at compile time gives the
// interpreter's bits. nz holds -0 across the loop, so it is live at the
// OSR transfer in its second iteration (warmBackEdges), where it arrives
// as a parameter, and it crosses a user call both ways: types.OfScalar
// types it real, never int.
func TestConstantBitPatterns(t *testing.T) {
	bitIdenticalAcrossTiers(t, diffProg{name: "constant_bit_patterns", src: `
function r = f()
  z = 0.0; q = NaN; p = Inf; m = -Inf; one = 1; fone = 1.0;
  nz = -0.0;
  s = 0;
  for k = 1:3
    s = s + 1/z + 1/-0.0*0 + fone/3 + one/3 + 0.1*3 + 2^0.5;
    z = 0.0;
  end
  r = [1/z 1/nz 1/same(nz) q p m one/2 fone/2 0.1+0.2 3*0.1 -0.0*1 s -(0.0) 1e308*10 -1e308*10];
end
function y = same(x)
  y = x;
end`})
}

// TestLoopSemanticsOSR transfers into a counted loop mid-run: the
// continuation's own loop is the integer-counted lowering, the variable
// it rebinds is used after the loop, and a nested loop and a later
// sibling reuse it.
func TestLoopSemanticsOSR(t *testing.T) {
	const src = `
function r = osrloop(n)
  s = 0;
  for i = 1:n
    s = s + i * 0.5;
    for k = 1:3
      s = s + k;
    end
  end
  t = i;
  for i = n:-2:1
    t = t + i;
  end
  r = [s t i k];
end`
	e := newTiered(t)
	if err := e.Define(src); err != nil {
		t.Fatal(err)
	}
	want := mustInterp(t, e, "osrloop", 300)
	got := osrOnce(t, e, "osrloop", 300)
	payloadEqual(t, "for OSR", []*mat.Value{want}, []*mat.Value{got})
}

// TestLoopVarReuseKeepsChecksOff is §2.4 on the crnich shape: a function
// that reuses i for sibling loops inside an outer loop still gets every
// access of the nest unchecked, because inside a body the loop variable's
// range is the iteration range whatever the name held before.
func TestLoopVarReuseKeepsChecksOff(t *testing.T) {
	e := New(Options{Tier: TierJIT})
	defer e.Close()
	p := loopPrograms[len(loopPrograms)-1]
	if err := e.Define(p.src); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Call("f", nil, 1); err != nil {
		t.Fatal(err)
	}
	prog := e.Repo().Entries("f")[0].Code.P
	count := func(ops ...ir.Op) (n int) {
		for _, in := range prog.Ins {
			for _, op := range ops {
				if in.Op == op {
					n++
				}
			}
		}
		return n
	}
	if n := count(ir.OpFLd1, ir.OpFLd1I, ir.OpFLd2, ir.OpFLd2I, ir.OpFSt1, ir.OpFSt1I, ir.OpFSt2, ir.OpFSt2I); n != 0 {
		t.Errorf("%d checked accesses in a nest whose subscripts are all provably in bounds:\n%s", n, prog.Disasm())
	}
	if count(ir.OpFLd2U) < 3 || count(ir.OpFLd1U) < 3 {
		t.Errorf("want the nest's loads as fld2u/fld1u:\n%s", prog.Disasm())
	}
}

// TestAblationsPreserveSemantics checks that no ablation changes
// results, only performance: every Ablation value under jit and spec,
// and fusion alone and beside one.
func TestAblationsPreserveSemantics(t *testing.T) {
	var ablations []Options
	for a := range numAblations {
		ablations = append(ablations, Options{Tier: TierJIT, Ablation: a}, Options{Tier: TierSpec, Ablation: a})
	}
	ablations = append(ablations,
		Options{Tier: TierJIT, FuseElemwise: true},
		Options{Tier: TierSpec, FuseElemwise: true, Ablation: AblateMinShapes})
	for _, p := range diffPrograms {
		p := p
		t.Run(p.name, func(t *testing.T) {
			want := runTier(t, p, TierInterp, PlatformSPARC)
			for i, abl := range ablations {
				abl.Seed = 12345
				e := New(abl)
				if err := e.Define(p.src); err != nil {
					t.Fatalf("ablation %d define: %v", i, err)
				}
				e.Precompile()
				args := make([]*mat.Value, len(p.args))
				for j, a := range p.args {
					args[j] = mat.Scalar(a)
				}
				outs, err := e.Call("f", args, 1)
				if err != nil {
					t.Fatalf("ablation %d: %v", i, err)
				}
				if !sameBitsAnyKind(want, outs[0]) {
					t.Errorf("ablation %+v: got %s, want %s", abl, outs[0], want)
				}
			}
		})
	}
}

// TestRepeatedCallsStable exercises the repository: repeated calls with
// identical and with varying signatures must stay correct (widening).
func TestRepeatedCallsStable(t *testing.T) {
	e := New(Options{Tier: TierJIT, Seed: 7})
	err := e.Define(`
function y = g(n)
  y = 0;
  for i = 1:n
    y = y + i;
  end
end`)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 20; n++ {
		outs, err := e.Call("g", []*mat.Value{mat.Scalar(float64(n))}, 1)
		if err != nil {
			t.Fatalf("g(%d): %v", n, err)
		}
		want := float64(n * (n + 1) / 2)
		if got := outs[0].MustScalar(); got != want {
			t.Fatalf("g(%d) = %g, want %g", n, got, want)
		}
	}
	// Widening must have kicked in: far fewer compiles than calls.
	entries := e.Repo().Entries("g")
	if len(entries) > 3 {
		t.Errorf("repository holds %d versions of g; widening failed", len(entries))
	}
}
