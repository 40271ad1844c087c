package core

import (
	"strings"
	"testing"

	"repro/internal/mat"
)

// Programs that fail at runtime must fail under every execution tier —
// the paper's safety guarantee ("a wrong guess ... never affects
// program correctness") includes error behaviour.
func TestRuntimeErrorsInAllTiers(t *testing.T) {
	cases := []struct {
		name string
		src  string
		args []float64
		// want, when set, is the message every tier must end its error
		// with: the builtin's own, whatever position a tier prefixes.
		want string
	}{
		{name: "oob_read", src: `
function y = f(n)
  v = zeros(1, 10);
  y = v(n);
end`, args: []float64{11}},
		{name: "oob_zero", src: `
function y = f(n)
  v = zeros(1, 10);
  y = v(n);
end`, args: []float64{0}},
		{name: "fractional_subscript", src: `
function y = f(n)
  v = zeros(1, 10);
  y = v(n + 0.5);
end`, args: []float64{1}},
		{name: "dim_mismatch_add", src: `
function y = f(n)
  a = zeros(2, n);
  b = zeros(3, n);
  c = a + b;
  y = c(1,1);
end`, args: []float64{4}},
		{name: "inner_dim_mismatch", src: `
function y = f(n)
  a = zeros(2, 3);
  b = zeros(2, n);
  c = a * b;
  y = c(1,1);
end`, args: []float64{2}},
		{name: "error_builtin", src: `
function y = f(n)
  if n > 0
    error('bad n');
  end
  y = n;
end`, args: []float64{5}},
		// Malformed builtin calls: an empty or misshapen argument is an
		// error of the call, not a crash of the process.
		{name: "empty_count", want: "linspace: size argument must be a real scalar", src: `
function y = f(n)
  x = linspace(1, n, []);
  y = n;
end`, args: []float64{2}},
		{name: "empty_size", want: "zeros: size argument must be a real scalar", src: `
function y = f(n)
  x = zeros([], n);
  y = n;
end`, args: []float64{2}},
		{name: "empty_reshape", want: "reshape: size argument must be a real scalar", src: `
function y = f(n)
  x = reshape(zeros(1, n), [], n);
  y = n;
end`, args: []float64{2}},
		{name: "empty_dimension", want: "size: dimension must be a real scalar", src: `
function y = f(n)
  y = size(zeros(1, n), []);
end`, args: []float64{2}},
		{name: "empty_norm_p", want: "norm: p must be a real scalar", src: `
function y = f(n)
  y = norm(zeros(1, n), []);
end`, args: []float64{2}},
		{name: "atan2_shapes", want: "matrix dimensions must agree", src: `
function y = f(n)
  a = atan2(ones(1, n), ones(1, n - 1));
  y = a(1);
end`, args: []float64{3}},
		{name: "matrix_linear_growth", src: `
function y = f(n)
  A = zeros(2, 2);
  A(n) = 1;
  y = A(1);
end`, args: []float64{9}},
		// A checked load whose value is never read still faults (the
		// optimiser keeps it).
		{name: "dead_checked_load", src: `
function y = f(n)
  v = zeros(1, 3);
  t = v(n);
  y = n;
end`, args: []float64{5}},
		// No tier indexes by a logical mask yet (DESIGN §6): the mask's
		// 0 is a subscript like any other. This pins today's error, which
		// becomes the selected element when logical indexing lands.
		{name: "logical_mask_subscript", want: "subscript indices must be positive integers (got 0)", src: `
function y = f(n)
  v = [10 20];
  y = v([1 2] > n);
end`, args: []float64{1}},
		// A case value is evaluated only when the cases before it do not
		// match; a switch without a case still evaluates its subject.
		{name: "switch_case_value_errors", src: `
function y = f(n)
  v = zeros(1, 3);
  switch n
  case 1
    y = 1;
  case v(n)
    y = 2;
  otherwise
    y = 3;
  end
end`, args: []float64{5}},
		{name: "switch_without_case_subject_errors", src: `
function y = f(n)
  v = zeros(1, 3);
  switch v(n)
  otherwise
    y = 1;
  end
  y = n;
end`, args: []float64{5}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, tier := range []Tier{TierInterp, TierMCC, TierFalcon, TierJIT, TierSpec} {
				e := New(Options{Tier: tier, Seed: 5})
				if err := e.Define(c.src); err != nil {
					t.Fatalf("[%s] define: %v", tier, err)
				}
				e.Precompile()
				args := make([]*mat.Value, len(c.args))
				for i, a := range c.args {
					args[i] = mat.Scalar(a)
				}
				if _, err := e.Call("f", args, 1); err == nil {
					t.Errorf("[%s] expected a runtime error", tier)
				} else if !strings.HasSuffix(err.Error(), c.want) {
					t.Errorf("[%s] error %q, want it to end %q", tier, err, c.want)
				}
			}
		})
	}
}

// Programs that are fine at the boundary must succeed everywhere (the
// mirror image of the above: checks are removed only when provably
// safe, never beyond).
func TestBoundaryAccessesSucceed(t *testing.T) {
	src := `
function y = f(n)
  v = zeros(1, 10);
  for i = 1:10
    v(i) = i;
  end
  y = v(1) + v(10) + v(n);
end`
	for _, tier := range []Tier{TierInterp, TierJIT, TierFalcon, TierSpec} {
		e := New(Options{Tier: tier, Seed: 5})
		if err := e.Define(src); err != nil {
			t.Fatal(err)
		}
		e.Precompile()
		outs, err := e.Call("f", []*mat.Value{mat.Scalar(10)}, 1)
		if err != nil {
			t.Fatalf("[%s] %v", tier, err)
		}
		wantScalar(t, outs[0], 1+10+10)
	}
}

// end-arithmetic inside ranges must compile and agree with the
// interpreter (v(2:end), v(end-2:end), A(1, 2:end)).
func TestEndInRangesAllTiers(t *testing.T) {
	src := `
function s = f()
  v = 1:10;
  a = v(2:end);
  b = v(end-2:end);
  A = [1 2 3; 4 5 6];
  c = A(1, 2:end);
  d = A(2, end);
  s = sum(a)*1000 + sum(b)*100 + sum(c)*10 + d;
end`
	want := float64((54)*1000 + (27)*100 + 5*10 + 6)
	for _, tier := range []Tier{TierInterp, TierMCC, TierJIT, TierFalcon, TierSpec} {
		e := New(Options{Tier: tier, Seed: 5})
		if err := e.Define(src); err != nil {
			t.Fatal(err)
		}
		e.Precompile()
		outs, err := e.Call("f", nil, 1)
		if err != nil {
			t.Fatalf("[%s] %v", tier, err)
		}
		wantScalar(t, outs[0], want)
	}
}
