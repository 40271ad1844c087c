package core

import (
	"testing"

	"repro/internal/mat"
)

const fibonacciSrc = `
function f = fibonacci(n)
  if n < 2
    f = n;
  else
    f = fibonacci(n - 1) + fibonacci(n - 2);
  end
end`

const ackermannSrc = `
function y = ackermann(m, n)
  if m == 0
    y = n + 1;
  elseif n == 0
    y = ackermann(m - 1, 1);
  else
    y = ackermann(m - 1, ackermann(m, n - 1));
  end
end`

// dynamicCalls runs one warm call of fn and returns the number of
// repository lookups it made — one per dynamic call, the outermost
// included — with the heap allocations per lookup.
func dynamicCalls(t *testing.T, opts Options, src, fn string, args ...float64) (calls int, allocsPerCall float64) {
	t.Helper()
	e := New(opts)
	defer e.Close()
	if err := e.Define(src); err != nil {
		t.Fatal(err)
	}
	e.Precompile()
	vals := make([]*mat.Value, len(args))
	for i, a := range args {
		vals[i] = mat.Scalar(a)
	}
	call := func() {
		if _, err := e.Call(fn, vals, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: compile every signature the recursion reaches, tier up,
	// and grow the frame chain to the recursion's depth.
	for i := 0; i < 3*DefaultTierThreshold; i++ {
		call()
		e.Drain()
	}
	before := e.Repo().Stats()
	call()
	after := e.Repo().Stats()
	if after.Misses != before.Misses || after.Inserts != before.Inserts {
		t.Fatalf("%s: warm call still missed or compiled (%+v -> %+v)", fn, before, after)
	}
	calls = after.Lookups - before.Lookups
	return calls, testing.AllocsPerRun(20, call) / float64(calls)
}

// TestCallPathAllocationBudget pins the cost of the layer every call
// crosses. A warm compiled→compiled call allocates the boxes that carry
// its scalar arguments and its result across the boundary and nothing
// else: no signature, no lock, no register banks, no argument or result
// slice. The seed spent about 20 allocations per dynamic call here.
func TestCallPathAllocationBudget(t *testing.T) {
	tiers := []struct {
		name string
		opts Options
	}{
		{"jit", Options{Tier: TierJIT}},
		{"spec", Options{Tier: TierSpec}},
		{"tiered", Options{Tier: TierJIT, Tiered: true}},
	}
	progs := []struct {
		src, fn string
		args    []float64
	}{
		{fibonacciSrc, "fibonacci", []float64{14}},
		{ackermannSrc, "ackermann", []float64{3, 3}},
	}
	for _, tier := range tiers {
		for _, p := range progs {
			// One box per scalar argument plus one for the result.
			budget := float64(len(p.args) + 1)
			if p.fn == "ackermann" && tier.name == "spec" {
				// The speculator types both parameters real, while the
				// literal 1 of ackermann(m-1, 1) makes the inlined levels
				// compute in integers: y receives values of both classes,
				// stays boxed so each keeps its kind (infer.Result.Boxed),
				// and the calls stay today's boxed calls — a copy per
				// inlined level on top of the three boxes.
				budget = 6
			}
			calls, per := dynamicCalls(t, tier.opts, p.src, p.fn, p.args...)
			t.Logf("%s/%s: %d dynamic calls, %.2f allocations each", p.fn, tier.name, calls, per)
			if calls < 50 {
				t.Errorf("%s/%s: only %d dynamic calls; the recursion no longer crosses the repository", p.fn, tier.name, calls)
			}
			if per > budget+0.25 {
				t.Errorf("%s/%s: %.2f allocations per dynamic call, budget %.0f", p.fn, tier.name, per, budget)
			}
		}
	}
}
