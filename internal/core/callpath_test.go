package core

import (
	"fmt"
	"strings"
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

// dynamicCalls runs fn(args) reps times from a compiled loop, warm, and
// returns the number of repository lookups one such run makes — one per
// dynamic call — with the heap allocations per lookup. The loop is what
// keeps the measurement on the call path: entering the VM from outside
// costs the root call's result lists and the box of its result, and a
// recursion deeper than the frame chain's idle bound (vm's maxIdleBytes)
// re-grows the frames past it once per entry. Neither is the price of a
// call between two compiled functions, and one entry that recurses reps
// times pays both once.
func dynamicCalls(t *testing.T, opts Options, src, fn string, args ...float64) (calls int, allocsPerCall float64) {
	t.Helper()
	const reps = 25
	e := New(opts)
	defer e.Close()
	// The loop reaches fn through once, which a bare return keeps out of
	// line: inlined into the loop, the recursion's top levels would compute
	// on the loop's integer literals in a class of their own, whatever the
	// speculator guessed for fn's parameters, and box where the classes
	// meet.
	formals, actuals := make([]string, len(args)), make([]string, len(args))
	for i, a := range args {
		formals[i] = fmt.Sprintf("a%d", i)
		actuals[i] = fmt.Sprint(a)
	}
	once := fmt.Sprintf("function y = once(%[1]s)\n  y = %[2]s(%[1]s);\n  return;\nend", strings.Join(formals, ", "), fn)
	drive := fmt.Sprintf("function s = drive(k)\n  s = 0.5;\n  for i = 1:k\n    s = s + once(%s);\n  end\nend", strings.Join(actuals, ", "))
	vals := []*mat.Value{mat.Scalar(reps)}
	call := func() {
		if _, err := e.Call("drive", vals, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up, callees before callers (a caller is compiled against its
	// callee's return summary, so the loop's sum — a real from the start,
	// whichever class the tier returns — stays in a register): compile
	// every signature reached, tier up, and grow the frame chain to the
	// recursion's depth.
	for _, warm := range []struct {
		src, fn string
		args    []float64
	}{{src, fn, args}, {once, "once", args}, {drive, "drive", []float64{reps}}} {
		if err := e.Define(warm.src); err != nil {
			t.Fatal(err)
		}
		e.Precompile()
		argv := make([]*mat.Value, len(warm.args))
		for i, a := range warm.args {
			argv[i] = mat.Scalar(a)
		}
		for i := 0; i < 2*DefaultTierThreshold; i++ {
			if _, err := e.Call(warm.fn, argv, 1); err != nil {
				t.Fatal(err)
			}
			e.Drain()
		}
	}
	before := e.Repo().Stats()
	call()
	after := e.Repo().Stats()
	if after.Misses != before.Misses || after.Inserts != before.Inserts {
		t.Fatalf("%s: warm call still missed or compiled (%+v -> %+v)", fn, before, after)
	}
	calls = after.Lookups - before.Lookups
	return calls, testing.AllocsPerRun(10, call) / float64(calls)
}

// TestCallPathAllocationBudget pins the cost of the layer every call
// crosses. A warm compiled→compiled call whose scalar arguments and
// result both sides keep in registers allocates nothing: no box, no
// signature, no lock, no register banks, no argument or result slice.
// The seed spent about 20 allocations per dynamic call here, and until
// scalars crossed in registers the boxes were left: one per argument and
// one for the result.
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
			budget := 0.01
			if p.fn == "ackermann" && tier.name == "spec" {
				// Measured 3.22, pinned with 5 % headroom (5.07 before the
				// calls stopped boxing m-1 and the literal 1). What is left
				// is not the call: the speculator types both parameters
				// real, while the literal 1 of ackermann(m-1, 1) makes the
				// inlined levels compute in integers, so y and the inlined
				// levels' n receive values of both classes and stay boxed
				// so each keeps its kind (infer.Result.Boxed) — a box for
				// the constant of every boxed n == 0, n - 1 and n + 1, the
				// generic operator's result, and a clone of y per inlined
				// level.
				budget = 3.39
			}
			calls, per := dynamicCalls(t, tier.opts, p.src, p.fn, p.args...)
			t.Logf("%s/%s: %d dynamic calls, %.4f allocations each", p.fn, tier.name, calls, per)
			if calls < 50 {
				t.Errorf("%s/%s: only %d dynamic calls; the recursion no longer crosses the repository", p.fn, tier.name, calls)
			}
			if per > budget {
				t.Errorf("%s/%s: %.4f allocations per dynamic call, budget %.2f", p.fn, tier.name, per, budget)
			}
		}
	}
}
