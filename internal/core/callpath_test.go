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
// grows the frames past it back, as one segment, once per entry
// (entryAllocs measures both). Neither is the price of a
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
	warmUp(t, e, src, fn, args...)
	warmUp(t, e, once, "once", args...)
	warmUp(t, e, drive, "drive", reps)
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
			const budget = 0.01
			calls, per := dynamicCalls(t, tier.opts, p.src, p.fn, p.args...)
			t.Logf("%s/%s: %d dynamic calls, %.4f allocations each", p.fn, tier.name, calls, per)
			if calls < 50 {
				t.Errorf("%s/%s: only %d dynamic calls; the recursion no longer crosses the repository", p.fn, tier.name, calls)
			}
			if per > budget {
				t.Errorf("%s/%s: %.4f allocations per dynamic call, budget %.2f", p.fn, tier.name, per, budget)
			}
		}
		// A call from outside that recurses past what a parked frame chain
		// keeps (vm's maxIdleBytes) grows the rest back as one segment.
		const entryBudget = 8
		if per := entryAllocs(t, tier.opts, ackermannSrc, "ackermann", 3, 4); per > entryBudget {
			t.Errorf("ackermann(3,4)/%s: %.1f allocations per call from outside, budget %d", tier.name, per, entryBudget)
		}
	}
}

// warmUp defines src and calls fn(args) past the tier-up threshold, so
// every signature the call reaches is compiled and tiered up, and the
// frame chain has grown to the recursion's depth. It returns the boxed
// arguments.
func warmUp(t *testing.T, e *Engine, src, fn string, args ...float64) []*mat.Value {
	t.Helper()
	if err := e.Define(src); err != nil {
		t.Fatal(err)
	}
	e.Precompile()
	argv := make([]*mat.Value, len(args))
	for i, a := range args {
		argv[i] = mat.Scalar(a)
	}
	for i := 0; i < 2*DefaultTierThreshold; i++ {
		if _, err := e.Call(fn, argv, 1); err != nil {
			t.Fatal(err)
		}
		e.Drain()
	}
	return argv
}

// entryAllocs warms fn(args) up and returns the heap allocations of one
// warm call from outside the VM.
func entryAllocs(t *testing.T, opts Options, src, fn string, args ...float64) float64 {
	t.Helper()
	e := New(opts)
	defer e.Close()
	argv := warmUp(t, e, src, fn, args...)
	per := testing.AllocsPerRun(10, func() {
		if _, err := e.Call(fn, argv, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%s%v from outside: %.1f allocations per call", fn, args, per)
	return per
}
