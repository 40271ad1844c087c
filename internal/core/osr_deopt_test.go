package core

import (
	"testing"

	"repro/internal/mat"
	"repro/internal/profile"
)

// TestOSRDeoptPaths drives each way a guarded transfer falls back to the
// interpreter, on one placeholder whose activations differ in what their
// frames hold at the loop. The library has one compile worker, held
// while an activation runs, so a continuation lands only between calls.
// Every call returns the interpreter's bits, and the per-cause counters
// name the guard that fired.
func TestOSRDeoptPaths(t *testing.T) {
	type call struct {
		args []float64
		// redefine is source defined before the call.
		redefine string
	}
	for _, tc := range []struct {
		name, src string
		calls     []call
		want      profile.Stats
	}{{
		// x's kind rises int → real → complex. The second activation
		// deopts on range until the budget recompiles the site for a real
		// x; the third deopts again, and the site is abandoned.
		name: "range deopts, one recompile, abandonment",
		src: `
function s = f(n)
  x = 1;
  if n > 1
    x = 0.5;
  end
  if n > 2
    x = 1i;
  end
  s = 0;
  for k = 1:40
    s = s + x;
  end
end`,
		calls: []call{{args: []float64{1}}, {args: []float64{2}}, {args: []float64{3}}},
		want:  profile.Stats{OSRRequests: 2, OSRCompiles: 2, OSRDeopts: 2 * osrDeoptBudget, OSRDeoptsRange: 2 * osrDeoptBudget, DeoptBudgetExhausted: 1},
	}, {
		// y is bound before the loop on the first call only: the second
		// deopts on binding at each of the j loop's 11 hot back-edges. The
		// third binds y again and reaches the j loop hot at its first
		// iteration, before j is bound: the transfer rebinds j. (Its k
		// loop requests a continuation of its own, which lands after it.)
		name: "binding deopt, loop variable rebound",
		src: `
function s = f(n, m)
  if m > 0
    y = m;
  end
  s = 0;
  for k = 1:n
    s = s + k;
  end
  for j = 1:12
    s = s + j;
  end
  if m > 0
    s = s + y;
  end
end`,
		calls: []call{{args: []float64{6, 1}}, {args: []float64{6, 0}}, {args: []float64{10, 1}}},
		want:  profile.Stats{OSRRequests: 2, OSRCompiles: 2, OSRTransfers: 1, OSRDeopts: 11, OSRDeoptsBinding: 11},
	}, {
		// The continuation inlined g. Redefining g leaves f's placeholder,
		// which depends on nothing, but not its continuation: the second
		// call deopts at each of its 13 hot back-edges.
		name: "inlined callee redefined",
		src: `
function s = f(n)
  s = 0;
  for k = 1:n
    s = s + g(k);
  end
end
function y = g(x)
  y = x + 1;
end`,
		calls: []call{{args: []float64{20}}, {args: []float64{20}, redefine: "function y = g(x)\n  y = x * 2;\nend"}},
		want:  profile.Stats{OSRRequests: 1, OSRCompiles: 1, OSRDeopts: 13, OSRDeoptsGeneration: 13},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			lib := NewLibrary(LibraryOptions{Tiered: true, CompileWorkers: 1})
			t.Cleanup(lib.Close)
			e := New(Options{Tier: TierJIT, Tiered: true, Seed: 12345, Library: lib})
			t.Cleanup(e.Close)
			if err := e.Define(tc.src); err != nil {
				t.Fatal(err)
			}
			var placeholder any
			for i, c := range tc.calls {
				if c.redefine != "" {
					if err := e.Define(c.redefine); err != nil {
						t.Fatal(err)
					}
				}
				args := make([]*mat.Value, len(c.args))
				for k, a := range c.args {
					args[k] = mat.Scalar(a)
				}
				want, err := e.Interpret("f", args, 1)
				if err != nil {
					t.Fatal(err)
				}
				release := lib.HoldPool()
				got, err := e.Call("f", args, 1)
				release()
				e.Drain()
				if err != nil {
					t.Fatalf("call %d: %v", i+1, err)
				}
				payloadEqual(t, tc.name, want, got)
				entries := e.Repo().Entries("f")
				if len(entries) != 1 || !entries[0].Placeholder || placeholder != nil && placeholder != any(entries[0]) {
					t.Fatalf("call %d: f's entries %v, want the first call's placeholder", i+1, entries)
				}
				placeholder = entries[0]
			}
			st := e.ProfileStats()
			st.Entries, st.BackEdges, st.Promotions = 0, 0, 0
			if st != tc.want {
				t.Errorf("tiering counters\n got %+v\nwant %+v", st, tc.want)
			}
		})
	}
}
