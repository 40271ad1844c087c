package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/mat"
)

// quickConfig is one round at small sizes with trimmed probes: every
// workload end to end in about a second.
func quickConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 1, seconds: 1, trace: trace, rounds: 1, quick: true, outDir: t.TempDir()}
}

// TestManifest pins BENCHMARK.json to the metric tables: the committed
// file is `go run ./benchmark -manifest`, so a metric cannot be added to
// one and forgotten in the other.
func TestManifest(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifest()) {
		t.Fatalf("BENCHMARK.json differs from the metric tables; regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloadDefs {
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
		seen[w.Name] = true
	}
}

// TestVariants checks the redefinition variant of every Table 1
// program: it must parse, run, and compute something other than the
// original, or cold-session could not tell new code from stale code.
func TestVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every Table 1 program under the interpreter")
	}
	w, err := newCold(config{seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setUp(nil); err != nil {
		t.Fatal(err)
	}
	if len(w.sessions) != 16 {
		t.Fatalf("%d sessions, want all 16 Table 1 programs", len(w.sessions))
	}
}

// TestSmoke runs every workload for one round, untraced and traced:
// no op may fail, the emitted metric names must be exactly the declared
// ones, every value must be a finite number, and the counts that the
// compiler, the repository and the allocator determine must repeat
// exactly between two runs with the same seed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	exact := regexp.MustCompile(`^(codegen\.(ir_instrs|fused_kernels|gemv_selected|spill_slots)|repo\.\w+_per_op|parser\.tokens)$`)
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			res := runQuick(t, quickConfig(t, w.Name, false), endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
				}
			}
			if w.Name == "steady-scalar" {
				// Before the traced run, whose probes turn the process-wide
				// buffer pool on.
				again := runQuick(t, quickConfig(t, w.Name, false), endToEnd)
				// Not to the last digit: the Go runtime's own background
				// allocations (collector workers) add a few counts per run.
				if a, b := res.Metrics["mallocs_per_op"].Value, again.Metrics["mallocs_per_op"].Value; math.Abs(a-b) > 1e-3*a {
					t.Errorf("mallocs_per_op: %v then %v with the same seed; a single caller's allocation count must repeat to three digits", a, b)
				}
			}
			first := runQuick(t, quickConfig(t, w.Name, true), perLayer)
			if w.Name != "steady-scalar" {
				return // one repeat is enough: the probes are the same on every workload
			}
			second := runQuick(t, quickConfig(t, w.Name, true), perLayer)
			for name, m := range first.Metrics {
				if exact.MatchString(name) && m.Value != second.Metrics[name].Value {
					t.Errorf("%s: %v then %v with the same seed; a compiler or repository count must repeat exactly", name, m.Value, second.Metrics[name].Value)
				}
			}
		})
	}
}

func runQuick(t *testing.T, c config, defs []metricDef) *result {
	t.Helper()
	res, err := run(c)
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", c.workload, c.trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s (trace=%v): correct=%v attempted=%d failed=%d", c.workload, c.trace, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s (trace=%v): %d metrics emitted, %d declared", c.workload, c.trace, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s (trace=%v): metric %s not emitted", c.workload, c.trace, d.Name)
			continue
		}
		if m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v %q, want a finite number in %q", c.workload, d.Name, m.Value, m.Unit, d.Unit)
		}
	}
	return res
}

// TestInexactIsPinned checks that only a program golden.json lists as
// inexact may differ from the interpreter in bits: the same one-ulp
// drift is tolerated on fractal and fails on adapt.
func TestInexactIsPinned(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for prog, want := range map[string]bool{"fractal": true, "fibonacci": true, "adapt": false, "matmul": false} {
		if got := golden[prog+"/small"].inexactOK; got != want {
			t.Errorf("%s: inexactOK = %v, want %v", prog, got, want)
		}
	}
	for _, prog := range []string{"fractal", "adapt"} {
		ref := golden[prog+"/small"]
		if len(ref.Values) != 1 {
			t.Fatalf("%s/small: want a scalar reference, got %v", prog, ref.Values)
		}
		exact := []*mat.Value{mat.Scalar(ref.Values[0])}
		if err := checkResult(exact, nil, ref); err != nil {
			t.Errorf("%s: the reference's own value: %v", prog, err)
		}
		drifted := []*mat.Value{mat.Scalar(math.Nextafter(ref.Values[0], math.Inf(1)))}
		err := checkResult(drifted, nil, ref)
		if ref.inexactOK && !errors.Is(err, errInexact) {
			t.Errorf("%s is listed as inexact: one ulp off gave %v, want errInexact", prog, err)
		}
		if !ref.inexactOK && (err == nil || errors.Is(err, errInexact)) {
			t.Errorf("%s is not listed as inexact: one ulp off gave %v, want a failure", prog, err)
		}
		wrong := []*mat.Value{mat.Scalar(ref.Values[0] * 1.001)}
		if err := checkResult(wrong, nil, ref); err == nil || errors.Is(err, errInexact) {
			t.Errorf("%s: a wrong value gave %v, want a failure", prog, err)
		}
	}
}

// TestVerdict pins the noise-aware comparison on hand-made samples.
func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_vs_ref", Better: "lower", Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	cases := []struct {
		name string
		cur  []float64
		want string
	}{
		{"same", []float64{10.2, 10.1, 10.3, 10.2, 10.25}, "same"},
		{"worse", []float64{12, 12.1, 11.9, 12, 12.05}, "worse"},
		{"better", []float64{8, 8.1, 7.9, 8, 8.05}, "better"},
		{"unresolved", []float64{8, 12, 9, 14, 10}, "unresolved"},
	}
	for _, c := range cases {
		if _, _, got := verdict(lower, steady, c.cur, false); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// On a throttled box a timing is not resolved, a count still is.
	worse := cases[1].cur
	if _, _, got := verdict(lower, steady, worse, true); got != "unresolved" {
		t.Errorf("throttled timing: verdict %q, want unresolved", got)
	}
	count := metricDef{Name: "mallocs_per_op", Unit: "count", Better: "lower", Bound: 0.10}
	if _, _, got := verdict(count, steady, worse, true); got != "worse" {
		t.Errorf("throttled count: verdict %q, want worse", got)
	}
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	if got := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}
