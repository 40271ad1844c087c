package core

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// The serial-vs-parallel differential suite: the same program, seed,
// and tier must produce byte-for-byte identical results for every
// Threads value, across the blocked dgemm (a*b), dgemv (a*v), the
// fused elementwise kernels, and the generic elementwise loops. The
// vector length is chosen above the elementwise and fused grain
// thresholds and the matrix above the blocked-dgemm cutoff, so the
// parallel code paths genuinely run when threads > 1.
const parWorkSrc = `
function [c, s, g] = parwork(n, m)
  a = rand(n, n);
  b = rand(n, n);
  c = a * b;
  v = rand(n, 1);
  g = a * v + 0.5 * v;
  x = rand(m, 1);
  y = x .* 2 + 1;
  z = y .^ 2 - x ./ 7 + exp(-y);
  s = sum(z) + sum(y .* x);
end`

func runParWork(t *testing.T, tier Tier, fuse bool, threads int) []*mat.Value {
	t.Helper()
	parallel.SetDefaultThreads(threads)
	e := New(Options{Tier: tier, Seed: 7, FuseElemwise: fuse})
	defer e.Close()
	if err := e.Define(parWorkSrc); err != nil {
		t.Fatal(err)
	}
	e.Precompile()
	outs, err := e.Call("parwork", []*mat.Value{mat.Scalar(72), mat.Scalar(50000)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

func bitsEqual(t *testing.T, label string, want, got []*mat.Value) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d outputs, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Rows() != g.Rows() || w.Cols() != g.Cols() || w.Kind() != g.Kind() {
			t.Fatalf("%s: output %d shape/kind %dx%d %v, want %dx%d %v",
				label, i, g.Rows(), g.Cols(), g.Kind(), w.Rows(), w.Cols(), w.Kind())
		}
		wr, gr := w.Re(), g.Re()
		for k := range wr {
			if math.Float64bits(wr[k]) != math.Float64bits(gr[k]) {
				t.Fatalf("%s: output %d element %d = %x, want %x (values %v vs %v)",
					label, i, k, math.Float64bits(gr[k]), math.Float64bits(wr[k]), gr[k], wr[k])
			}
		}
	}
}

// TestSerialParallelBitIdentity pins the bit-identity contract at the
// engine level: Threads ∈ {2, 8} against the Threads = 1 serial
// reference, for both compiled tiers and with fusion on and off.
func TestSerialParallelBitIdentity(t *testing.T) {
	defer parallel.SetDefaultThreads(0)
	for _, tier := range []Tier{TierFalcon, TierJIT} {
		for _, fuse := range []bool{false, true} {
			ref := runParWork(t, tier, fuse, 1)
			for _, threads := range []int{2, 8} {
				got := runParWork(t, tier, fuse, threads)
				label := tier.String()
				if fuse {
					label += "+fuse"
				}
				bitsEqual(t, label, ref, got)
			}
		}
	}
}

// TestEngineThreadsOption checks the Options.Threads wiring: a non-zero
// value becomes the process default, zero leaves it alone, and the last
// non-zero value wins for every engine (the setting is process-wide).
func TestEngineThreadsOption(t *testing.T) {
	defer parallel.SetDefaultThreads(0)
	e := New(Options{Tier: TierJIT, Threads: 3})
	defer e.Close()
	if got := parallel.DefaultThreads(); got != 3 {
		t.Errorf("DefaultThreads after New = %d, want 3", got)
	}
	e2 := New(Options{Tier: TierJIT})
	defer e2.Close()
	if got := parallel.DefaultThreads(); got != 3 {
		t.Errorf("DefaultThreads after an engine without Threads = %d, want 3", got)
	}
	e3 := New(Options{Tier: TierJIT, Threads: 2})
	defer e3.Close()
	if got := parallel.DefaultThreads(); got != 2 {
		t.Errorf("DefaultThreads after a second Threads engine = %d, want 2 (last wins)", got)
	}
}
