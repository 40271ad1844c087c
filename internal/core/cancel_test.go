package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cancel"
	"repro/internal/mat"
	"repro/internal/repo"
)

// interruptAfter raises the engine's flag after d and returns a stopper.
func interruptAfter(e *Engine, d time.Duration) *time.Timer {
	return time.AfterFunc(d, e.Interrupt)
}

// TestDeadlineAbortsInterpLoop pins the satellite requirement: a
// deadline kills `while 1; end` in the interactive interpreter in well
// under a second.
func TestDeadlineAbortsInterpLoop(t *testing.T) {
	e := New(Options{Tier: TierJIT})
	defer e.Close()
	timer := interruptAfter(e, 50*time.Millisecond)
	defer timer.Stop()
	t0 := time.Now()
	err := e.EvalString("while 1; end")
	elapsed := time.Since(t0)
	if !errors.Is(err, cancel.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("interrupt took %v, want < 1s", elapsed)
	}
	// The engine keeps serving after the flag is cleared.
	e.ResetInterrupt()
	if err := e.EvalString("x = 1 + 1;"); err != nil {
		t.Fatalf("eval after interrupt: %v", err)
	}
}

// TestDeadlineAbortsCompiledLoop pins the VM back-edge safepoint: an
// effectively infinite loop in JIT-compiled code dies on Interrupt.
func TestDeadlineAbortsCompiledLoop(t *testing.T) {
	e := New(Options{Tier: TierJIT})
	defer e.Close()
	src := `function y = spin(n)
y = 0;
while y < n
  y = y + 1;
end
`
	if err := e.Define(src); err != nil {
		t.Fatal(err)
	}
	timer := interruptAfter(e, 50*time.Millisecond)
	defer timer.Stop()
	t0 := time.Now()
	_, err := e.Call("spin", []*mat.Value{mat.Scalar(1e18)}, 1)
	elapsed := time.Since(t0)
	if !errors.Is(err, cancel.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("interrupt took %v, want < 1s", elapsed)
	}
	// The loop must actually have been JIT-compiled, or this test
	// silently degrades to the interpreter safepoint.
	compiled := false
	for _, en := range e.Repo().Entries("spin") {
		if en.Quality != repo.QualityInterp {
			compiled = true
		}
	}
	if !compiled {
		t.Fatal("spin fell back to the interpreter; VM back-edge not exercised")
	}
	e.ResetInterrupt()
	outs, err := e.Call("spin", []*mat.Value{mat.Scalar(3)}, 1)
	if err != nil || outs[0].Re()[0] != 3 {
		t.Fatalf("call after interrupt: %v %v", outs, err)
	}
}

// TestInterruptAbortsCountedLoops pins the safepoint of the loops that
// close with a conditional branch (DESIGN §19): a counted for loop has no
// backward jump for the flag to be polled at, so the VM polls at every
// backward branch taken. A counted loop that only ever leaves through
// the while around it, and empty bodies that would spin for hours over an
// integer range and a float one, die on Interrupt under the JIT and under
// the optimising tier (whose unrolled main loop closes the same way).
func TestInterruptAbortsCountedLoops(t *testing.T) {
	const src = `function y = spinfor(which)
y = 0;
if which == 1
  while 1
    for k = 1:3
      y = y + k;
    end
  end
elseif which == 2
  for i = 1:1000000000000
  end
else
  for x = 1:1e12
  end
end
`
	for _, tier := range []Tier{TierJIT, TierFalcon} {
		for _, inner := range []float64{1, 2, 3} {
			e := New(Options{Tier: tier})
			if err := e.Define(src); err != nil {
				t.Fatal(err)
			}
			timer := interruptAfter(e, 50*time.Millisecond)
			t0 := time.Now()
			_, err := e.Call("spinfor", []*mat.Value{mat.Scalar(inner)}, 1)
			elapsed := time.Since(t0)
			timer.Stop()
			if !errors.Is(err, cancel.ErrInterrupted) {
				t.Fatalf("[%s loop %v] want ErrInterrupted, got %v", tier, inner, err)
			}
			if elapsed > time.Second {
				t.Fatalf("[%s loop %v] interrupt took %v, want < 1s", tier, inner, elapsed)
			}
			compiled := false
			for _, en := range e.Repo().Entries("spinfor") {
				compiled = compiled || en.Quality != repo.QualityInterp
			}
			if !compiled {
				t.Fatalf("[%s] spinfor fell back to the interpreter; VM back-edges not exercised", tier)
			}
			e.Close()
		}
	}
}

// TestInterruptAbortsRecursion covers loop-free divergence: the
// call-entry safepoint kills infinite recursion.
func TestInterruptAbortsRecursion(t *testing.T) {
	e := New(Options{Tier: TierInterp})
	defer e.Close()
	if err := e.Define("function y = rec(n)\ny = rec(n + 1);\n"); err != nil {
		t.Fatal(err)
	}
	timer := interruptAfter(e, 50*time.Millisecond)
	defer timer.Stop()
	t0 := time.Now()
	_, err := e.Call("rec", []*mat.Value{mat.Scalar(0)}, 1)
	if !errors.Is(err, cancel.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Fatalf("interrupt took %v, want < 1s", elapsed)
	}
}
