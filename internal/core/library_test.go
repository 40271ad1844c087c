package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/mat"
	"repro/internal/types"
)

// TestSharedLibraryWarmsOtherEngines pins the daemon's amortization
// story: a function JIT-compiled through one engine serves another
// engine's call as a repository hit, with no second compile.
func TestSharedLibraryWarmsOtherEngines(t *testing.T) {
	lib := NewLibrary(LibraryOptions{})
	defer lib.Close()
	a := New(Options{Tier: TierJIT, Library: lib})
	b := New(Options{Tier: TierJIT, Library: lib})
	if err := a.Define("function y = add2(x)\ny = x + 2;\n"); err != nil {
		t.Fatal(err)
	}
	// The definition is visible to b without a Define of its own.
	if b.LookupFunction("add2") == nil {
		t.Fatal("shared definition not visible to second engine")
	}
	if outs, err := a.Call("add2", []*mat.Value{mat.Scalar(1)}, 1); err != nil || outs[0].Re()[0] != 3 {
		t.Fatalf("a.Call: %v %v", outs, err)
	}
	st := lib.Repo().Stats()
	if st.Inserts != 1 {
		t.Fatalf("want 1 insert after first call, got %+v", st)
	}
	// Same signature from the second engine (sessions replaying one
	// workload present identical signatures) → locator hit, no compile.
	if outs, err := b.Call("add2", []*mat.Value{mat.Scalar(1)}, 1); err != nil || outs[0].Re()[0] != 3 {
		t.Fatalf("b.Call: %v %v", outs, err)
	}
	st = lib.Repo().Stats()
	if st.Inserts != 1 || st.Hits < 1 {
		t.Fatalf("second engine should hit the shared entry, got %+v", st)
	}
}

// TestSharedLibraryRedefinition checks the generation contract across
// engines: b's redefinition invalidates the entry a compiled, and a's
// next call sees the new semantics.
func TestSharedLibraryRedefinition(t *testing.T) {
	lib := NewLibrary(LibraryOptions{})
	defer lib.Close()
	a := New(Options{Tier: TierJIT, Library: lib})
	b := New(Options{Tier: TierJIT, Library: lib})
	if err := a.Define("function y = f(x)\ny = x + 1;\n"); err != nil {
		t.Fatal(err)
	}
	if outs, _ := a.Call("f", []*mat.Value{mat.Scalar(1)}, 1); outs[0].Re()[0] != 2 {
		t.Fatalf("old body: got %g", outs[0].Re()[0])
	}
	if err := b.Define("function y = f(x)\ny = x + 10;\n"); err != nil {
		t.Fatal(err)
	}
	outs, err := a.Call("f", []*mat.Value{mat.Scalar(1)}, 1)
	if err != nil || outs[0].Re()[0] != 11 {
		t.Fatalf("a must see b's redefinition, got %v %v", outs, err)
	}
}

// TestSharedLibraryConcurrentEngines stresses the shared repository and
// compile pool from many engines at once (run under -race): concurrent
// misses on one signature coalesce and every engine computes the same
// answer.
func TestSharedLibraryConcurrentEngines(t *testing.T) {
	lib := NewLibrary(LibraryOptions{AsyncCompile: true, CompileWorkers: 2})
	defer lib.Close()
	seedEng := New(Options{Tier: TierJIT, AsyncCompile: true, Library: lib})
	if err := seedEng.Define("function y = sq(x)\ny = x * x;\n"); err != nil {
		t.Fatal(err)
	}
	const engines = 8
	var wg sync.WaitGroup
	errs := make([]error, engines)
	for i := 0; i < engines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := New(Options{Tier: TierJIT, AsyncCompile: true, Library: lib})
			for k := 1; k <= 20; k++ {
				outs, err := e.Call("sq", []*mat.Value{mat.Scalar(float64(k))}, 1)
				if err != nil {
					errs[i] = err
					return
				}
				if got, want := outs[0].Re()[0], float64(k*k); got != want {
					errs[i] = fmt.Errorf("sq(%d) = %g, want %g", k, got, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
	}
}

// TestCallersOfOneCalleeCompileInParallel: two engines on one library
// compile callers of one shared callee at once (run under -race). Each
// compile splices its own clone of the callee's body and builds its own
// graph over windows of it, so neither writes what the other reads, and
// every call answers as the source says.
func TestCallersOfOneCalleeCompileInParallel(t *testing.T) {
	lib := NewLibrary(LibraryOptions{})
	defer lib.Close()
	seed := New(Options{Tier: TierJIT, Library: lib})
	if err := seed.Define(`
function y = sq(x)
  y = 0;
  for k = 1:2
    y = y + x * x / 2;
  end
end
function y = f1(x)
  y = sq(x) + 1;
end
function y = f2(x)
  y = 2 * sq(x) + sq(x + 1);
end`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, caller := range []string{"f1", "f2"} {
		wg.Add(1)
		go func(i int, caller string) {
			defer wg.Done()
			e := New(Options{Tier: TierJIT, Library: lib})
			defer e.Close()
			for k := 1; k <= 20; k++ {
				x := float64(k) + 0.5
				// Lower runs the whole compile and publishes nothing, so
				// every round compiles; the call checks the answer.
				low, err := e.Lower(caller, types.SignatureOf([]*mat.Value{mat.Scalar(x)}))
				if err != nil {
					errs[i] = err
					return
				}
				if !strings.Contains(ast.Print(low.Body), "inl") {
					errs[i] = fmt.Errorf("%s: sq was not spliced:\n%s", caller, ast.Print(low.Body))
					return
				}
				outs, err := e.Call(caller, []*mat.Value{mat.Scalar(x)}, 1)
				if err != nil {
					errs[i] = err
					return
				}
				want := x*x + 1
				if caller == "f2" {
					want = 2*x*x + (x+1)*(x+1)
				}
				if got := outs[0].Re()[0]; got != want {
					errs[i] = fmt.Errorf("%s(%g) = %g, want %g", caller, x, got, want)
					return
				}
			}
		}(i, caller)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
	}
}
