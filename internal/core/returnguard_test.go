package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/mat"
	"repro/internal/repo"
	"repro/internal/vm"
)

// guards counts the return-type guards in an entry's code: the fetches
// that take a call's result in a register.
func guards(e *repo.Entry) int {
	n := 0
	if e.Code == nil {
		return 0
	}
	for _, in := range e.Code.P.Ins {
		if in.Op == ir.OpFetchI || in.Op == ir.OpFetchF {
			n++
		}
	}
	return n
}

func sameValue(a, b *mat.Value) bool {
	if a.Kind() != b.Kind() || a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	are, bre := a.Re(), b.Re()
	for i := range are {
		if math.Float64bits(are[i]) != math.Float64bits(bre[i]) {
			return false
		}
	}
	aim, bim := a.Im(), b.Im()
	for i := range aim {
		if math.Float64bits(aim[i]) != math.Float64bits(bim[i]) {
			return false
		}
	}
	return true
}

// typedCaller defines r(x) = q(x) + 1 with q out of line, and returns
// the entry of r that was compiled against q's integer summary.
func typedCaller(t *testing.T, e *Engine) *repo.Entry {
	t.Helper()
	for _, src := range []string{depRSrc, depQOld} {
		if err := e.Define(src); err != nil {
			t.Fatal(err)
		}
	}
	warm(t, e, "q", 3, 6)
	warm(t, e, "r", 3, 7)
	for _, entry := range e.Repo().Entries("r") {
		if guards(entry) > 0 {
			if entry.Ret == nil || !hasDep([]*repo.Entry{entry}, "q") {
				t.Fatalf("guarded entry without summary or dependency: %+v", entry)
			}
			return entry
		}
	}
	t.Fatal("r was not compiled with a guarded typed call to q")
	return nil
}

// TestReturnGuardFallsBackToInterpreter is the soundness test for typed
// returns. A caller compiled against "q returns an integer scalar" meets
// a q that later returns a matrix, a complex, a char, a fraction, or an
// integer of the wrong kind. The repository invalidates r together with
// q, so the only way to meet the new q with the old code is an
// activation that resolved r before the redefinition — which is what
// running the stale entry directly reproduces. Every case must answer
// exactly what the interpreter answers.
func TestReturnGuardFallsBackToInterpreter(t *testing.T) {
	bodies := map[string]string{
		"matrix":   "y = [x 2 3];",
		"complex":  "y = x + 2i;",
		"char":     "y = 'a';",
		"fraction": "y = x / 2;",
		"real":     "y = x * 1.0;",
	}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			e := New(Options{Tier: TierJIT})
			defer e.Close()
			stale := typedCaller(t, e)
			if err := e.Define("function y = q(x)\n  " + body + "\n  return;\nend"); err != nil {
				t.Fatal(err)
			}
			if n := len(e.Repo().Entries("r")); n != 0 {
				t.Fatalf("%d entries of r survived q's redefinition", n)
			}
			args := []*mat.Value{mat.Scalar(3)}
			want, err := e.Interpret("r", args, 1)
			if err != nil {
				t.Fatal(err)
			}
			ops, err := e.repo.runEntry(stale, e.repo.r.State("r"), vm.Boxed(nil, args), 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := vm.BoxAll(nil, ops)
			if !sameValue(got[0], want[0]) {
				t.Fatalf("stale activation returned %s %v, interpreter %s %v", got[0].Kind(), got[0], want[0].Kind(), want[0])
			}
			// And through the front door the fresh compile agrees too.
			fresh, err := e.Call("r", args, 1)
			if err != nil {
				t.Fatal(err)
			}
			if name != "real" && name != "fraction" && !sameValue(fresh[0], want[0]) {
				t.Fatalf("recompiled r returned %s %v, interpreter %s %v", fresh[0].Kind(), fresh[0], want[0].Kind(), want[0])
			}
			if fresh[0].MustScalar() != want[0].MustScalar() {
				t.Fatalf("recompiled r returned %v, interpreter %v", fresh[0], want[0])
			}
		})
	}
}

// TestGuardMissRetiresEntry: an entry whose guard misses while it is
// still published (a summary that did not hold) is replaced by an
// interpret-only entry, so the detour is paid once.
func TestGuardMissRetiresEntry(t *testing.T) {
	e := New(Options{Tier: TierJIT})
	defer e.Close()
	stale := typedCaller(t, e)
	if err := e.Define("function y = q(x)\n  y = [x 2 3];\n  return;\nend"); err != nil {
		t.Fatal(err)
	}
	// Republish the stale code without its dependency list — the state a
	// wrong summary would leave behind.
	forged := &repo.Entry{Sig: stale.Sig, Code: stale.Code, Quality: stale.Quality, Ret: stale.Ret}
	e.Repo().Insert("r", forged)
	args := []*mat.Value{mat.Scalar(3)}
	want, err := e.Interpret("r", args, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := e.Call("r", args, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !sameValue(got[0], want[0]) {
			t.Fatalf("call %d returned %v, interpreter %v", i, got[0], want[0])
		}
	}
	entries := e.Repo().Entries("r")
	if len(entries) != 1 || entries[0].Quality != repo.QualityInterp {
		t.Fatalf("guard miss left %d entries (first %+v), want one interpret-only entry", len(entries), entries[0])
	}
	if s := e.Repo().Stats(); s.Replaces != 1 {
		t.Fatalf("want one retirement, stats %+v", s)
	}
}

// TestSideEffectsKeepCallsBoxed: a function that prints (or draws random
// numbers, or touches a global) can not be re-run unnoticed, so it
// neither takes nor offers return summaries.
func TestSideEffectsKeepCallsBoxed(t *testing.T) {
	e := New(Options{Tier: TierJIT})
	defer e.Close()
	typedCaller(t, e)
	srcs := map[string]string{
		"printer": "function y = printer(x)\n  disp(x);\n  y = q(x) + 1;\nend",
		"roller":  "function y = roller(x)\n  y = q(x) + rand;\nend",
		"viaglob": "function y = viaglob(x)\n  global G\n  y = q(x) + 1;\nend",
		// calls a function that is not replay-safe itself
		"indirect": "function y = indirect(x)\n  y = q(x) + printer(x);\nend",
	}
	for _, fn := range []string{"printer", "roller", "viaglob", "indirect"} {
		if err := e.Define(srcs[fn]); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Call(fn, []*mat.Value{mat.Scalar(3)}, 1); err != nil {
			t.Fatal(err)
		}
		for _, entry := range e.Repo().Entries(fn) {
			if entry.Ret != nil || guards(entry) != 0 {
				t.Errorf("%s: summary %v, %d guards; want none", fn, entry.Ret, guards(entry))
			}
		}
	}
}

// TestConcurrentCallsAndRedefinition drives the lock-free hit path from
// many goroutines — sessions of one library and callers of one engine —
// while another session keeps redefining a callee that the callers'
// code inlines. Run with -race. Recursion must stay exact (frames are
// per activation, never shared), every answer must come from one of the
// definitions that existed, and once the last definition is in, nothing
// older may ever be served again.
func TestConcurrentCallsAndRedefinition(t *testing.T) {
	lib := NewLibrary(LibraryOptions{AsyncCompile: true, CompileWorkers: 2})
	defer lib.Close()
	definer := New(Options{Tier: TierJIT, AsyncCompile: true, Library: lib})
	scale := func(c int) string {
		return "function y = k(x)\n  y = x * " + string(rune('0'+c)) + ";\nend"
	}
	for _, src := range []string{fibonacciSrc, "function y = top(x)\n  y = k(x) + 1;\nend", scale(2)} {
		if err := definer.Define(src); err != nil {
			t.Fatal(err)
		}
	}
	shared := New(Options{Tier: TierJIT, AsyncCompile: true, Library: lib})

	const callers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := shared
			if g%2 == 0 {
				e = New(Options{Tier: TierJIT, AsyncCompile: true, Library: lib})
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				outs, err := e.Call("fibonacci", []*mat.Value{mat.Scalar(12)}, 1)
				if err != nil || outs[0].MustScalar() != 144 {
					errs <- "fibonacci(12) under concurrency: " + describe(outs, err)
					return
				}
				outs, err = e.Call("top", []*mat.Value{mat.Scalar(10)}, 1)
				if err != nil {
					errs <- "top(10): " + err.Error()
					return
				}
				if v := outs[0].MustScalar(); v != 21 && v != 31 && v != 51 {
					errs <- "top(10) answered from no definition that ever existed: " + describe(outs, nil)
					return
				}
			}
		}(g)
	}
	for round := 0; round < 60; round++ {
		if err := definer.Define(scale([]int{3, 5, 2}[round%3])); err != nil {
			t.Fatal(err)
		}
	}
	if err := definer.Define(scale(5)); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	lib.Drain()
	for i := 0; i < 20; i++ {
		if got := callNum(t, shared, "top", 10); got != 51 {
			t.Fatalf("top(10) = %g after the last redefinition, want 51: a stale entry was served", got)
		}
	}
}

func describe(outs []*mat.Value, err error) string {
	if err != nil {
		return err.Error()
	}
	if len(outs) == 0 {
		return "no result"
	}
	return outs[0].String()
}
