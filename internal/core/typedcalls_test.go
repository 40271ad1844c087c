package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/mat"
	"repro/internal/repo"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// The callees of this file end in a bare return, which keeps the inliner
// away from them: every call below is a dynamic call through the
// repository, compiled code on both sides once the engines are warm.
//
// Compiled code has always had opinions of its own about kinds: an
// integral real argument selects the integer entry and comes back Int
// where the interpreter says double, and a speculative entry typed real
// answers double where the interpreter says int (which is also why the
// integers at the edge of exactness have callees to themselves: tier-up
// compiles for the ranges it saw, and an integer outside them would be
// served by a real entry, if there were one). Where a caller would
// expose that (an old difference, the ledger's "inexact" list, not this
// boundary's business) it scales its result by a fraction, which is a
// double in every tier; everything else is compared kind and all.
//
// inc, half and keep are called with integers and reals alike, so a
// caller compiled late is typed against the join of their entries'
// summaries (real), meets the integer entry's I register at its F
// fetch, and is retired to the interpreter, or replaced when it is
// speculative — the guard doing its job, and part of what the table runs
// through. incint, halfint and keepint
// only ever see integers: their callers keep their fetches.
const typedCallsSrc = `
function y = inc(x)
  y = x + 1;
  return;
end
function y = half(x)
  y = x / 2;
  return;
end
function y = first(x)
  y = x(1);
  return;
end
function y = keep(x)
  y = x;
  return;
end
function y = scaled(A, k)
  y = A(2) * k;
  return;
end
function [a, b] = two(x)
  a = x + 1;
  b = [x x];
  return;
end
function y = maybe(x)
  if x > 100
    y = [x 1];
  end
  return;
end
function y = cplx(x)
  y = x + 2i;
  return;
end
function y = incint(x)
  y = x + 1;
  return;
end
function y = halfint(x)
  y = x / 2;
  return;
end
function y = keepint(x)
  y = x;
  return;
end

function r = ii(n)
  r = incint(n) * 2;
end
function r = chain(n)
  r = incint(incint(n)) + incint(n - 1);
end
function r = fromreal(n)
  r = halfint(n) + halfint(n + 1);
end
function r = intoreal(n)
  r = (half(n) + half(n + 1)) * 0.7;
end
function r = realarg(n)
  r = (inc(n * 0.5) + inc(n * 0.25)) * 0.7;
end
function r = integralreal(n)
  x = n / 2;
  r = inc(x * 2) * 0.7;
end
function r = tovparam(n)
  r = (first(n * 0.5) + first(n)) * 0.7;
end
function r = kindofv(n)
  r = keep(n);
end
function r = kindofvreal(n)
  r = keep(n * 0.3);
end
function r = fromv(v)
  r = (inc(v(2)) + half(v(1))) * 0.7;
end
function r = boolarg(n)
  r = (inc(n > 2) + inc(n > 200)) * 0.7;
end
function r = complexarg(n)
  z = n + 1i;
  r = cplx(z) + cplx(n);
end
function r = emptyarg(n)
  e = zeros(0, 0);
  r = [keep(e) n * 0.3];
end
function r = sparsearg(n)
  s = sparse(1, 1, n, 1, 1);
  r = full(keep(s)) * 0.7;
end
function r = beside(n)
  A = [1 2 3; 4 5 6];
  r = scaled(A, n) + scaled(A, n * 0.3);
end
function r = nout0(n)
  two(n);
  r = n * 0.3;
end
function r = nout1(n)
  r = two(n) * 3;
end
function r = nout2(n)
  [p, q] = two(n);
  r = p + sum(q);
end
function r = unassigned(n)
  r = [maybe(n) 0.5];
end
function r = extremes(x)
  r = keepint(incint(x) - 1);
end
function r = extremesreal(x)
  r = keep(inc(x) - 1);
end
function r = looped(n)
  r = 0.5;
  for k = 1:n
    r = r + incint(k) + halfint(k);
  end
end`

// typedCallCases are the class pairings of the call boundary: what the
// caller holds the argument in, what bank the callee's parameter is, where
// the callee's output lives and where the caller wants it. (-0 is absent:
// integer-typed code has never kept its sign, with or without a call in
// the way; that a register crossing keeps every bit is vm's
// TestOperandsBindLikeTheirBoxes.)
var typedCallCases = []struct {
	fn  string
	arg *mat.Value
}{
	{"ii", mat.IntScalar(3)},           // I argument, I parameter, I result into I
	{"chain", mat.IntScalar(5)},        // a call inside an argument list: the call slots are the frame's
	{"fromreal", mat.IntScalar(3)},     // F home into an F destination, integral or not
	{"intoreal", mat.IntScalar(3)},     // I argument; half answers a real for odd n (F home) ...
	{"intoreal", mat.IntScalar(4)},     // ... and an integer for even n
	{"realarg", mat.IntScalar(3)},      // F argument, non-integral: an entry of its own
	{"realarg", mat.IntScalar(8)},      // F argument, integral: the integer entry serves it (F into I)
	{"integralreal", mat.IntScalar(6)}, // an F register holding an integer into an I parameter
	{"integralreal", mat.IntScalar(7)},
	{"tovparam", mat.IntScalar(3)},                    // F and I arguments into a V parameter
	{"kindofv", mat.IntScalar(3)},                     // the box a V parameter makes of an I is box.i's
	{"kindofvreal", mat.IntScalar(3)},                 // ... and of an F box.f's
	{"fromv", mat.FromSlice(1, 2, []float64{1.5, 4})}, // boxed arguments into scalar parameters
	{"boolarg", mat.IntScalar(3)},                     // logical arguments
	{"complexarg", mat.IntScalar(3)},                  // complex argument and result stay boxed
	{"emptyarg", mat.IntScalar(3)},                    // empty argument, empty result
	{"sparsearg", mat.IntScalar(3)},                   // a sparse scalar keeps its representation
	{"beside", mat.IntScalar(3)},                      // a staged scalar beside a matrix argument
	{"nout0", mat.IntScalar(3)},                       // no result taken
	{"nout1", mat.IntScalar(3)},                       // the register-home first result of a two-output callee
	{"nout2", mat.IntScalar(3)},                       // both results: register home first, boxed second
	{"unassigned", mat.IntScalar(3)},                  // an output no path assigned
	{"unassigned", mat.IntScalar(300)},                //
	{"extremes", mat.IntScalar(1 << 53)},              // past the last integer a float64 holds exactly:
	{"extremes", mat.IntScalar(-(1 << 53))},           // the guard's 2^53 admission test
	{"extremes", mat.IntScalar(1<<53 - 1)},            //
	{"extremesreal", mat.Scalar(math.NaN())},          // values no range orders, and one that is just a real
	{"extremesreal", mat.Scalar(math.Inf(-1))},        //
	{"extremesreal", mat.Scalar(0.1)},                 //
	{"looped", mat.IntScalar(40)},                     // hot enough to tier up and to transfer mid-loop
}

func describeValue(v *mat.Value) string {
	return fmt.Sprintf("%v %dx%d %v", v.Kind(), v.Rows(), v.Cols(), v)
}

// TestTypedCallsMatchBoxedCalls runs every pairing through every tier
// under both miss policies and every pool setting — so through cold, interpreted, profiled
// and warm compiled calls alike — and demands the
// interpreter's answer bit for bit, kind included: registers crossing a
// call must be invisible.
func TestTypedCallsMatchBoxedCalls(t *testing.T) {
	// The reference is an engine that only interprets: Engine.Interpret
	// on a compiling engine sends the calls its function makes back
	// through the tier.
	interp := New(Options{Tier: TierInterp})
	defer interp.Close()
	if err := interp.Define(typedCallsSrc); err != nil {
		t.Fatal(err)
	}
	eachPolicy(t, func(t *testing.T, row policyRow, tier Tier) {
		e := New(row.options(tier))
		defer e.Close()
		if err := e.Define(typedCallsSrc); err != nil {
			t.Fatal(err)
		}
		e.Precompile()
		e.Drain()
		// The callees that only ever see integers go first, twice each so a
		// widened entry exists: their callers are then compiled against a
		// return summary and take the results in registers.
		for _, fn := range []string{"incint", "halfint", "keepint", "two"} {
			for x := 3.0; x < 3+2*DefaultTierThreshold; x++ {
				if _, err := e.Call(fn, []*mat.Value{mat.IntScalar(x)}, 1); err != nil {
					t.Fatal(err)
				}
			}
			e.Drain()
		}
		for round := 0; round < 4; round++ {
			for _, c := range typedCallCases {
				args := []*mat.Value{c.arg}
				want, err := interp.Call(c.fn, args, 1)
				if err != nil {
					t.Fatalf("%s: interpreter: %v", c.fn, err)
				}
				got, err := e.Call(c.fn, args, 1)
				if err != nil {
					t.Fatalf("%s(%v), round %d: %v", c.fn, c.arg, round, err)
				}
				if !sameValue(got[0], want[0]) {
					t.Errorf("%s(%v), round %d: got %s, interpreter %s", c.fn, c.arg, round, describeValue(got[0]), describeValue(want[0]))
				}
			}
			e.Drain()
		}
		if row.name == "sync" && tier == TierJIT {
			// The table is no use if nothing in it crosses in a register.
			for _, fn := range []string{"ii", "chain", "fromreal", "nout1", "extremes", "looped"} {
				fetches := 0
				for _, entry := range e.Repo().Entries(fn) {
					fetches += guards(entry)
				}
				if fetches == 0 {
					t.Errorf("%s takes no call result in a register", fn)
				}
			}
		}
	})
}

// TestRecursiveCallsCrossInRegisters reads the code the engine serves for
// the two recursive Table 1 programs: no call argument is a register a
// box instruction filled, no call result is unboxed, and what crosses in
// registers does so through stage and fetch — the golden pins hashes, this
// pins the shape.
func TestRecursiveCallsCrossInRegisters(t *testing.T) {
	for _, c := range []struct {
		name, src, fn string
		opts          Options
		args          []float64
	}{
		{"ackermann/jit", ackermannSrc, "ackermann", Options{Tier: TierJIT}, []float64{2, 3}},
		{"fibonacci/jit", fibonacciSrc, "fibonacci", Options{Tier: TierJIT}, []float64{12}},
		{"fibonacci/spec", fibonacciSrc, "fibonacci", Options{Tier: TierSpec}, []float64{12}},
	} {
		e := New(c.opts)
		if err := e.Define(c.src); err != nil {
			t.Fatal(err)
		}
		e.Precompile()
		vals := make([]*mat.Value, len(c.args))
		for i, a := range c.args {
			vals[i] = mat.Scalar(a)
		}
		for i := 0; i < 3; i++ {
			if _, err := e.Call(c.fn, vals, 1); err != nil {
				t.Fatal(err)
			}
		}
		calls := 0
		for _, entry := range e.Repo().Entries(c.fn) {
			if entry.Code == nil {
				t.Errorf("%s: an interpret-only entry", c.name)
				continue
			}
			p := entry.Code.P
			boxed := map[int32]bool{} // V registers a box.f or box.i defines
			for _, in := range p.Ins {
				if in.Op == ir.OpBoxF || in.Op == ir.OpBoxI {
					boxed[in.A] = true
				}
			}
			results := map[int32]bool{} // V registers a call leaves a result in
			for _, in := range p.Ins {
				if in.Op != ir.OpCallUser {
					continue
				}
				calls++
				at := int(in.A)
				nout := int(p.Aux[at+1])
				for _, d := range p.Aux[at+2 : at+2+nout] {
					if d != ir.Staged {
						results[d] = true
					}
				}
				nargs := int(p.Aux[at+2+nout])
				for i, a := range p.Aux[at+3+nout : at+3+nout+nargs] {
					if a != ir.Staged && boxed[a] {
						t.Errorf("%s %s: argument %d of the call at aux %d is a box made for it:\n%s", c.name, entry.Sig, i, at, p.Disasm())
					}
				}
			}
			for _, in := range p.Ins {
				if (in.Op == ir.OpUnboxF || in.Op == ir.OpUnboxI) && results[in.B] {
					t.Errorf("%s %s: a call result is unboxed instead of fetched:\n%s", c.name, entry.Sig, p.Disasm())
				}
			}
			if guards(entry) == 0 {
				t.Errorf("%s %s: no result is fetched into a register", c.name, entry.Sig)
			}
			if len(p.OutRegs) != 1 || p.OutRegs[0] != ir.Staged {
				t.Errorf("%s %s: the output is not returned in its register (OutRegs %v)", c.name, entry.Sig, p.OutRegs)
			}
		}
		if calls == 0 {
			t.Errorf("%s: no dynamic call left in the served code", c.name)
		}
		e.Close()
	}
}

// TestRedefinedCalleeMissesTheClassCheck: r(x) = q(x) + 1 compiled against
// "q returns an integer in a register" keeps running while q is redefined
// to return a matrix, a complex, or a real where the integer was
// promised. The callee now hands back a box or an F register; the I
// destination's fetch misses, the activation is abandoned, the
// interpreter answers — identically — and the journal says why, once.
func TestRedefinedCalleeMissesTheClassCheck(t *testing.T) {
	for name, body := range map[string]string{
		"matrix":   "y = [x 2 3];",
		"complex":  "y = x + 2i;",
		"F for I":  "y = x * 0.5;",
		"F whole":  "y = x * 1.0;",
		"nothing":  "if x > 100, y = [x 1]; end",
		"I > 2^53": "y = x + 9007199254740992;",
	} {
		t.Run(name, func(t *testing.T) {
			journal := telemetry.NewJournal(64)
			e := New(Options{Tier: TierJIT, Journal: journal})
			defer e.Close()
			stale := typedCaller(t, e)
			if err := e.Define("function y = q(x)\n  " + body + "\n  return;\nend"); err != nil {
				t.Fatal(err)
			}
			args := []*mat.Value{mat.Scalar(3)}
			// The new q, compiled: what the stale caller meets is compiled
			// code returning in the class of its new body.
			if _, err := e.Call("q", args, 1); err != nil {
				t.Fatal(err)
			}
			want, err := e.Interpret("r", args, 1)
			if err != nil {
				t.Fatal(err)
			}
			before := journal.Total()
			ops, err := e.repo.runEntry(stale, e.repo.r.State("r"), vm.Boxed(nil, args), 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := ops[0].Box(); !sameValue(got, want[0]) {
				t.Fatalf("stale activation returned %s, interpreter %s", describeValue(got), describeValue(want[0]))
			}
			var deopts []telemetry.Event
			for _, ev := range journal.Events() {
				if ev.Kind == telemetry.EventDeopt {
					deopts = append(deopts, ev)
				}
			}
			if journal.Total()-before != 1 || len(deopts) != 1 || deopts[0].Cause != telemetry.CauseReturnGuard || deopts[0].Func != "r" {
				t.Fatalf("journal after the miss: %d new events, deopts %v; want one return-guard deopt of r", journal.Total()-before, deopts)
			}
		})
	}
}

// TestStagedParameterMismatchKeepsItsError: the locator never sends a
// fraction to an entry compiled for an integer, but the binding still
// checks, with the words it has always used.
func TestStagedParameterMismatchKeepsItsError(t *testing.T) {
	e := New(Options{Tier: TierJIT})
	defer e.Close()
	if err := e.Define(typedCallsSrc); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Call("inc", []*mat.Value{mat.Scalar(3)}, 1); err != nil {
		t.Fatal(err)
	}
	var intEntry *repo.Entry
	for _, entry := range e.Repo().Entries("inc") {
		if entry.Code != nil && entry.Code.P.Params[0].Bank == ir.BankI {
			intEntry = entry
		}
	}
	if intEntry == nil {
		t.Fatal("inc(3) did not compile an entry with an I parameter")
	}
	for name, arg := range map[string]vm.Operand{
		"staged F":   {F: 1.5, Bank: ir.BankF},
		"boxed":      {V: mat.Scalar(1.5)},
		"staged NaN": {F: math.NaN(), Bank: ir.BankF},
	} {
		_, err := vm.Run(intEntry.Code, e, []vm.Operand{arg}, nil)
		if err == nil || !strings.Contains(err.Error(), "inc parameter 1: expected integer scalar") {
			t.Errorf("%s into an I parameter: err = %v", name, err)
		}
	}
	outs, err := vm.Run(intEntry.Code, e, []vm.Operand{{F: 4, Bank: ir.BankF}}, nil)
	if err != nil || outs[0].Bank != ir.BankI || outs[0].I != 5 {
		t.Errorf("an integral F into an I parameter: %+v, %v", outs, err)
	}
}
