package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/repo"
	"repro/internal/telemetry"
)

// TestPlaceholderCompilesItsSignature: a placeholder is parked at the
// widened signature of its kind tuple, and its tier-up compiles exactly
// that signature. So every entry that replaced a placeholder carries the
// placeholder's key, no call of the tuple misses afterwards, and no
// function holds two compiled entries of one kind tuple.
//
// Every Table 1 program loops or recurses, so it compiles on its first
// call; the placeholders here belong to a loop-free wrapper that passes
// each program its Table 1 arguments, one kind tuple per program.
func TestPlaceholderCompilesItsSignature(t *testing.T) {
	promotions := 0
	for _, b := range bench.All() {
		j := telemetry.NewJournal(1024)
		// A library without a pool compiles promotions inline, at a point
		// the program fixes.
		lib := core.NewLibrary(core.LibraryOptions{Journal: j})
		e := core.New(core.Options{Tier: core.TierJIT, Tiered: true, Seed: 12345, Library: lib})
		args := b.Args(bench.Small)
		if err := e.Define(b.Source(bench.Small) + wrapper(b.Fn, len(args))); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for call := 0; call <= core.DefaultTierThreshold; call++ {
			e.Context().RNG.Seed(12345)
			if _, err := e.Call("parked", args, 1); err != nil {
				t.Fatalf("%s call %d: %v", b.Name, call, err)
			}
		}
		for _, ev := range j.Events() {
			if ev.Kind != telemetry.EventPromotion || ev.Cause != "hot-signature" {
				continue
			}
			promotions++
			if parked := strings.TrimPrefix(ev.Detail, "replaces "); ev.Sig != parked {
				t.Errorf("%s: %s's placeholder %s was replaced by code compiled for %s", b.Name, ev.Func, parked, ev.Sig)
			}
		}
		for _, fn := range e.Functions() {
			compiled := map[string]string{}
			for _, en := range e.Repo().Entries(fn) {
				if en.Code == nil {
					continue
				}
				kinds := kindTuple(en)
				if other, dup := compiled[kinds]; dup {
					t.Errorf("%s: %s holds two compiled entries of kinds %s: %s and %s", b.Name, fn, kinds, other, en.Sig.Key())
				}
				compiled[kinds] = en.Sig.Key()
			}
		}
		e.Close()
	}
	if promotions == 0 {
		t.Fatal("no placeholder tiered up")
	}
}

// wrapper is a loop-free function parked that calls fn with its n
// arguments and returns its result.
func wrapper(fn string, n int) string {
	params := make([]string, n)
	for i := range params {
		params[i] = fmt.Sprintf("a%d", i+1)
	}
	list := strings.Join(params, ", ")
	return fmt.Sprintf("\nfunction y = parked(%s)\n  y = %s(%s);\nend\n", list, fn, list)
}

// kindTuple renders an entry's arity and the intrinsic kind of each
// parameter: what the widening policy keys a family of signatures on.
func kindTuple(en *repo.Entry) string {
	var b strings.Builder
	for _, t := range en.Sig {
		fmt.Fprintf(&b, "%v;", t.I)
	}
	return b.String()
}
