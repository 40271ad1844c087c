package builtins_test

import (
	"fmt"
	"testing"

	"repro/internal/builtins"
	"repro/internal/mat"
	"repro/internal/vm/vmtest"
)

// TestBuiltinResultsNeverAliasArguments checks the half of the
// single-owner invariant (DESIGN.md §10) that the builtins owe compiled
// code: a result is never one of the arguments, nor built on an
// argument's storage. Compiled code overwrites dead temporaries in
// place; a builtin that returned its argument would let such a write
// reach a live variable. Every registered builtin is called with every
// combination of up to three arguments from a pool of shapes and kinds;
// a call that fails is not of interest here, as long as it fails with an
// error: one that panics is a missing argument check, and fails the test.
func TestBuiltinResultsNeverAliasArguments(t *testing.T) {
	sp, err := mat.FromSlice(3, 3, []float64{4, 0, 0, 0, 5, 1, 0, 1, 6}).Sparse()
	if err != nil {
		t.Fatal(err)
	}
	pool := map[string]func() *mat.Value{
		"matrix":  func() *mat.Value { return mat.FromSlice(3, 3, []float64{4, 1, 0, 1, 5, 1, 0, 1, 6}) },
		"column":  func() *mat.Value { return mat.FromSlice(3, 1, []float64{1, 2, 3}) },
		"row":     func() *mat.Value { return mat.FromSlice(1, 3, []float64{3, 1, 2}) },
		"scalar":  func() *mat.Value { return mat.Scalar(2) },
		"int":     func() *mat.Value { return mat.IntScalar(3) },
		"bool":    func() *mat.Value { return mat.BoolScalar(true) },
		"complex": func() *mat.Value { return mat.ComplexScalar(complex(1, 2)) },
		"string":  func() *mat.Value { return mat.FromString("abc") },
		"empty":   func() *mat.Value { return mat.Empty() },
		"sparse":  func() *mat.Value { return sp.Clone() },
	}
	var kinds []string
	for k := range pool {
		kinds = append(kinds, k)
	}
	ctx := builtins.NewContext()
	calls := 0
	for _, name := range builtins.Names() {
		if name == "error" {
			continue // its only effect is the failure
		}
		b := builtins.Lookup(name)
		maxArgs := b.MaxArgs
		if maxArgs < 0 || maxArgs > 3 {
			maxArgs = 3
		}
		for n := b.MinArgs; n <= maxArgs; n++ {
			combos := 1
			for i := 0; i < n; i++ {
				combos *= len(kinds)
			}
			for c := 0; c < combos; c++ {
				args := make([]*mat.Value, n)
				label := name + "("
				for i, rest := 0, c; i < n; i, rest = i+1, rest/len(kinds) {
					k := kinds[rest%len(kinds)]
					args[i] = pool[k]()
					label += k + " "
				}
				outs, err := call(ctx, b, args, b.MaxOuts)
				if err != nil {
					outs, err = call(ctx, b, args, 1)
				}
				if err != nil {
					// A malformed call fails with an error, in every tier the
					// same one; a panic would take the whole process down.
					if _, crashed := err.(panicked); crashed {
						t.Errorf("%s): %v", label, err)
					}
					continue
				}
				calls++
				for oi, out := range outs {
					for ai, arg := range args {
						if out == nil {
							continue
						}
						if out == arg {
							t.Errorf("%s): output %d is argument %d", label, oi, ai)
						} else if vmtest.SharesStorage(out, arg) {
							t.Errorf("%s): output %d is built on argument %d's storage", label, oi, ai)
						}
					}
				}
			}
		}
	}
	if calls < 1000 {
		t.Fatalf("only %d calls succeeded: the argument pool no longer fits the builtins", calls)
	}
}

type panicked struct{ error }

func call(ctx *builtins.Context, b *builtins.Builtin, args []*mat.Value, nout int) (outs []*mat.Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicked{fmt.Errorf("panic: %v", r)}
		}
	}()
	return builtins.Call(ctx, b, args, nout)
}
