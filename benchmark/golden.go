package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mat"
)

// golden.json holds, under "results", per "program/size" the result the
// interpreter produces — never a compiled tier's, so the reference is
// independent of the compiler under test; -update-golden rewrites it.
// Under "inexact" it names the programs whose compiled results are
// known to differ from the interpreter's in bits, and why; that list is
// edited by hand and -update-golden keeps it.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Inexact map[string]string    `json:"inexact"`
	Results map[string]reference `json:"results"`
}

// reference is what a result is checked against: the hash of its kind,
// shape and float bits, and, for results of up to valuesMax elements,
// the values themselves.
//
// A result is correct when its hash is the reference's: the tiers
// promise bit-identical results. At the seed commit they do not quite
// deliver them — the compiled tiers return fractal one ulp off the
// interpreter and fibonacci as kind int where the interpreter returns
// double. golden.json lists those two programs as inexact; for them,
// and for no other, a result whose values agree within tolerance counts
// as correct and the row is listed as inexact. A later change that
// makes any other program drift from the interpreter fails the run.
type reference struct {
	Kind   string    `json:"kind"`
	Rows   int       `json:"rows"`
	Cols   int       `json:"cols"`
	Values []float64 `json:"values,omitempty"`
	Bits   string    `json:"bits"`
	// inexactOK is set when golden.json lists the program as inexact.
	inexactOK bool
}

func loadGolden() (map[string]reference, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	for key, ref := range g.Results {
		prog, _, _ := strings.Cut(key, "/")
		_, ref.inexactOK = g.Inexact[prog]
		g.Results[key] = ref
	}
	return g.Results, nil
}

func goldenKey(name string, sz bench.Size) string { return name + "/" + sz.String() }

// valuesMax is the element count up to which a reference carries the
// values beside their hash.
const valuesMax = 16

// describe builds the reference form of one result value.
func describe(v *mat.Value) (reference, error) {
	if v.IsSparse() {
		d, err := v.Dense()
		if err != nil {
			return reference{}, err
		}
		v = d
	}
	h := uint64(14695981039346656037) // FNV-64a
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	mix(uint64(v.Kind()))
	mix(uint64(v.Rows()))
	mix(uint64(v.Cols()))
	// The values are read in place: a copy here would count a result's
	// size against the workload's alloc_kb_per_op.
	ref := reference{Kind: v.Kind().String(), Rows: v.Rows(), Cols: v.Cols()}
	re, im := v.Re(), v.Im()
	small := len(re)+len(im) <= valuesMax
	for _, part := range [][]float64{re, im} {
		for _, x := range part {
			mix(math.Float64bits(x))
			if small {
				ref.Values = append(ref.Values, x)
			}
		}
	}
	ref.Bits = fmt.Sprintf("%016x", h)
	return ref, nil
}

// tolerance is the relative error an inexact program's result may have
// against the interpreter's.
const tolerance = 1e-9

func closeEnough(a, b float64) bool {
	if a == b || (a != a && b != b) {
		return true
	}
	return math.Abs(a-b) <= tolerance*math.Max(math.Abs(a), math.Abs(b))
}

// errInexact marks a result of a program golden.json lists as inexact
// that is correct within tolerance but not bit-for-bit (or not of the
// reference's kind).
var errInexact = errors.New("correct within tolerance, not bit-identical")

// checkResult compares an op's single output with the reference. It
// returns nil for a bit-identical result, errInexact for one within
// tolerance when the program is listed as inexact, and any other error
// for a wrong one.
func checkResult(outs []*mat.Value, err error, want reference) error {
	if err != nil {
		return err
	}
	if len(outs) != 1 {
		return fmt.Errorf("%d outputs, want 1", len(outs))
	}
	got, err := describe(outs[0])
	if err != nil {
		return err
	}
	if got.Bits == want.Bits {
		return nil
	}
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("result is %dx%d, reference %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if !want.inexactOK || len(want.Values) == 0 || len(got.Values) != len(want.Values) {
		return fmt.Errorf("result %s %v is not bit-identical to the interpreter's %s %v", got.Kind, got.Values, want.Kind, want.Values)
	}
	for i, x := range got.Values {
		if !closeEnough(x, want.Values[i]) {
			return fmt.Errorf("result[%d] = %v, reference %v", i, x, want.Values[i])
		}
	}
	return errInexact
}

// interpReference runs src's entry function under TierInterp and
// describes the result.
func interpReference(src, fn string, args []*mat.Value) (reference, error) {
	e := core.New(armInterp.options(nil))
	defer e.Close()
	if err := e.Define(src); err != nil {
		return reference{}, err
	}
	outs, err := e.Call(fn, args, 1)
	if err != nil {
		return reference{}, err
	}
	return describe(outs[0])
}

// updateGolden regenerates golden.json in dir: all 16 Table 1 programs
// and the three kernel programs at small and medium.
func updateGolden(dir string) error {
	names := append(table1Names(), "matmul", "elemchain", "spcg")
	progs, err := lookupPrograms(names)
	if err != nil {
		return err
	}
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	g.Results = make(map[string]reference)
	for _, sz := range []bench.Size{bench.Small, bench.Medium} {
		for _, p := range progs {
			h, err := interpReference(p.source(sz), p.fn, p.args(sz))
			if err != nil {
				return fmt.Errorf("%s: %w", goldenKey(p.name, sz), err)
			}
			g.Results[goldenKey(p.name, sz)] = h
			fmt.Printf("%-20s %s %dx%d %s\n", goldenKey(p.name, sz), h.Kind, h.Rows, h.Cols, h.Bits)
		}
	}
	out, err := json.MarshalIndent(g, "", "  ") // map keys marshal sorted
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "golden.json"), append(out, '\n'), 0o644)
}
