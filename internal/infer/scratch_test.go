package infer_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	mast "repro/internal/ast"
	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/disambig"
	"repro/internal/infer"
	mparser "repro/internal/parser"
	"repro/internal/types"
)

// diffSources reads the MATLAB sources of the core package's
// differential programs: every raw string literal in its
// differential_test.go that defines a function.
func diffSources(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../core/differential_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var srcs []string
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.HasPrefix(lit.Value, "`") {
			if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "function ") {
				srcs = append(srcs, s)
			}
		}
		return true
	})
	if len(srcs) < 50 {
		t.Fatalf("found %d differential programs, want the whole table", len(srcs))
	}
	return srcs
}

// inferCase is one function ready for inference: its graph, with
// disambiguation's verdicts on the nodes, and its parameter types.
type inferCase struct {
	name   string
	g      *cfg.Graph
	params map[string]types.Type
}

func (c inferCase) size() int { return (len(c.g.Blocks) + 2) * len(c.g.Vars) }

// casesOf builds a case for every function of src at each parameter
// type in sigs.
func casesOf(t *testing.T, name, src string, sigs ...types.Type) []inferCase {
	t.Helper()
	file, err := mparser.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	known := map[string]bool{}
	for _, f := range file.Funcs {
		known[f.Name] = true
	}
	var cases []inferCase
	for _, f := range file.Funcs {
		for _, sig := range sigs {
			work := mast.CloneFunction(f)
			g := cfg.Build(work.Body)
			disambig.Analyze(g, work.Ins, disambig.ResolverFunc(func(n string) bool { return known[n] }))
			params := map[string]types.Type{}
			for _, p := range work.Ins {
				params[p] = sig
			}
			cases = append(cases, inferCase{name + "/" + f.Name, g, params})
		}
	}
	return cases
}

// sameType compares two types field by field, ranges by their bits, so
// that a NaN a run left behind is told from a fresh run's value.
func sameType(a, b types.Type) bool {
	return a.I == b.I && a.Sp == b.Sp && a.MinShape == b.MinShape && a.MaxShape == b.MaxShape &&
		math.Float64bits(a.R.Lo) == math.Float64bits(b.R.Lo) && math.Float64bits(a.R.Hi) == math.Float64bits(b.R.Hi)
}

func sameTypes(a, b []types.Type) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameType(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestForwardIgnoresAReusedScratch: Forward's environments come from a
// pool, and a run clears only what it reads ungated. Every function of
// Table 1 and of the differential programs, visited so that the scratch
// alternately grows and shrinks, and each started from a scratch
// poisoned with ⊤ types, NaN ranges and every defined bit set, gets the
// result a run on a new scratch gets.
func TestForwardIgnoresAReusedScratch(t *testing.T) {
	sigs := []types.Type{types.Top, types.ScalarOf(types.IReal, types.RangeTop), types.ScalarOf(types.IInt, types.MkRange(1, 8))}
	var cases []inferCase
	for _, b := range bench.All() {
		cases = append(cases, casesOf(t, b.Name, b.Source(bench.Small), sigs...)...)
	}
	for i, src := range diffSources(t) {
		cases = append(cases, casesOf(t, "diff"+strconv.Itoa(i), src, sigs...)...)
	}
	sort.SliceStable(cases, func(i, j int) bool { return cases[i].size() < cases[j].size() })
	// Smallest, largest, next smallest, next largest, ...
	order := make([]inferCase, 0, len(cases))
	for lo, hi := 0, len(cases)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		order = append(order, cases[lo])
		if lo != hi {
			order = append(order, cases[hi])
		}
	}

	fresh := make([]*infer.Result, len(order))
	for i, c := range order {
		infer.WithNewScratch(func() { fresh[i] = infer.Forward(c.g, c.params, infer.Opts{}) })
	}
	for i, c := range order {
		infer.PoisonScratch()
		got, want := infer.Forward(c.g, c.params, infer.Opts{}), fresh[i]
		switch {
		case !sameTypes(got.Annots, want.Annots):
			t.Errorf("%s: annotations differ on a reused scratch", c.name)
		case !sameTypes(got.Bases, want.Bases):
			t.Errorf("%s: base types differ on a reused scratch", c.name)
		case len(got.Vars) != len(want.Vars):
			t.Errorf("%s: %d variables on a reused scratch, %d on a new one", c.name, len(got.Vars), len(want.Vars))
		case !reflect.DeepEqual(got.Boxed, want.Boxed):
			t.Errorf("%s: boxed %v on a reused scratch, %v on a new one", c.name, got.Boxed, want.Boxed)
		case got.RuleApplications != want.RuleApplications:
			t.Errorf("%s: %d rule applications on a reused scratch, %d on a new one", c.name, got.RuleApplications, want.RuleApplications)
		}
		for name, w := range want.Vars {
			if g, ok := got.Vars[name]; !ok || !sameType(g, w) {
				t.Errorf("%s: variable %s is %v on a reused scratch, %v on a new one", c.name, name, g, w)
			}
		}
	}
}
