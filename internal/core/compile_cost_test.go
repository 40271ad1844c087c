package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/codegen"
	"repro/internal/disambig"
	"repro/internal/infer"
	"repro/internal/inline"
	"repro/internal/ir"
	"repro/internal/mat"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/regalloc"
	"repro/internal/types"
)

// The three ways a program grows. Every loop carries invariant work, so
// LICM, copy propagation and DCE all have something to do in each.

// siblingLoops is k loops one after the other.
func siblingLoops(k int) string {
	var b strings.Builder
	b.WriteString("function s = f(n)\n  s = 0;\n")
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&b, "  for i%d = 1:n\n    a%d = n * %d + 1;\n    s = s + a%d * i%d;\n  end\n", i, i, i, i, i)
	}
	b.WriteString("end\n")
	return b.String()
}

// nestedLoops is one nest d loops deep, invariants at every level.
func nestedLoops(d int) string {
	var b strings.Builder
	b.WriteString("function s = f(n)\n  s = 0;\n")
	for i := 1; i <= d; i++ {
		in := strings.Repeat("  ", i)
		fmt.Fprintf(&b, "%sfor i%d = 1:n\n%s  a%d = n * %d + 1;\n%s  b%d = a%d * 2 + n;\n%s  s = s + b%d * i%d;\n", in, i, in, i, i, in, i, i, in, i, i)
	}
	fmt.Fprintf(&b, "%ss = s + a%d * i%d;\n", strings.Repeat("  ", d+1), d, d)
	for i := d; i >= 1; i-- {
		fmt.Fprintf(&b, "%send\n", strings.Repeat("  ", i))
	}
	b.WriteString("end\n")
	return b.String()
}

// longBody is one loop whose body is n statements, each an invariant
// computed from the one before.
func longBody(n int) string {
	var b strings.Builder
	b.WriteString("function s = f(n)\n  s = 0;\n  for i = 1:n\n    t0 = n + 1;\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "    t%d = t%d * 2 + n;\n", i, i-1)
	}
	fmt.Fprintf(&b, "    s = s + t%d * i;\n  end\nend\n", n)
	return b.String()
}

// stages holds one function at every point of the pipeline a pass
// starts from.
type stages struct {
	src    string
	fn     *ast.Function
	nodes  int // the AST nodes of fn
	sig    types.Signature
	g      *cfg.Graph
	tbl    *disambig.Table
	params map[string]types.Type
	prog   *ir.Prog // selected code, not yet optimised or allocated
}

func stagesOf(t *testing.T, src string) *stages {
	t.Helper()
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s := &stages{src: src, fn: file.Funcs[0], sig: types.SignatureOf([]*mat.Value{mat.IntScalar(10)})}
	ast.Walk(s.fn, func(ast.Node) bool { s.nodes++; return true })
	work := ast.CloneFunction(s.fn)
	s.g = cfg.Build(work.Body)
	s.tbl = disambig.Analyze(s.g, work.Ins, nil)
	s.params = map[string]types.Type{work.Ins[0]: s.sig[0]}
	ccfg := codegen.DefaultConfig()
	ccfg.UnrollLoops = 2 // the SPARC backend's
	if s.prog, err = codegen.Compile(work, infer.Forward(s.g, s.params, infer.Opts{}), s.tbl, ccfg); err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *stages) fresh() *ir.Prog {
	p := *s.prog
	p.Ins = append([]ir.Instr(nil), s.prog.Ins...)
	p.Params = append([]ir.ParamBinding(nil), s.prog.Params...)
	return &p
}

// TestCompileCostIsLinear states the compiler's cost contract: when a
// program doubles, whichever way it grows, no phase allocates more per
// instruction produced than it did before (twice the code, at most 2.2
// times the allocations), and the optimiser and the allocator — whose
// scratch is a fixed number of tables — stay under a flat budget per
// hundred instructions. The front end's parser, clone, graph and inliner,
// which allocate per kind of node rather than per node, stay under the
// same budget per hundred AST nodes. The measure is per instruction because the
// families do not exactly double (only an innermost loop is unrolled, so
// a nest twice as deep is a little under twice the code). Allocation
// counts are exact, so the test is deterministic; time follows them
// (BenchmarkCompile reports it).
func TestCompileCostIsLinear(t *testing.T) {
	families := []struct {
		name         string
		src          func(int) string
		small, large int
	}{
		{"sibling loops", siblingLoops, 40, 80},
		{"nested loops", nestedLoops, 8, 16},
		{"long body", longBody, 150, 300},
	}
	// slack is for slices and maps that grow by doubling.
	const slack = 1.1
	// budget is allocations per hundred instructions produced, plus the
	// fixed tables.
	const budget, fixed = 1.0, 64.0
	e := New(Options{Tier: TierFalcon})
	defer e.Close()
	for _, fam := range families {
		small, large := stagesOf(t, fam.src(fam.small)), stagesOf(t, fam.src(fam.large))
		grew := float64(len(large.prog.Ins)) / float64(len(small.prog.Ins))
		if grew < 1.7 {
			t.Fatalf("%s: doubling the parameter grew the code only ×%.2f", fam.name, grew)
		}
		phases := []struct {
			name string
			run  func(*stages)
			flat bool // also held to the per-instruction budget
			// perNode holds a flat phase to the budget per AST node.
			perNode bool
		}{
			{name: "parser.Parse", flat: true, perNode: true, run: func(s *stages) { parser.Parse(s.src) }},
			{name: "ast.CloneFunction", flat: true, perNode: true, run: func(s *stages) { ast.CloneFunction(s.fn) }},
			{name: "cfg.Build", flat: true, perNode: true, run: func(s *stages) { cfg.Build(s.fn.Body) }},
			{name: "inline.ExpandDeps", flat: true, perNode: true, run: func(s *stages) { inline.ExpandDeps(s.fn, e) }},
			{name: "disambig.Analyze", run: func(s *stages) { disambig.Analyze(s.g, s.fn.Ins, nil) }},
			{name: "infer.Forward", run: func(s *stages) { infer.Forward(s.g, s.params, infer.Opts{}) }},
			{name: "opt.Run", flat: true, run: func(s *stages) { opt.Run(s.fresh()) }},
			{name: "regalloc.Allocate", flat: true, run: func(s *stages) { regalloc.Allocate(s.fresh(), regalloc.DefaultOptions()) }},
			{name: "regalloc.Allocate(SpillAll)", flat: true, run: func(s *stages) {
				regalloc.Allocate(s.fresh(), regalloc.Options{FRegs: 24, IRegs: 24, CRegs: 8, SpillAll: true})
			}},
			{name: "Engine.compile", run: func(s *stages) {
				if _, err := e.compile(s.fn, s.sig, pipelineOpts{optimize: true}, nil, nil); err != nil {
					t.Fatal(err)
				}
			}},
		}
		for _, ph := range phases {
			a := testing.AllocsPerRun(3, func() { ph.run(small) })
			b := testing.AllocsPerRun(3, func() { ph.run(large) })
			t.Logf("%-14s %-28s %6.0f -> %6.0f allocations (×%.2f) for %5d -> %5d instructions (×%.2f)",
				fam.name, ph.name, a, b, b/a, len(small.prog.Ins), len(large.prog.Ins), grew)
			if b > slack*grew*a {
				t.Errorf("%s, %s: %.0f allocations at size %d, %.0f at size %d: ×%.2f for ×%.2f the code",
					fam.name, ph.name, a, fam.small, b, fam.large, b/a, grew)
			}
			size, unit := len(large.prog.Ins), "instructions"
			if ph.perNode {
				size, unit = large.nodes, "AST nodes"
			}
			if limit := fixed + budget*float64(size)/100; ph.flat && b > limit {
				t.Errorf("%s, %s: %.0f allocations for %d %s, budget %.0f",
					fam.name, ph.name, b, size, unit, limit)
			}
		}
	}
}

// callSites is a caller with k call sites of a small callee, each of
// whose arguments the callee's written parameter copies: k splices.
func callSites(k int) string {
	var b strings.Builder
	b.WriteString("function s = f(n)\n  s = 0;\n")
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&b, "  s = s + sq(n + %d);\n", i)
	}
	b.WriteString("end\nfunction y = sq(a)\n  a = a + 1;\n  y = a * a;\nend\n")
	return b.String()
}

// selfCalls is a function that calls itself c times, which inlines to
// MaxRecursion levels: c + c² + c³ splices.
func selfCalls(c int) string {
	var b strings.Builder
	b.WriteString("function y = r(n)\n  if n < 2\n    y = n;\n  else\n    y = 0")
	for i := 1; i <= c; i++ {
		fmt.Fprintf(&b, " + r(n - %d)", i)
	}
	b.WriteString(";\n  end\nend\n")
	return b.String()
}

// TestSpliceCostIsFlat states the inliner's cost contract: a splice
// allocates per kind of node, from slabs the expansion shares, and not
// per call site. When a program grows by splices, a callee's call sites
// doubled or a recursion three levels deep made wider, inline.ExpandDeps
// allocates less than one object more per splice added: its slabs grow
// by whole arrays, about log2 of the splices per kind.
func TestSpliceCostIsFlat(t *testing.T) {
	const perSplice = 1.0
	for _, fam := range []struct {
		name         string
		src          func(int) string
		splices      func(int) int
		small, large int
	}{
		{"call sites", callSites, func(k int) int { return k }, 32, 64},
		{"recursion", selfCalls, func(c int) int { return c + c*c + c*c*c }, 2, 3},
	} {
		allocs := func(n int) float64 {
			file, err := parser.Parse(fam.src(n))
			if err != nil {
				t.Fatal(err)
			}
			res := mapResolver{}
			for _, f := range file.Funcs {
				res[f.Name] = f
			}
			fn := file.Funcs[0]
			if _, deps, _, _ := inline.ExpandDeps(fn, res); len(deps) != 1 {
				t.Fatalf("%s at %d: spliced %d callees, want 1", fam.name, n, len(deps))
			}
			return testing.AllocsPerRun(5, func() { inline.ExpandDeps(fn, res) })
		}
		a, b := allocs(fam.small), allocs(fam.large)
		added := fam.splices(fam.large) - fam.splices(fam.small)
		t.Logf("%-10s %6.0f -> %6.0f allocations for %3d -> %3d splices: %.2f an added splice",
			fam.name, a, b, fam.splices(fam.small), fam.splices(fam.large), (b-a)/float64(added))
		if b-a > perSplice*float64(added) {
			t.Errorf("%s: %.0f allocations for %d splices, %.0f for %d: %.2f an added splice, budget %.0f",
				fam.name, a, fam.splices(fam.small), b, fam.splices(fam.large), (b-a)/float64(added), perSplice)
		}
	}
}

// mapResolver resolves the functions of one file.
type mapResolver map[string]*ast.Function

func (m mapResolver) LookupFunction(name string) *ast.Function { return m[name] }

// TestZeroTripLoopsKeepValues runs what LICM's preheaders must not
// disturb: a loop that never runs leaves the variables it would have
// assigned as they were, in optimised code as in the interpreter.
func TestZeroTripLoopsKeepValues(t *testing.T) {
	const src = `
function y = f(m)
  t = 5;
  k = 7;
  for i = 1:m
    t = m * 2 + 1;
    for j = 1:m-2
      k = k + m * 3;
    end
  end
  y = t * 100 + k;
end`
	for _, m := range []float64{0, 1, 2, 3} {
		var want float64
		for _, tier := range []Tier{TierInterp, TierJIT, TierFalcon, TierSpec} {
			e := New(Options{Tier: tier})
			if err := e.Define(src); err != nil {
				t.Fatal(err)
			}
			e.Precompile()
			outs, err := e.Call("f", []*mat.Value{mat.Scalar(m)}, 1)
			if err != nil {
				t.Fatalf("[%s] f(%v): %v", tier, m, err)
			}
			got, _ := outs[0].Scalar()
			if tier == TierInterp {
				want = got
			} else if got != want {
				t.Errorf("[%s] f(%v) = %v, want %v", tier, m, got, want)
			}
			e.Close()
		}
	}
}
