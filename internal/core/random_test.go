package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/disambig"
	"repro/internal/infer"
	"repro/internal/parser"
	"repro/internal/types"
)

// progGen generates random MATLAB programs in the supported subset.
// Every variable is defined before use, so the programs always pass the
// disambiguator; value magnitudes are kept tame so float comparisons
// stay meaningful.
type progGen struct {
	r          *rand.Rand
	scalars    []string
	vectors    map[string]int // name → fixed length
	buf        strings.Builder
	depth      int
	loopVar    int
	nextScalar int
}

func newProgGen(seed int64) *progGen {
	return &progGen{r: rand.New(rand.NewSource(seed)), vectors: map[string]int{}}
}

func (g *progGen) line(format string, args ...any) {
	g.buf.WriteString(strings.Repeat("  ", g.depth))
	fmt.Fprintf(&g.buf, format, args...)
	g.buf.WriteString("\n")
}

// scalarExpr produces an expression over defined scalars.
func (g *progGen) scalarExpr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprintf("%d", g.r.Intn(9)-4)
		case 1:
			return fmt.Sprintf("%.2f", g.r.Float64()*4-2)
		default:
			if len(g.scalars) == 0 {
				return fmt.Sprintf("%d", g.r.Intn(5))
			}
			return g.scalars[g.r.Intn(len(g.scalars))]
		}
	}
	switch g.r.Intn(7) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.scalarExpr(depth-1), g.scalarExpr(depth-1))
	case 1:
		return fmt.Sprintf("(%s - %s)", g.scalarExpr(depth-1), g.scalarExpr(depth-1))
	case 2:
		return fmt.Sprintf("(%s * %s)", g.scalarExpr(depth-1), g.scalarExpr(depth-1))
	case 3:
		return fmt.Sprintf("abs(%s)", g.scalarExpr(depth-1))
	case 4:
		return fmt.Sprintf("floor(%s)", g.scalarExpr(depth-1))
	case 5:
		return fmt.Sprintf("sin(%s)", g.scalarExpr(depth-1))
	default:
		if len(g.vectors) > 0 {
			// read a vector element with a safe literal index
			for name, n := range g.vectors {
				return fmt.Sprintf("%s(%d)", name, 1+g.r.Intn(n))
			}
		}
		return fmt.Sprintf("(%s / 2)", g.scalarExpr(depth-1))
	}
}

func (g *progGen) stmt(budget int) {
	switch g.r.Intn(10) {
	case 0, 1, 2, 3:
		// scalar assignment; fresh names only at top level so every
		// variable is defined on all paths. The RHS is generated before
		// the name enters scope so it never references itself undefined.
		rhs := g.scalarExpr(2)
		var name string
		if (len(g.scalars) > 0 && g.r.Intn(2) == 0) || g.depth > 0 {
			name = g.scalars[g.r.Intn(len(g.scalars))]
		} else {
			name = fmt.Sprintf("s%d", g.nextScalar)
			g.nextScalar++
			g.scalars = append(g.scalars, name)
		}
		g.line("%s = %s;", name, rhs)
	case 4:
		// new vector (top level only)
		if g.depth > 0 {
			g.stmt(0)
			return
		}
		name := fmt.Sprintf("v%d", len(g.vectors))
		n := 2 + g.r.Intn(5)
		g.vectors[name] = n
		g.line("%s = zeros(1, %d);", name, n)
	case 5:
		// vector element store with literal index (always in bounds)
		for name, n := range g.vectors {
			g.line("%s(%d) = %s;", name, 1+g.r.Intn(n), g.scalarExpr(1))
			return
		}
		g.stmt(budget)
	case 6:
		if budget > 0 && g.depth < 2 {
			n := 1 + g.r.Intn(4)
			v := fmt.Sprintf("k%d", g.loopVar)
			g.loopVar++
			// Every way a range can be written (DESIGN §19): the loop
			// variable is bound before a range that may be empty, so
			// reading it afterwards is defined — and shows that an empty
			// range leaves it alone.
			header := fmt.Sprintf("1:%d", n)
			switch g.r.Intn(9) {
			case 0:
				header = fmt.Sprintf("%d:-1:1", n)
			case 1:
				header = fmt.Sprintf("1:2:%d", 2*n)
			case 2:
				header = fmt.Sprintf("%d:-2:%d", n, -n)
			case 3:
				header = fmt.Sprintf("0:0.5:%d", n)
			case 4:
				g.line("%s = %d;", v, g.r.Intn(5))
				header = fmt.Sprintf("%d:%d", n+1, n-1)
			case 5:
				g.line("t%s = %d;", v, 1+g.r.Intn(3))
				header = fmt.Sprintf("1:t%s:%d", v, 2*n)
			}
			g.line("for %s = %s", v, header)
			conditional := g.depth > 0
			g.scalars = append(g.scalars, v)
			g.depth++
			for i := 0; i < 1+g.r.Intn(3); i++ {
				g.stmt(budget - 1)
			}
			if jump := g.r.Intn(6); jump < 2 {
				g.line("if %s > %d", v, g.r.Intn(3))
				g.line("  %s;", [...]string{"break", "continue"}[jump])
				g.line("end")
			}
			g.depth--
			g.line("end")
			if conditional {
				// a loop nested in a branch may never run its header;
				// drop its variable from the visible scope
				g.scalars = g.scalars[:len(g.scalars)-1]
			}
		} else {
			g.stmt(0)
		}
	case 7:
		if budget > 0 && g.depth < 2 {
			g.line("if %s > 0", g.scalarExpr(1))
			g.depth++
			g.stmt(budget - 1)
			g.depth--
			if g.r.Intn(2) == 0 {
				g.line("else")
				g.depth++
				g.stmt(budget - 1)
				g.depth--
			}
			g.line("end")
		} else {
			g.stmt(0)
		}
	case 8:
		if g.r.Intn(2) == 0 {
			// bounded while loop with a dedicated counter; the counter
			// stays out of the generator's scope inside the body so no
			// generated statement can reassign it (which would loop
			// forever at run time)
			if budget > 0 && g.depth < 2 {
				w := fmt.Sprintf("w%d", g.loopVar)
				g.loopVar++
				n := 1 + g.r.Intn(5)
				g.line("%s = 0;", w)
				g.line("while %s < %d", w, n)
				g.depth++
				g.stmt(budget - 1)
				g.line("%s = %s + 1;", w, w)
				g.depth--
				g.line("end")
				if g.depth == 0 {
					// counters born inside branches stay out of scope
					g.scalars = append(g.scalars, w)
				}
				return
			}
			g.stmt(0)
			return
		}
		if g.r.Intn(2) == 0 {
			// sweep a vector with a variable index (in-bounds by
			// construction): reads and writes through the loop variable
			for name, n := range g.vectors {
				if g.depth >= 2 {
					break
				}
				v := fmt.Sprintf("k%d", g.loopVar)
				g.loopVar++
				g.line("for %s = 1:%d", v, n)
				g.depth++
				g.line("%s(%s) = %s(%s) + %s;", name, v, name, v, g.scalarExpr(1))
				g.depth--
				g.line("end")
				return
			}
		}
		// vector arithmetic between same-length vectors
		var names []string
		var length int
		for name, n := range g.vectors {
			if length == 0 {
				length = n
			}
			if n == length {
				names = append(names, name)
			}
		}
		if len(names) >= 2 {
			g.line("%s = %s + %s;", names[0], names[0], names[1])
		} else {
			g.stmt(0)
		}
	default:
		// scalar update through min/max/mod
		if len(g.scalars) > 0 {
			s := g.scalars[g.r.Intn(len(g.scalars))]
			g.line("%s = max(min(%s, 100), -100);", s, s)
		} else {
			g.stmt(0)
		}
	}
}

// generate returns a random script plus the names of its variables.
func (g *progGen) generate(stmts int) string {
	g.line("s0 = 1;")
	g.scalars = append(g.scalars, "s0")
	g.nextScalar = 1
	for i := 0; i < stmts; i++ {
		g.stmt(2)
	}
	return g.buf.String()
}

// TestInferenceSoundnessRandom: for random programs, the dynamic type
// of every variable observed after interpretation must be a subtype of
// its inferred static annotation — the central soundness property of
// the paper's "conservative estimate" claim.
func TestInferenceSoundnessRandom(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		g := newProgGen(seed)
		src := g.generate(12)

		file, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
		}
		graph := cfg.Build(file.Stmts)
		tbl := disambig.Analyze(graph, nil, nil)
		if tbl.HasAmbiguous {
			continue // generator shouldn't produce these, but skip safely
		}
		res := infer.Forward(graph, map[string]types.Type{}, infer.Opts{})

		e := New(Options{Tier: TierInterp, Seed: uint64(seed) + 1})
		if err := e.EvalString(src); err != nil {
			t.Fatalf("seed %d: eval: %v\n%s", seed, err, src)
		}
		for name := range tbl.Vars {
			v, ok := e.Workspace(name)
			if !ok {
				continue // e.g. loop over empty range left it unset
			}
			static, ok := res.Vars[name]
			if !ok {
				t.Errorf("seed %d: %s has no static type\n%s", seed, name, src)
				continue
			}
			dynamic := types.OfValue(v)
			if !types.Leq(dynamic, static) {
				t.Errorf("seed %d: %s: dynamic %v ⊄ static %v\n%s",
					seed, name, dynamic, static, src)
			}
		}
	}
}

// TestTierEquivalenceRandom: random programs wrapped into functions must
// produce identical results under every execution tier.
// generatedFunction is `function out = f()` around a generated body,
// returning a checksum over all its scalars and vectors.
func generatedFunction(seed int64) string {
	g := newProgGen(seed)
	body := g.generate(12)
	var sum strings.Builder
	sum.WriteString("  out = 0;\n")
	for _, s := range g.scalars {
		fmt.Fprintf(&sum, "  out = out + %s;\n", s)
	}
	for v := range g.vectors {
		fmt.Fprintf(&sum, "  out = out + sum(%s);\n", v)
	}
	return "function out = f()\n" + body + sum.String() + "end\n"
}

func TestTierEquivalenceRandom(t *testing.T) {
	for seed := int64(200); seed < 280; seed++ {
		src := generatedFunction(seed)

		run := func(tier Tier) (float64, error) {
			e := New(Options{Tier: tier, Seed: 99})
			if err := e.Define(src); err != nil {
				return 0, err
			}
			e.Precompile()
			outs, err := e.Call("f", nil, 1)
			if err != nil {
				return 0, err
			}
			return outs[0].Scalar()
		}
		want, err := run(TierInterp)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		for _, tier := range []Tier{TierMCC, TierFalcon, TierJIT, TierSpec} {
			got, err := run(tier)
			if err != nil {
				t.Fatalf("seed %d [%s]: %v\n%s", seed, tier, err, src)
			}
			if !scalarClose(want, got) {
				t.Errorf("seed %d [%s]: %g != %g\n%s", seed, tier, got, want, src)
			}
		}
	}
}
