// Package infer implements MaJIC's type inference (paper §2.3): an
// iterative join-of-all-paths monotonic dataflow framework over the CFG,
// driven by a type calculator — a database of guarded transfer rules
// evaluated most-restrictive-first, with an implicit ⊤ default. The
// calculator runs forward (JIT inference: argument types → result types)
// and backward (the speculator's hint rules: result/usage constraints →
// argument types).
//
// Cost contract: Forward keeps every block's environment as a row of one
// slab, a type and a defined bit per variable the graph numbers
// (cfg.Graph.VarID), so copying, joining and comparing environments hash
// nothing and allocate nothing, and the worklist is a ring the size of
// the graph. A run allocates that slab and the annotation slices it
// returns, one slot per expression the graph numbers (ast.Expr.ID), so
// recording an annotation hashes nothing either; a block is revisited at
// most a fixed number of times before its out-set is widened.
package infer

import (
	"math"

	"repro/internal/types"
)

// Rule is one guarded transfer function. Pre tests the argument types;
// App computes the result. Rules for a name are tried in order until a
// precondition holds (paper: "progress from the most restrictive rules
// to the least restrictive ones").
type Rule struct {
	Name string // operator spelling or builtin name
	Desc string
	Pre  func(a []types.Type) bool
	App  func(a []types.Type) types.Type
}

// Calculator is the rule database. A single shared instance (DefaultCalc)
// serves all compilations; rules are immutable after init.
type Calculator struct {
	forward map[string][]Rule
}

// DefaultCalc is the shared rule database.
var DefaultCalc = newCalculator()

// NumRules reports the number of registered forward rules (the analog
// of the paper's "about 250 rules" statistic).
func (c *Calculator) NumRules() int {
	n := 0
	for _, rs := range c.forward {
		n += len(rs)
	}
	return n
}

// Rules returns the registered rule descriptions grouped by operator or
// builtin name, in precedence order (most restrictive first) — the
// paper's rule-database view.
func (c *Calculator) Rules() map[string][]string {
	out := make(map[string][]string, len(c.forward))
	for name, rs := range c.forward {
		descs := make([]string, len(rs))
		for i, r := range rs {
			descs[i] = r.Desc
		}
		out[name] = descs
	}
	return out
}

func (c *Calculator) add(name, desc string, pre func([]types.Type) bool, app func([]types.Type) types.Type) {
	c.forward[name] = append(c.forward[name], Rule{Name: name, Desc: desc, Pre: pre, App: app})
}

// Forward applies the first matching rule for name; with no match it
// returns ⊤ (the implicit default rule that keeps the engine
// conservative for constructs without rules).
func (c *Calculator) Forward(name string, args []types.Type) types.Type {
	for _, r := range c.forward[name] {
		if r.Pre(args) {
			// The rule bodies predate the sparsity dimension; the
			// adjustment layer computes the result's Sp bit from the
			// operator's runtime representation rules (sparse.go).
			return exactInt(sparseAdjust(name, args, r.App(args)))
		}
	}
	return types.Top
}

// MaxExactInt bounds the integers an int type may promise: past 2^53 a
// float64 no longer holds every integer, so I-register arithmetic would
// part ways with the interpreter's doubles (and past 2^63 wrap).
const MaxExactInt = 1 << 53

// exactInt types as real an int whose range reaches past ±2^53 at a
// finite end. An infinite end says nothing about the values, so a ⊤ or
// widened range keeps its int.
func exactInt(t types.Type) types.Type {
	past := func(x float64) bool { return !math.IsInf(x, 0) && math.Abs(x) > MaxExactInt }
	if t.I == types.IInt && (past(t.R.Lo) || past(t.R.Hi)) {
		t.I = types.IReal
	}
	return t
}

// --- predicate helpers -------------------------------------------------------

func allNumericLeq(top types.Intrinsic) func([]types.Type) bool {
	return func(a []types.Type) bool {
		for _, t := range a {
			if !types.LeqI(t.I, top) {
				return false
			}
		}
		return true
	}
}

func nArgs(n int) func([]types.Type) bool {
	return func(a []types.Type) bool { return len(a) == n }
}

func isIntScalar(t types.Type) bool { return t.IsScalar() && types.LeqI(t.I, types.IInt) }

func isRealScalar(t types.Type) bool { return t.IsScalar() && types.LeqI(t.I, types.IReal) }

// --- interval arithmetic -----------------------------------------------------

func addR(a, b types.Range) types.Range {
	if a.IsBot() || b.IsBot() {
		return types.RangeTop
	}
	return types.MkRange(a.Lo+b.Lo, a.Hi+b.Hi)
}

func subR(a, b types.Range) types.Range {
	if a.IsBot() || b.IsBot() {
		return types.RangeTop
	}
	return types.MkRange(a.Lo-b.Hi, a.Hi-b.Lo)
}

func mulR(a, b types.Range) types.Range {
	if a.IsBot() || b.IsBot() {
		return types.RangeTop
	}
	p := [4]float64{a.Lo * b.Lo, a.Lo * b.Hi, a.Hi * b.Lo, a.Hi * b.Hi}
	lo, hi := p[0], p[0]
	for _, x := range p[1:] {
		if x < lo || math.IsNaN(x) {
			lo = x
		}
		if x > hi || math.IsNaN(x) {
			hi = x
		}
	}
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return types.RangeTop
	}
	return types.MkRange(lo, hi)
}

func divR(a, b types.Range) types.Range {
	if a.IsBot() || b.IsBot() || (b.Lo <= 0 && b.Hi >= 0) {
		// denominator interval contains zero: unbounded
		return types.RangeTop
	}
	p := [4]float64{a.Lo / b.Lo, a.Lo / b.Hi, a.Hi / b.Lo, a.Hi / b.Hi}
	lo, hi := p[0], p[0]
	for _, x := range p[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return types.MkRange(lo, hi)
}

// mayBeZero reports whether a value in r may be 0 (an empty range says
// nothing, so it may).
func mayBeZero(r types.Range) bool { return r.IsBot() || r.Lo <= 0 && r.Hi >= 0 }

// mayMakeNegZero reports whether a product of values in a and b may be
// −0: a 0 operand meeting a negative one. Negating a value that may be 0
// is the same question (−x = −1·x), which mayBeZero answers. IInt
// excludes −0 (DESIGN §7), so neither result may be typed int.
func mayMakeNegZero(a, b types.Range) bool {
	mayBeNeg := func(r types.Range) bool { return r.IsBot() || r.Lo < 0 }
	return mayBeZero(a) && mayBeNeg(b) || mayBeZero(b) && mayBeNeg(a)
}

func negR(a types.Range) types.Range {
	if a.IsBot() {
		return a
	}
	return types.MkRange(-a.Hi, -a.Lo)
}

func absR(a types.Range) types.Range {
	if a.IsBot() {
		return types.RangeTop
	}
	lo, hi := math.Abs(a.Lo), math.Abs(a.Hi)
	if lo > hi {
		lo, hi = hi, lo
	}
	if a.Lo <= 0 && a.Hi >= 0 {
		lo = 0
	}
	return types.MkRange(lo, hi)
}

func monoR(a types.Range, f func(float64) float64) types.Range {
	if a.IsBot() {
		return types.RangeTop
	}
	return types.MkRange(f(a.Lo), f(a.Hi))
}

// powR handles x^k ranges for the monotone cases; everything else is ⊤.
func powR(a, b types.Range) types.Range {
	if a.IsBot() || b.IsBot() {
		return types.RangeTop
	}
	k, isConst := b.IsConst()
	if !isConst {
		if a.Lo >= 0 && b.Lo >= 0 {
			return types.MkRange(0, math.Inf(1))
		}
		return types.RangeTop
	}
	switch {
	case a.Lo >= 0:
		lo, hi := math.Pow(a.Lo, k), math.Pow(a.Hi, k)
		if lo > hi {
			lo, hi = hi, lo
		}
		return types.MkRange(lo, hi)
	case k == math.Trunc(k) && int64(k)%2 == 0 && k > 0:
		hi := math.Max(math.Pow(a.Lo, k), math.Pow(a.Hi, k))
		return types.MkRange(0, hi)
	case k == math.Trunc(k) && k > 0:
		return types.MkRange(math.Pow(a.Lo, k), math.Pow(a.Hi, k))
	}
	return types.RangeTop
}

// --- shape combination -------------------------------------------------------

// elemShape computes the shape bounds of an elementwise binary result,
// with the paper's rule ordering: the most restrictive cases first.
func elemShape(a, b types.Type) (minS, maxS types.Shape) {
	switch {
	case a.IsScalar() && b.IsScalar():
		return types.ScalarShape, types.ScalarShape
	case a.IsScalar():
		return b.MinShape, b.MaxShape
	case b.IsScalar():
		return a.MinShape, a.MaxShape
	case !a.MaybeScalar() && !b.MaybeScalar():
		// Neither can broadcast: shapes must agree at runtime, so both
		// bounds constrain the result.
		return types.JoinS(a.MinShape, b.MinShape), types.MeetS(a.MaxShape, b.MaxShape)
	default:
		// One side might be a broadcasting scalar: only weak bounds.
		return types.MeetS(a.MinShape, b.MinShape), types.JoinS(a.MaxShape, b.MaxShape)
	}
}

// arithI joins intrinsics under arithmetic: bool promotes to int, char
// to real; floor is the least intrinsic the operator can produce.
func arithI(a, b, floor types.Intrinsic) types.Intrinsic {
	norm := func(i types.Intrinsic) types.Intrinsic {
		switch i {
		case types.IBool:
			return types.IInt
		case types.IStrg:
			return types.IReal
		default:
			return i
		}
	}
	out := types.JoinI(norm(a), norm(b))
	if out == types.ITop {
		return types.ITop
	}
	return types.JoinI(out, floor)
}

func numericRange(t types.Type) types.Range {
	if t.I == types.ICplx || t.I == types.ITop || t.I == types.IStrg {
		return types.RangeTop
	}
	return t.R
}

// boolResult builds a logical result type over the given shape bounds.
func boolResult(minS, maxS types.Shape) types.Type {
	return types.Type{I: types.IBool, MinShape: minS, MaxShape: maxS, R: types.MkRange(0, 1)}
}
