// Package types implements MaJIC's type system (paper §2.2): the
// Cartesian product T = Li × Ls × Ls × Ll of the intrinsic lattice, the
// shape lattice (tracked twice, as guaranteed lower bounds and
// conservative upper bounds), and the range lattice over real
// intervals. It also implements type signatures and the subtype ("safe
// to execute") and Manhattan-distance relations the code repository
// uses (paper §2.2.1).
package types

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/mat"
)

// Intrinsic is an element of the lattice Li:
//
//	⊥ ⊑ bool ⊑ int ⊑ real ⊑ cplx ⊑ ⊤  and  ⊥ ⊑ strg ⊑ ⊤
type Intrinsic uint8

const (
	IBottom Intrinsic = iota
	IBool
	IInt
	IReal
	ICplx
	IStrg
	ITop
)

// String renders the lattice element.
func (i Intrinsic) String() string {
	return [...]string{"⊥", "bool", "int", "real", "cplx", "strg", "⊤"}[i]
}

// numeric reports membership of the numeric chain.
func (i Intrinsic) numeric() bool { return i >= IBool && i <= ICplx }

// LeqI is the partial order ⊑ of Li.
func LeqI(a, b Intrinsic) bool {
	if a == IBottom || b == ITop || a == b {
		return true
	}
	if a == ITop || b == IBottom {
		return false
	}
	if a == IStrg || b == IStrg {
		return false // strg is comparable only with ⊥/⊤ and itself
	}
	return a <= b // numeric chain
}

// JoinI is the least upper bound in Li.
func JoinI(a, b Intrinsic) Intrinsic {
	switch {
	case LeqI(a, b):
		return b
	case LeqI(b, a):
		return a
	default:
		return ITop // numeric vs strg
	}
}

// levelI is the chain height used by the Manhattan distance.
func levelI(i Intrinsic) int {
	switch i {
	case IBottom:
		return 0
	case IBool:
		return 1
	case IInt:
		return 2
	case IReal:
		return 3
	case ICplx:
		return 4
	case IStrg:
		return 2
	default:
		return 5
	}
}

// Extent is one dimension of a shape descriptor: a natural number or ∞.
type Extent struct {
	N   int
	Inf bool
}

// Fin returns a finite extent.
func Fin(n int) Extent { return Extent{N: n} }

// InfExt is the infinite extent.
var InfExt = Extent{Inf: true}

func (e Extent) String() string {
	if e.Inf {
		return "∞"
	}
	return fmt.Sprintf("%d", e.N)
}

// LeqE compares extents.
func LeqE(a, b Extent) bool {
	if b.Inf {
		return true
	}
	if a.Inf {
		return false
	}
	return a.N <= b.N
}

func minE(a, b Extent) Extent {
	if LeqE(a, b) {
		return a
	}
	return b
}

func maxE(a, b Extent) Extent {
	if LeqE(a, b) {
		return b
	}
	return a
}

// Shape is an element of Ls: a ⟨rows, cols⟩ pair. ⊥s = ⟨0,0⟩ and
// ⊤s = ⟨∞,∞⟩; the order is componentwise (paper §2.2).
type Shape struct {
	R, C Extent
}

// ShapeBot is ⟨0,0⟩.
var ShapeBot = Shape{Fin(0), Fin(0)}

// ShapeTop is ⟨∞,∞⟩.
var ShapeTop = Shape{InfExt, InfExt}

// ScalarShape is ⟨1,1⟩.
var ScalarShape = Shape{Fin(1), Fin(1)}

func (s Shape) String() string { return fmt.Sprintf("<%s,%s>", s.R, s.C) }

// LeqS is the componentwise order of Ls.
func LeqS(a, b Shape) bool { return LeqE(a.R, b.R) && LeqE(a.C, b.C) }

// MeetS is the componentwise minimum (used when joining lower bounds).
func MeetS(a, b Shape) Shape { return Shape{minE(a.R, b.R), minE(a.C, b.C)} }

// JoinS is the componentwise maximum (used when joining upper bounds).
func JoinS(a, b Shape) Shape { return Shape{maxE(a.R, b.R), maxE(a.C, b.C)} }

// Exact reports whether the shape has both extents finite.
func (s Shape) Exact() bool { return !s.R.Inf && !s.C.Inf }

// IsScalar reports a 1x1 shape.
func (s Shape) IsScalar() bool { return s == ScalarShape }

// Numel returns the element count for finite shapes.
func (s Shape) Numel() (int, bool) {
	if !s.Exact() {
		return 0, false
	}
	return s.R.N * s.C.N, true
}

// Range is an element of Ll: a real interval [Lo, Hi]. The bottom
// element is ⟨NaN, NaN⟩ (no value); the top is ⟨-∞, +∞⟩ (paper §2.2).
type Range struct {
	Lo, Hi float64
}

// RangeBot is the empty range.
var RangeBot = Range{math.NaN(), math.NaN()}

// RangeTop is the full real line.
var RangeTop = Range{math.Inf(-1), math.Inf(1)}

// Const returns the degenerate range [x, x] — the constant-propagation
// encoding the paper describes.
func Const(x float64) Range { return Range{x, x} }

// MkRange returns [lo, hi].
func MkRange(lo, hi float64) Range { return Range{lo, hi} }

// IsBot reports the empty range.
func (r Range) IsBot() bool { return math.IsNaN(r.Lo) }

// IsTop reports the full range.
func (r Range) IsTop() bool { return math.IsInf(r.Lo, -1) && math.IsInf(r.Hi, 1) }

// IsConst reports a single-point range and its value.
func (r Range) IsConst() (float64, bool) {
	if !r.IsBot() && r.Lo == r.Hi {
		return r.Lo, true
	}
	return 0, false
}

func (r Range) String() string {
	if r.IsBot() {
		return "⊥l"
	}
	if r.IsTop() {
		return "⊤l"
	}
	return fmt.Sprintf("[%g,%g]", r.Lo, r.Hi)
}

// LeqR is the order of Ll: a ⊑ b iff a = ⊥ or b contains a.
func LeqR(a, b Range) bool {
	if a.IsBot() {
		return true
	}
	if b.IsBot() {
		return false
	}
	return b.Lo <= a.Lo && a.Hi <= b.Hi
}

// JoinR is interval union (convex hull).
func JoinR(a, b Range) Range {
	if a.IsBot() {
		return b
	}
	if b.IsBot() {
		return a
	}
	return Range{math.Min(a.Lo, b.Lo), math.Max(a.Hi, b.Hi)}
}

// Type is the full MaJIC type: T = Li × Ls × Ls × Ll. MinShape is the
// guaranteed lower bound on the shape, MaxShape the conservative upper
// bound; an exact shape has MinShape == MaxShape. The range applies
// only to real-chain values; complex and string types carry ⊤/⊥ ranges.
type Type struct {
	I        Intrinsic
	MinShape Shape
	MaxShape Shape
	R        Range
	// Sp is the sparsity dimension of the lattice: true means the value
	// MAY use the sparse (CSR) storage form, false means it is provably
	// dense. The two-point lattice is dense ⊑ sparse — joins go sparse
	// ("may be sparse"), so typed code compiled for Sp=false never sees
	// a sparse representation at runtime (Leq enforces it).
	Sp bool
}

// Bottom is the least type.
var Bottom = Type{I: IBottom, MinShape: ShapeTop, MaxShape: ShapeBot, R: RangeBot}

// Top is the greatest type (unknown everything, possibly sparse).
var Top = Type{I: ITop, MinShape: ShapeBot, MaxShape: ShapeTop, R: RangeTop, Sp: true}

// IsBottom reports the bottom type.
func (t Type) IsBottom() bool { return t.I == IBottom }

func (t Type) String() string {
	return fmt.Sprintf("{%s min%s max%s %s}", t.I, t.MinShape, t.MaxShape, t.R)
}

// Exact builds a type with an exact shape.
func Exact(i Intrinsic, rows, cols int, r Range) Type {
	s := Shape{Fin(rows), Fin(cols)}
	return Type{I: i, MinShape: s, MaxShape: s, R: r}
}

// ScalarOf builds a 1x1 type.
func ScalarOf(i Intrinsic, r Range) Type { return Exact(i, 1, 1, r) }

// MatrixOf builds a type with unknown (⊤) shape bounds.
func MatrixOf(i Intrinsic) Type {
	return Type{I: i, MinShape: ShapeBot, MaxShape: ShapeTop, R: RangeTop}
}

// Join is the least upper bound in the product lattice. Lower shape
// bounds join by componentwise minimum, upper bounds by maximum, and
// ranges by interval union.
func Join(a, b Type) Type {
	if a.IsBottom() {
		return b
	}
	if b.IsBottom() {
		return a
	}
	return Type{
		I:        JoinI(a.I, b.I),
		MinShape: MeetS(a.MinShape, b.MinShape),
		MaxShape: JoinS(a.MaxShape, b.MaxShape),
		R:        JoinR(a.R, b.R),
		Sp:       a.Sp || b.Sp,
	}
}

// Leq is the subtype order: Q ⊑ T means a value of type Q may safely
// flow where T was assumed (paper §2.2.1's safety condition).
func Leq(q, t Type) bool { return leq(&q, &t) }

// leq is Leq on types where they stand: a Type is 96 bytes, and the
// function locator compares one pair per parameter per candidate entry.
func leq(q, t *Type) bool {
	if q.I == IBottom {
		return true
	}
	if t.I == IBottom {
		return false
	}
	return LeqI(q.I, t.I) &&
		LeqS(t.MinShape, q.MinShape) && // T's guarantee must hold for Q
		LeqS(q.MaxShape, t.MaxShape) &&
		LeqR(q.R, t.R) &&
		(!q.Sp || t.Sp) // a maybe-sparse value may not enter dense-assuming code
}

// ExactShape reports whether the shape is exactly known (min == max and
// finite), returning it.
func (t Type) ExactShape() (rows, cols int, ok bool) {
	if t.MinShape == t.MaxShape && t.MinShape.Exact() {
		return t.MinShape.R.N, t.MinShape.C.N, true
	}
	return 0, 0, false
}

// IsScalar reports a provably 1x1 type.
func (t Type) IsScalar() bool {
	return t.MinShape.IsScalar() && t.MaxShape.IsScalar()
}

// MaybeScalar reports whether the type could be 1x1.
func (t Type) MaybeScalar() bool {
	return LeqS(t.MinShape, ScalarShape) && LeqS(ScalarShape, t.MaxShape)
}

// Widen pushes unstable components to their tops; the inference engine
// applies it after a capped number of loop iterations, keeping fixpoints
// cheap (the paper "caps the number of iterations").
func Widen(prev, next Type) Type {
	out := next
	if !LeqR(next.R, prev.R) {
		// Range still growing: widen the moving endpoints to infinity.
		lo, hi := next.R.Lo, next.R.Hi
		if lo < prev.R.Lo {
			lo = math.Inf(-1)
		}
		if hi > prev.R.Hi {
			hi = math.Inf(1)
		}
		out.R = Range{lo, hi}
	}
	if !LeqS(next.MaxShape, prev.MaxShape) {
		out.MaxShape = JoinS(next.MaxShape, ShapeTop)
	}
	if !LeqS(prev.MinShape, next.MinShape) {
		out.MinShape = MeetS(next.MinShape, ShapeBot)
	}
	return out
}

// OfValue computes the exact runtime type of a value — the source of
// the precise JIT type signatures ("type signature derived directly
// from the input values of the runtime invocation"). Scalars yield
// constant ranges; small arrays yield min/max ranges; large arrays
// yield ⊤ ranges to keep signature computation O(1)-ish.
func OfValue(v *mat.Value) Type {
	const rangeScanLimit = 64
	if v.IsScalar() && !v.IsSparse() {
		return OfScalar(v.Kind(), v.Re()[0])
	}
	i := intrinsicOf(v.Kind())
	t := Exact(i, v.Rows(), v.Cols(), RangeTop)
	if v.IsSparse() {
		// No payload scan: sparse values always carry ⊤ ranges, and the
		// dense accessors must not be touched.
		t.Sp = true
		return t
	}
	if i == ICplx || i == IStrg {
		return t
	}
	n := v.Numel()
	if n == 0 {
		t.R = RangeBot
		return t
	}
	if n <= rangeScanLimit {
		re := v.Re()
		lo, hi := re[0], re[0]
		for _, x := range re[1:] {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		t.R = Range{lo, hi}
		if i == IReal && v.AllIntegral() {
			t.I = IInt
		}
	}
	return t
}

// OfScalar is OfValue of a dense 1x1 value of kind k whose real part is
// x, without the value: compiled code passes scalar arguments in
// registers, and the function locator must type a register scalar
// exactly as it would type the box it replaces (OfValue calls this for
// dense scalars, so the two cannot drift apart). The range is [x, x], NaN
// included; a real with an integral finite value is an int.
func OfScalar(k mat.Kind, x float64) Type {
	i := intrinsicOf(k)
	if i == ICplx || i == IStrg {
		return ScalarOf(i, RangeTop)
	}
	if i == IReal && x == math.Trunc(x) && !math.IsInf(x, 0) {
		i = IInt
	}
	return ScalarOf(i, Const(x))
}

func intrinsicOf(k mat.Kind) Intrinsic {
	switch k {
	case mat.Bool:
		return IBool
	case mat.Int:
		return IInt
	case mat.Real:
		return IReal
	case mat.Complex:
		return ICplx
	case mat.Char:
		return IStrg
	}
	return IBottom
}

// Signature is the tuple of parameter types attached to compiled code.
type Signature []Type

// SignatureOf derives the exact signature of an argument list.
func SignatureOf(args []*mat.Value) Signature {
	sig := make(Signature, len(args))
	for i, a := range args {
		sig[i] = OfValue(a)
	}
	return sig
}

// Safe reports whether an invocation with actual signature q may run
// code compiled under signature t: Qi ⊑ Ti for every parameter.
func (t Signature) Safe(q Signature) bool {
	if len(q) != len(t) {
		return false
	}
	for i := range t {
		if !leq(&q[i], &t[i]) {
			return false
		}
	}
	return true
}

// Distance is the Manhattan-like distance the repository's function
// locator uses to pick the best safe candidate: smaller means the
// compiled assumptions are closer to (hence better specialized for) the
// actual argument types.
func (t Signature) Distance(q Signature) int {
	d := 0
	for i := range t {
		d += typeDistance(&q[i], &t[i])
	}
	return d
}

func typeDistance(q, t *Type) int {
	d := levelI(t.I) - levelI(q.I)
	if d < 0 {
		d = -d
	}
	if q.Sp != t.Sp {
		d++
	}
	// Shape looseness: each non-exact bound costs.
	if t.MinShape != t.MaxShape {
		d += 2
	}
	if !t.MaxShape.Exact() {
		d += 2
	}
	// Range looseness.
	if t.R.IsTop() {
		d += 2
	} else if _, c := t.R.IsConst(); !c {
		d++
	}
	if _, qc := q.R.IsConst(); qc {
		if _, tc := t.R.IsConst(); !tc {
			d++
		}
	}
	return d
}

// Key renders a canonical string for use as a cache key.
func (t Signature) Key() string {
	var b strings.Builder
	for i, ty := range t {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s|%s|%s|%s", ty.I, ty.MinShape, ty.MaxShape, ty.R)
		if ty.Sp {
			// Dense keys stay byte-identical to the pre-sparse encoding so
			// dense-only repositories and paper-mode outputs are unchanged.
			b.WriteString("|sp")
		}
	}
	return b.String()
}

func (t Signature) String() string {
	parts := make([]string, len(t))
	for i, ty := range t {
		parts[i] = ty.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
