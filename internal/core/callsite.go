package core

import (
	"math/bits"

	"repro/internal/ir"
	"repro/internal/mat"
	"repro/internal/repo"
	"repro/internal/types"
	"repro/internal/vm"
)

// siteRecord is what a call site of compiled code remembers of the
// locator's answer (DESIGN §19, "What leaves the loop"): the callee's
// state, read through its name's slot, and the entry best chose there for
// arguments of these classes. A call whose slot still holds state and
// whose arguments are register scalars of the same classes gets the same
// entry from best — unless some argument falls inside the range of one
// of the ranged entries, whose safety depends on the values and which
// could then win. A record is immutable and replaced whole.
type siteRecord struct {
	repo  *repo.Repository
	slot  *repo.Slot
	state *repo.FuncState
	entry *repo.Entry
	// classes holds, per argument, the class observedSig types it by.
	classes [sigBuf]scalarClass
	n       int
	// ranged has bit k set for state.Entries[k] when it may be safe for
	// arguments of these classes, but only at some values.
	ranged uint64
}

// scalarClass is what observedSig makes of a register scalar, apart from
// its value: an int (an I register, or an integral F one that is not −0),
// a real, or a NaN, whose range is ⊥ and so inside every range.
type scalarClass uint8

const (
	classBoxed scalarClass = iota
	classInt
	classReal
	classNaN
)

// classOf is the class of an operand, as observedSig types it.
func classOf(a *vm.Operand) scalarClass {
	switch {
	case a.V != nil:
		return classBoxed
	case a.Bank == ir.BankI:
		return classInt
	case a.F != a.F:
		return classNaN
	case types.OfScalar(mat.Real, a.F).I == types.IInt:
		return classInt
	}
	return classReal
}

// value is a register scalar's value, as its observed type's range holds
// it.
func value(a *vm.Operand) float64 {
	if a.Bank == ir.BankI {
		return float64(a.I)
	}
	return a.F
}

// serves reports whether the record answers a call with args on
// repository r: the slot still holds the state it was made from, the
// arguments have its classes, and none of the ranged entries is safe for
// them.
func (rec *siteRecord) serves(r *repo.Repository, args []vm.Operand) bool {
	if rec.repo != r || rec.slot.State() != rec.state || len(args) != rec.n {
		return false
	}
	for i := range args {
		if classOf(&args[i]) != rec.classes[i] {
			return false
		}
	}
	for m := rec.ranged; m != 0; m &= m - 1 {
		if rec.inside(rec.state.Entries[bits.TrailingZeros64(m)].Sig, args) {
			return false
		}
	}
	return true
}

// inside reports whether every argument lies in its parameter's range
// in sig: a NaN, typed by the empty range, lies in every one.
func (rec *siteRecord) inside(sig types.Signature, args []vm.Operand) bool {
	for i := range args {
		if x := value(&args[i]); rec.classes[i] != classNaN && !(sig[i].R.Lo <= x && x <= sig[i].R.Hi) {
			return false
		}
	}
	return true
}

// remember records at site that the locator chose entry in st for a call
// whose observed signature was sig. It records once per state, and
// nothing when a record could not be reused: a boxed argument, an entry
// that does not run compiled code or is safe only for some values of its
// scalars, or more arguments or entries than a record holds.
func (r *repoState) remember(site *vm.CallSite, st *repo.FuncState, sig types.Signature, args []vm.Operand, entry *repo.Entry) {
	if old, _ := site.Memo().(*siteRecord); old != nil && old.state == st && old.repo == r.r {
		return
	}
	if entry.Code == nil || len(args) > sigBuf || len(st.Entries) > 64 {
		return
	}
	rec := siteRecord{repo: r.r, state: st, entry: entry, n: len(args)}
	// unranged is sig with its ranges emptied: an entry safe for it is safe
	// for arguments of these classes at some values.
	var buf [sigBuf]types.Type
	unranged := append(types.Signature(buf[:0]), sig...)
	for i := range args {
		c := classOf(&args[i])
		if c == classBoxed || c != classNaN && !entry.Sig[i].R.IsTop() {
			return
		}
		rec.classes[i] = c
		unranged[i].R = types.RangeBot
	}
	for k, e := range st.Entries {
		if e == entry || !e.Sig.Safe(unranged) {
			continue
		}
		for i := range args {
			if rec.classes[i] != classNaN && !e.Sig[i].R.IsTop() {
				rec.ranged |= 1 << k
				break
			}
		}
	}
	if rec.slot = r.r.Slot(st.Fn.Name); rec.slot == nil {
		return
	}
	kept := new(siteRecord) // the one allocation, once the record is sure
	*kept = rec
	site.SetMemo(kept)
}

// siteHitCheck, when set, sees every call a record answers before it
// runs: the tests' window on the cache. It is set only while no engine
// runs.
var siteHitCheck func(rec *siteRecord, args []vm.Operand)

// runSite runs a call its site's record answered: the entry's code,
// counted as a locator hit.
func (r *repoState) runSite(rec *siteRecord, args []vm.Operand, nout int, caller *vm.Frame) ([]vm.Operand, error) {
	if siteHitCheck != nil {
		siteHitCheck(rec, args)
	}
	r.r.CountHit(rec.entry)
	return r.runEntry(rec.entry, rec.state, args, nout, caller)
}
