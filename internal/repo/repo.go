// Package repo implements MaJIC's code repository (paper §2): a
// database of compiled code keyed by type signatures. The function
// locator retrieves, for a given invocation, a semantically safe entry
// (every actual type a subtype of the assumed type) that is optimal
// performance-wise, ranking safe candidates by a Manhattan-like
// distance between signatures. Misses trigger JIT compilation; the
// repository also hosts speculatively compiled entries and re-compiled
// (better-optimized) replacements.
//
// Concurrency contract: the repository is safe for concurrent use, and
// its read path — State, Lookup, Covered, Generation — takes no lock and
// allocates nothing. Everything known about one function name (its
// registered definition, its generation, its entry list) is one
// immutable FuncState behind an atomic pointer; writers serialise on a
// mutex, build a replacement state and publish it with a single store
// (read-copy-update), so a reader's one load is always a consistent cut:
// it can never pair one generation's definition with another
// generation's code. An *Entry is immutable once published except for
// its hit counter, which is atomic, so entries handed out by
// Lookup/Entries can be read (and their code executed) from any
// goroutine. Upgrades never mutate a published entry's code in place —
// they swap in a replacement entry via Replace. Asynchronous compile
// jobs capture the generation at enqueue time and publish through
// InsertAt, which drops the result if the generation moved (a stale job
// must not resurrect code for a source file that changed while it was
// compiling) or if a function the code inlined, or took a return summary
// from, changed meanwhile.
package repo

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/telemetry"
	"repro/internal/types"
	"repro/internal/vm"
)

// Quality grades how optimized an entry is; the locator prefers closer
// signatures first and higher quality second, and the engine may
// replace an entry with a higher-quality recompilation.
type Quality uint8

const (
	// QualityInterp marks a "compiled" entry that actually falls back
	// to interpretation (unsupported constructs).
	QualityInterp Quality = iota
	// QualityJIT is fast naive code from the JIT code generator.
	QualityJIT
	// QualityOpt is backend-optimized code (the speculative/batch path).
	QualityOpt
)

func (q Quality) String() string {
	return [...]string{"interp", "jit", "opt"}[q]
}

// Dep names a function an entry's code depends on beyond its own source:
// one whose body the inliner spliced in, or whose return summary typed a
// call. SrcHash is the hash of that function's source at compile time, so
// the dependency survives a snapshot or a replication hop.
type Dep struct {
	Name    string
	SrcHash uint64
}

// Entry is one compiled version of a function. Every exported field is
// immutable after the entry is published to a repository; the hit
// counter is atomic.
type Entry struct {
	Sig     types.Signature
	Code    *vm.Compiled // nil for QualityInterp
	Quality Quality
	// Speculative marks entries produced ahead of time by the
	// speculator (for the harness's hit/miss statistics).
	Speculative bool
	// Replicated marks entries applied from a cluster peer rather than
	// compiled locally. A local compile publishing the same exact
	// signature replaces a replicated entry in place (local code wins),
	// so replication racing a local JIT keeps exactly one winner.
	Replicated bool
	// Ret is the return summary: the result type inference proved for
	// each declared output under Sig, ranges widened to ⊤. It is only
	// recorded for code whose execution has no effect beyond its results
	// (no output, RNG draw or global, here or in any callee); nil means
	// unknown. Callers compiled against a summary unbox the result behind
	// a guard and re-run themselves when it misses — which is why both
	// sides must be free of side effects — so a summary is an
	// optimisation hint, never a trusted fact.
	Ret []types.Type
	// Deps lists the other functions the code was compiled against.
	// Invalidating any of them invalidates this entry's function too.
	Deps []Dep
	hits atomic.Int64
}

// Hits returns the number of Lookup hits this entry has served.
func (e *Entry) Hits() int64 { return e.hits.Load() }

// FuncState is everything the repository knows about one function name
// at one instant. A published FuncState is never modified; readers hold
// it as long as they like.
type FuncState struct {
	// Fn is the registered definition (nil for a name that only ever saw
	// Insert — the repository works standalone, without sources).
	Fn      *ast.Function
	SrcHash uint64
	// Gen advances on every Define and Invalidate of the name.
	Gen     uint64
	Entries []*Entry
}

// noState is what State returns for a name the repository never saw.
var noState = &FuncState{}

// funcSlot is the per-name publication point.
type funcSlot struct {
	state atomic.Pointer[FuncState]
}

// Stats counts repository traffic.
type Stats struct {
	Lookups      int `json:"lookups"`
	Hits         int `json:"hits"`
	Misses       int `json:"misses"`
	Inserts      int `json:"inserts"`
	SpecHits     int `json:"spec_hits"` // hits on speculative entries
	Invalidation int `json:"invalidations"`
	StaleDrops   int `json:"stale_drops"` // publishes dropped by a generation or dependency mismatch
	Evictions    int `json:"evictions"`   // entries evicted by the per-function cap
	Replaces     int `json:"replaces"`    // upgrade swaps (tier-ups and hot recompiles)
	Loaded       int `json:"loaded"`      // entries restored from a warm-start snapshot (not Inserts)
	// Replicated counts entries applied from cluster peers — code this
	// node serves but never compiled, distinct from both Inserts (local
	// compiles) and Loaded (warm-start restores). ReplicatedDrops counts
	// replicated applies discarded by the duplicate or generation guard.
	Replicated      int `json:"replicated"`
	ReplicatedDrops int `json:"replicated_drops"`
	Functions       int `json:"functions"` // functions with at least one live entry (snapshot)
	Entries         int `json:"entries"`   // live compiled entries across all functions (snapshot)
}

// Repository is the signature-keyed code database.
type Repository struct {
	// funcs maps a name to its publication slot. The map itself is
	// immutable and replaced (under mu) only when a new name appears, so
	// readers index it without a lock.
	funcs atomic.Pointer[map[string]*funcSlot]

	// The lookup counters are bumped on the lock-free read path.
	lookups, hits, misses, specHits atomic.Int64

	// mu serialises writers and guards everything below.
	mu    sync.Mutex
	stats Stats // the write-path counters
	// maxPerFunc caps the live entries per function name; 0 means
	// unbounded (the single-session default). A long-lived daemon sets
	// a cap so pathological signature churn (one compiled version per
	// distinct constant argument, before widening kicks in) cannot grow
	// the repository without bound.
	maxPerFunc int
	// onChange callbacks are invoked (outside the repository lock) after
	// every mutation that changes what a snapshot of the repository
	// would contain: inserts, replaces, and invalidations. The
	// persistence layer hooks its write-behind snapshotter here; the
	// cluster replicator hooks its push loop.
	onChange []func()
	// journal, when set, receives one eviction event per capacity
	// eviction (nil-safe; evictions are already a slow path).
	journal *telemetry.Journal
}

// New returns an empty, unbounded repository.
func New() *Repository {
	r := &Repository{}
	r.funcs.Store(&map[string]*funcSlot{})
	return r
}

// NewBounded returns a repository that keeps at most maxPerFunc entries
// per function, evicting the least-hit (oldest on ties) entry when an
// insert would exceed the cap. maxPerFunc <= 0 means unbounded.
func NewBounded(maxPerFunc int) *Repository {
	r := New()
	r.maxPerFunc = maxPerFunc
	return r
}

// MaxEntriesPerFunction returns the per-function entry cap (0 =
// unbounded).
func (r *Repository) MaxEntriesPerFunction() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.maxPerFunc
}

// --- read path (no lock, no allocation) --------------------------------------

// State returns the current state of a function name: one atomic load,
// never nil (an unknown name yields an empty state at generation 0).
func (r *Repository) State(name string) *FuncState {
	if slot := (*r.funcs.Load())[name]; slot != nil {
		return slot.state.Load()
	}
	return noState
}

// Lookup returns the best safe entry for an invocation signature, or
// nil. Best = minimal Manhattan distance, ties broken by quality.
func (r *Repository) Lookup(name string, q types.Signature) *Entry {
	return r.LookupIn(r.State(name), q)
}

// LookupIn is Lookup against a state the caller already loaded, so one
// load serves the definition, the generation and the locator.
func (r *Repository) LookupIn(st *FuncState, q types.Signature) *Entry {
	r.lookups.Add(1)
	var best *Entry
	bestDist := 0
	for _, e := range st.Entries {
		if !e.Sig.Safe(q) {
			continue
		}
		d := e.Sig.Distance(q)
		if best == nil || d < bestDist || (d == bestDist && e.Quality > best.Quality) {
			best, bestDist = e, d
		}
	}
	if best == nil {
		r.misses.Add(1)
		return nil
	}
	r.hits.Add(1)
	best.hits.Add(1)
	if best.Speculative {
		r.specHits.Add(1)
	}
	return best
}

// Covered reports whether some entry already safely serves signature q
// (without touching the lookup statistics). Asynchronous compile jobs
// use it to skip publishing a duplicate when an equivalent entry landed
// between the miss and the job's execution.
func (r *Repository) Covered(name string, q types.Signature) bool {
	return r.State(name).Covers(q)
}

// Covers reports whether some entry of this state safely serves q.
func (st *FuncState) Covers(q types.Signature) bool {
	for _, e := range st.Entries {
		if e.Sig.Safe(q) {
			return true
		}
	}
	return false
}

// Entries returns the compiled versions of a function (for majicc -dump
// and tests).
func (r *Repository) Entries(name string) []*Entry {
	return append([]*Entry(nil), r.State(name).Entries...)
}

// Generation returns the current generation of a function name. The
// counter advances on every Define and Invalidate; an asynchronous
// compile job captures it before compiling and passes it back to
// InsertAt.
func (r *Repository) Generation(name string) uint64 { return r.State(name).Gen }

// Current reports whether every dependency still names the source it was
// recorded against. A name the repository has no definition for counts
// as changed: code that depends on it cannot be vouched for.
func (r *Repository) Current(deps []Dep) bool {
	for _, d := range deps {
		if st := r.State(d.Name); st.Fn == nil || st.SrcHash != d.SrcHash {
			return false
		}
	}
	return true
}

// SameKindsDifferentDetail reports whether an existing entry matches
// the requested signature's intrinsic kinds and arity but not its
// ranges/shapes — the trigger for the widening policy that prevents
// compiling one version per distinct constant argument (recursive
// calls like fibonacci(n-1) would otherwise recompile for every n).
func (r *Repository) SameKindsDifferentDetail(name string, q types.Signature) bool {
	return r.State(name).SameKinds(q)
}

// SameKinds reports whether some entry of this state has q's arity and
// intrinsic kinds (see SameKindsDifferentDetail).
func (st *FuncState) SameKinds(q types.Signature) bool {
	for _, e := range st.Entries {
		if len(e.Sig) != len(q) {
			continue
		}
		same := true
		for i := range q {
			if e.Sig[i].I != q[i].I {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// Each calls fn with every name the repository holds a state for and
// that state, in no particular order.
func (r *Repository) Each(fn func(name string, st *FuncState)) {
	for name, slot := range *r.funcs.Load() {
		fn(name, slot.state.Load())
	}
}

// FunctionNames returns every function name with at least one live
// entry (snapshot export order is the caller's concern).
func (r *Repository) FunctionNames() []string {
	var out []string
	r.Each(func(name string, st *FuncState) {
		if len(st.Entries) > 0 {
			out = append(out, name)
		}
	})
	return out
}

// Stats returns a copy of the counters plus a snapshot of the live
// function and entry counts (the daemon's /metrics surface).
func (r *Repository) Stats() Stats {
	r.mu.Lock()
	s := r.stats
	r.mu.Unlock()
	s.Lookups = int(r.lookups.Load())
	s.Hits = int(r.hits.Load())
	s.Misses = int(r.misses.Load())
	s.SpecHits = int(r.specHits.Load())
	r.Each(func(_ string, st *FuncState) {
		if n := len(st.Entries); n > 0 {
			s.Functions++
			s.Entries += n
		}
	})
	return s
}

// ResetStats clears the counters.
func (r *Repository) ResetStats() {
	r.mu.Lock()
	r.stats = Stats{}
	r.mu.Unlock()
	r.lookups.Store(0)
	r.hits.Store(0)
	r.misses.Store(0)
	r.specHits.Store(0)
}

// --- hooks ---------------------------------------------------------------------

// SetOnChange registers the snapshot-dirtying callback, invoked after
// every insert, replace, and invalidation (outside the repository
// lock, so the callback may call Entries/Stats/FunctionNames),
// replacing any callbacks registered so far. Set it before the
// repository sees concurrent traffic — the warm-start sequence
// installs it right after loading, before the daemon listens.
func (r *Repository) SetOnChange(fn func()) {
	r.mu.Lock()
	r.onChange = []func(){fn}
	r.mu.Unlock()
}

// AddOnChange appends a mutation callback without displacing the ones
// already registered — the persistence snapshotter and the cluster
// replicator both observe the same repository this way. Like
// SetOnChange, register before concurrent traffic starts.
func (r *Repository) AddOnChange(fn func()) {
	r.mu.Lock()
	r.onChange = append(r.onChange, fn)
	r.mu.Unlock()
}

// notify runs the registered onChange callbacks; call it only outside
// the repository lock, with the slice captured under it.
func notify(fns []func()) {
	for _, fn := range fns {
		fn()
	}
}

// SetJournal attaches the tiering event journal; capacity evictions are
// recorded with the victim's signature and hit count. Set it before the
// repository sees concurrent traffic, like SetOnChange.
func (r *Repository) SetJournal(j *telemetry.Journal) {
	r.mu.Lock()
	r.journal = j
	r.mu.Unlock()
}

// --- write path (under mu, publishing by copy) ---------------------------------

// slotLocked returns the publication slot for name, creating it (and
// republishing the name map) on first sight.
func (r *Repository) slotLocked(name string) *funcSlot {
	old := *r.funcs.Load()
	if slot := old[name]; slot != nil {
		return slot
	}
	slot := &funcSlot{}
	slot.state.Store(noState)
	m := make(map[string]*funcSlot, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[name] = slot
	r.funcs.Store(&m)
	return slot
}

// publishLocked replaces name's entry list, keeping definition and
// generation.
func (r *Repository) publishLocked(slot *funcSlot, entries []*Entry) {
	st := *slot.state.Load()
	st.Entries = entries
	slot.state.Store(&st)
}

// Define registers (or replaces) a function's definition. The new body,
// the advanced generation and the emptied entry list become visible in
// one store, so no reader can run old code against the new source or
// publish a stale compile into the new generation. Functions whose code
// inlined this one, or took a return summary from it, are invalidated
// with it.
func (r *Repository) Define(fn *ast.Function, srcHash uint64) {
	r.mu.Lock()
	slot := r.slotLocked(fn.Name)
	old := slot.state.Load()
	slot.state.Store(&FuncState{Fn: fn, SrcHash: srcHash, Gen: old.Gen + 1})
	if len(old.Entries) > 0 {
		r.stats.Invalidation++
	}
	r.invalidateDependentsLocked(fn.Name)
	onChange := r.onChange
	r.mu.Unlock()
	notify(onChange)
}

// Invalidate drops all entries for a function and advances its
// generation so in-flight compile jobs for the old source publish into
// the void; its dependents (transitively) go with it.
func (r *Repository) Invalidate(name string) {
	r.mu.Lock()
	r.invalidateLocked(name)
	r.invalidateDependentsLocked(name)
	onChange := r.onChange
	r.mu.Unlock()
	// Notify even when no entries existed: a definition change is
	// published through Define, but a bare generation bump still makes
	// any snapshot's entry list for this function stale.
	notify(onChange)
}

func (r *Repository) invalidateLocked(name string) {
	slot := r.slotLocked(name)
	old := slot.state.Load()
	slot.state.Store(&FuncState{Fn: old.Fn, SrcHash: old.SrcHash, Gen: old.Gen + 1})
	if len(old.Entries) > 0 {
		r.stats.Invalidation++
	}
}

// invalidateDependentsLocked invalidates every function holding an entry
// that depends on changed, and then their dependents: a caller that
// inlined a caller that inlined the redefined function is just as stale.
// An invalidated function has no entries left, so the recursion ends.
func (r *Repository) invalidateDependentsLocked(changed string) {
	for dependent, slot := range *r.funcs.Load() {
		if dependent != changed && dependsOn(slot.state.Load().Entries, changed) {
			r.invalidateLocked(dependent)
			r.invalidateDependentsLocked(dependent)
		}
	}
}

func dependsOn(entries []*Entry, name string) bool {
	for _, e := range entries {
		for _, d := range e.Deps {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}

// Insert adds an entry at the current generation.
func (r *Repository) Insert(name string, e *Entry) {
	r.InsertAt(name, e, r.Generation(name))
}

// InsertAt adds an entry if the function's generation still equals gen
// and every function the entry depends on is still the one it was
// compiled against. It returns false — and drops the entry — when an
// Invalidate or a redefinition of a dependency happened after the
// compile job was enqueued, so stale code never resurrects.
func (r *Repository) InsertAt(name string, e *Entry, gen uint64) bool {
	r.mu.Lock()
	slot := r.slotLocked(name)
	if slot.state.Load().Gen != gen || !r.Current(e.Deps) {
		r.stats.StaleDrops++
		r.mu.Unlock()
		return false
	}
	r.insertLocked(name, slot, e)
	onChange := r.onChange
	r.mu.Unlock()
	notify(onChange)
	return true
}

// Restored builds an entry recovered from a warm-start snapshot,
// carrying the persisted hit count over so least-hit eviction keeps
// ranking the working set correctly across restarts.
func Restored(sig types.Signature, code *vm.Compiled, q Quality, speculative bool, hits int64) *Entry {
	e := &Entry{Sig: sig, Code: code, Quality: q, Speculative: speculative}
	e.hits.Store(hits)
	return e
}

// InsertLoaded publishes a warm-start entry unless a dependency's source
// is not the one it was compiled against (false). It counts under
// stats.Loaded instead of stats.Inserts, so "inserts" keeps meaning
// "compiles published this lifetime" — the warm-start CI gate asserts
// a snapshot replay performs zero of those. Loading happens before the
// write-behind snapshotter attaches, so no onChange fires (a loaded
// entry is by definition already in the snapshot).
func (r *Repository) InsertLoaded(name string, e *Entry) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.Current(e.Deps) {
		r.stats.StaleDrops++
		return false
	}
	r.stats.Loaded++
	r.appendLocked(name, r.slotLocked(name), e)
	return true
}

func (r *Repository) insertLocked(name string, slot *funcSlot, e *Entry) {
	r.stats.Inserts++
	// A local compile for a signature already served by a replicated
	// entry replaces it in place instead of appending a duplicate: the
	// locally compiled code wins (it is at least as fresh), and exactly
	// one entry per exact signature survives the replication-vs-JIT
	// race in either arrival order.
	entries := slot.state.Load().Entries
	for i, old := range entries {
		if old.Replicated && old.Sig.Key() == e.Sig.Key() {
			e.hits.Store(old.Hits())
			r.publishLocked(slot, replaced(entries, i, e))
			return
		}
	}
	r.appendLocked(name, slot, e)
}

// appendLocked publishes entries+e, evicting down to the cap.
func (r *Repository) appendLocked(name string, slot *funcSlot, e *Entry) {
	old := slot.state.Load().Entries
	entries := make([]*Entry, len(old), len(old)+1)
	copy(entries, old)
	entries = append(entries, e)
	if r.maxPerFunc > 0 && len(entries) > r.maxPerFunc {
		entries = r.evictLocked(name, slot, entries, e)
	}
	r.publishLocked(slot, entries)
}

// replaced returns a copy of entries with element i swapped for e.
func replaced(entries []*Entry, i int, e *Entry) []*Entry {
	out := append([]*Entry(nil), entries...)
	out[i] = e
	return out
}

// InsertReplicated publishes an entry received from a cluster peer, at
// generation gen (captured when the record's source text was validated
// against the live registration). It returns false — counting a
// ReplicatedDrop — when the generation moved (a local redefinition
// landed meanwhile; replicated code must not resurrect it), when a
// function the entry depends on is not the one the peer compiled
// against, or when an entry with the identical exact signature already
// exists at equal or better quality (the local JIT or an earlier replica
// won the race). A strictly better-quality replica upgrades the
// duplicate in place. Applied entries count under stats.Replicated,
// never Inserts or Loaded, and are journaled under
// telemetry.EventReplication.
func (r *Repository) InsertReplicated(name string, e *Entry, gen uint64, origin string) bool {
	e.Replicated = true
	r.mu.Lock()
	slot := r.slotLocked(name)
	st := slot.state.Load()
	if st.Gen != gen || !r.Current(e.Deps) {
		r.stats.ReplicatedDrops++
		r.mu.Unlock()
		return false
	}
	dup := -1
	for i, old := range st.Entries {
		if old.Sig.Key() == e.Sig.Key() {
			dup = i
			break
		}
	}
	switch {
	case dup >= 0 && e.Quality <= st.Entries[dup].Quality:
		r.stats.ReplicatedDrops++
		r.mu.Unlock()
		return false
	case dup >= 0:
		e.hits.Store(st.Entries[dup].Hits())
		r.publishLocked(slot, replaced(st.Entries, dup, e))
	default:
		r.appendLocked(name, slot, e)
	}
	r.stats.Replicated++
	r.journal.Record(telemetry.Event{
		Kind:   telemetry.EventReplication,
		Func:   name,
		Sig:    e.Sig.Key(),
		Cause:  "peer-apply",
		Gen:    gen,
		Detail: fmt.Sprintf("origin=%s quality=%s", origin, e.Quality),
	})
	onChange := r.onChange
	r.mu.Unlock()
	notify(onChange)
	return true
}

// evictLocked drops the least-hit entry from entries (a private copy
// about to be published), sparing the just-inserted entry keep — a fresh
// entry always has zero hits, so without the exemption every insert at
// the cap would evict itself and the repository could never turn over
// its working set. At equal hit counts, lower-quality entries go first
// (an interpret-only marker is just a cached decision; compiled code
// cost a JIT or optimizing compile), and the oldest entry wins a full
// tie.
func (r *Repository) evictLocked(name string, slot *funcSlot, entries []*Entry, keep *Entry) []*Entry {
	victim := -1
	var victimHits int64
	for i, e := range entries {
		if e == keep {
			continue
		}
		h := e.Hits()
		if victim == -1 || h < victimHits ||
			(h == victimHits && e.Quality < entries[victim].Quality) {
			victim, victimHits = i, h
		}
	}
	if victim == -1 {
		return entries
	}
	v := entries[victim]
	r.stats.Evictions++
	r.journal.Record(telemetry.Event{
		Kind:   telemetry.EventEviction,
		Func:   name,
		Sig:    v.Sig.Key(),
		Cause:  "capacity",
		Gen:    slot.state.Load().Gen,
		Detail: fmt.Sprintf("quality=%s hits=%d", v.Quality, v.Hits()),
	})
	return append(entries[:victim], entries[victim+1:]...)
}

// Replace swaps a published entry for its recompiled upgrade, carrying
// the hit count over. It returns false if old is no longer present
// (the function was invalidated while the upgrade compiled) or the
// replacement's dependencies moved, in which case the new entry is
// dropped — replacement must never resurrect an entry for stale source.
// Replace does not count as an Insert: the repository still holds one
// compiled version for the signature.
func (r *Repository) Replace(name string, old, repl *Entry) bool {
	r.mu.Lock()
	slot := r.slotLocked(name)
	entries := slot.state.Load().Entries
	for i, e := range entries {
		if e == old && r.Current(repl.Deps) {
			repl.hits.Store(old.Hits())
			r.publishLocked(slot, replaced(entries, i, repl))
			r.stats.Replaces++
			onChange := r.onChange
			r.mu.Unlock()
			notify(onChange)
			return true
		}
	}
	r.stats.StaleDrops++
	r.mu.Unlock()
	return false
}
