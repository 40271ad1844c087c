// Package profile aggregates the runtime profiles behind tiered
// recompilation: per-(function, widened-signature) hotness counters fed
// by the interpreter's existing safepoints (function entries and loop
// back-edges), plus the joined observed argument types. The paper's
// range/intrinsic lattice becomes strictly more precise when fed these
// observed profiles instead of static bounds alone — a promotion
// compiles with the join of every signature actually seen, so ranges
// and shapes are as narrow as the workload allows.
//
// The package also hosts the on-stack-replacement state: per loop site,
// one compiled continuation entry published by a background compile job
// and consumed by the interpreter at a back-edge safepoint. OSR entries
// never enter the code repository — they are keyed to one activation
// shape (the live-variable frame at a specific loop) and guarded by the
// function's generation, so redefinition makes them unreachable exactly
// like repository entries.
//
// Concurrency: counters are atomics (one atomic add per safepoint, no
// new branches anywhere hot); the joined signature and the site table
// are mutex-guarded and only touched on the slow paths (observation at
// call entry, promotion, OSR request/publish).
package profile

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/repo"
	"repro/internal/types"
	"repro/internal/vm"
)

// Store is the process-wide profile database, one per code library.
type Store struct {
	mu    sync.Mutex
	funcs map[string]*FuncProfile

	promotions   atomic.Int64
	osrRequests  atomic.Int64
	osrCompiles  atomic.Int64
	osrTransfers atomic.Int64
	// osrDeopts is indexed by DeoptCause, so every deopt is attributed
	// to the specific guard that rejected the transfer.
	osrDeopts     [deoptCauses]atomic.Int64
	budgetExhaust atomic.Int64
}

// DeoptCause names the guard that rejected an OSR transfer.
type DeoptCause uint8

const (
	// DeoptGeneration: the code generation advanced under the loop (the
	// function was redefined while the continuation was compiling).
	DeoptGeneration DeoptCause = iota
	// DeoptBinding: the live-variable frame didn't match the compiled
	// continuation (missing binding or counted/while loop mismatch).
	DeoptBinding
	// DeoptRange: a live value escaped the ranges the continuation was
	// specialised for (Sig.Safe failed).
	DeoptRange
	deoptCauses
)

func (c DeoptCause) String() string {
	switch c {
	case DeoptGeneration:
		return "generation-mismatch"
	case DeoptBinding:
		return "binding-guard"
	case DeoptRange:
		return "range-guard"
	}
	return "unknown"
}

// NewStore returns an empty profile store.
func NewStore() *Store {
	return &Store{funcs: make(map[string]*FuncProfile)}
}

// Func returns the profile for a function at the given repository
// generation, creating it on first sight. A generation change (the
// function was redefined) resets the profile: hotness observed against
// the old body must not promote or OSR-transfer the new one.
func (s *Store) Func(name string, gen uint64) *FuncProfile {
	s.mu.Lock()
	defer s.mu.Unlock()
	fp := s.funcs[name]
	if fp == nil || fp.gen != gen {
		fp = &FuncProfile{name: name, gen: gen, sigs: make(map[string]*SigProfile)}
		s.funcs[name] = fp
	}
	return fp
}

// CountPromotion, CountOSRRequest, CountOSRCompile, CountOSRTransfer
// and CountOSRDeopt record tiering events for Stats.
func (s *Store) CountPromotion() { s.promotions.Add(1) }

// CountOSRRequest records an OSR continuation compile being enqueued.
func (s *Store) CountOSRRequest() { s.osrRequests.Add(1) }

// CountOSRCompile records an OSR continuation landing.
func (s *Store) CountOSRCompile() { s.osrCompiles.Add(1) }

// CountOSRTransfer records a successful mid-loop transfer to compiled
// code.
func (s *Store) CountOSRTransfer() { s.osrTransfers.Add(1) }

// CountOSRDeopt records a guarded transfer attempt that fell back to
// the interpreter, attributed to the guard that rejected it.
func (s *Store) CountOSRDeopt(cause DeoptCause) {
	if cause < deoptCauses {
		s.osrDeopts[cause].Add(1)
	}
}

// CountDeoptBudgetExhausted records an OSR site hitting its deopt
// budget after its one adaptive recompile was already spent — the site
// is abandoned (marked Failed) rather than recompiled again.
func (s *Store) CountDeoptBudgetExhausted() { s.budgetExhaust.Add(1) }

// Stats is the tiering surface for /metrics and the benchmark JSON.
type Stats struct {
	Functions    int   `json:"functions" metric:"majic_profile_functions,gauge" help:"Functions with a tiering profile."`
	Signatures   int   `json:"signatures" metric:"majic_profile_signatures,gauge" help:"Widened signatures being profiled."`
	Entries      int64 `json:"entries" metric:"majic_profile_entries_total,counter" help:"Function-entry safepoints observed."`
	BackEdges    int64 `json:"back_edges" metric:"majic_profile_back_edges_total,counter" help:"Loop back-edge safepoints observed."`
	Promotions   int64 `json:"promotions" metric:"majic_tier_promotions_total,counter" help:"Hot signatures promoted to compiled code."`
	OSRRequests  int64 `json:"osr_requests" metric:"majic_osr_requests_total,counter" help:"OSR continuation compiles requested."`
	OSRCompiles  int64 `json:"osr_compiles" metric:"majic_osr_compiles_total,counter" help:"OSR continuations compiled and published."`
	OSRTransfers int64 `json:"osr_transfers" metric:"majic_osr_transfers_total,counter" help:"Mid-loop transfers into compiled code."`
	OSRDeopts    int64 `json:"osr_deopts" metric:"-"` // sum of the per-cause counters below
	// Per-cause deopt attribution: which guard rejected the transfer.
	OSRDeoptsGeneration int64 `json:"osr_deopts_generation" metric:"majic_osr_deopts_total,counter,cause=generation-mismatch" help:"OSR transfers rejected by a guard, by cause."`
	OSRDeoptsBinding    int64 `json:"osr_deopts_binding" metric:"majic_osr_deopts_total,counter,cause=binding-guard" help:"OSR transfers rejected by a guard, by cause."`
	OSRDeoptsRange      int64 `json:"osr_deopts_range" metric:"majic_osr_deopts_total,counter,cause=range-guard" help:"OSR transfers rejected by a guard, by cause."`
	// DeoptBudgetExhausted counts OSR sites abandoned because they kept
	// deopting after their single adaptive recompile.
	DeoptBudgetExhausted int64 `json:"deopt_budget_exhausted" metric:"majic_osr_budget_exhausted_total,counter" help:"OSR sites abandoned after the deopt budget."`
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Promotions:           s.promotions.Load(),
		OSRRequests:          s.osrRequests.Load(),
		OSRCompiles:          s.osrCompiles.Load(),
		OSRTransfers:         s.osrTransfers.Load(),
		OSRDeoptsGeneration:  s.osrDeopts[DeoptGeneration].Load(),
		OSRDeoptsBinding:     s.osrDeopts[DeoptBinding].Load(),
		OSRDeoptsRange:       s.osrDeopts[DeoptRange].Load(),
		DeoptBudgetExhausted: s.budgetExhaust.Load(),
	}
	st.OSRDeopts = st.OSRDeoptsGeneration + st.OSRDeoptsBinding + st.OSRDeoptsRange
	s.mu.Lock()
	defer s.mu.Unlock()
	st.Functions = len(s.funcs)
	for _, fp := range s.funcs {
		fp.mu.Lock()
		st.Signatures += len(fp.sigs)
		for _, sp := range fp.sigs {
			st.Entries += sp.entries.Load()
			st.BackEdges += sp.backEdges.Load()
		}
		fp.mu.Unlock()
	}
	return st
}

// FuncProfile aggregates one function's runtime behaviour, partitioned
// by widened signature (one SigProfile per intrinsic-kind tuple).
type FuncProfile struct {
	name string
	gen  uint64
	mu   sync.Mutex
	sigs map[string]*SigProfile
}

// Gen returns the repository generation this profile was built against.
func (fp *FuncProfile) Gen() uint64 { return fp.gen }

// Sig returns the profile bucket for a widened-signature key, creating
// it on first sight.
func (fp *FuncProfile) Sig(key string) *SigProfile {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	sp := fp.sigs[key]
	if sp == nil {
		sp = &SigProfile{key: key}
		fp.sigs[key] = sp
	}
	return sp
}

// SigProfile is the hotness and type record for one (function, widened
// signature) pair — the granularity at which promotion decisions are
// made.
type SigProfile struct {
	key       string
	entries   atomic.Int64 // function-entry count
	backEdges atomic.Int64 // loop back-edge count (all loops, all activations)

	mu       sync.Mutex
	observed types.Signature // join of every exact signature seen

	// promotion state: inflight is the single-flight latch for the
	// background recompile; promotions counts how many landed (each with
	// a wider joined signature than the last); unsupported latches when
	// the compiler rejected the function so promotion stops for good.
	inflight    atomic.Bool
	promotions  atomic.Int32
	unsupported atomic.Bool

	sitesMu sync.Mutex
	sites   map[ast.Stmt]*OSRState
}

// Key returns the widened-signature key this bucket aggregates.
func (sp *SigProfile) Key() string { return sp.key }

// Observe joins one exact call signature into the profile and counts a
// function entry.
func (sp *SigProfile) Observe(sig types.Signature) {
	sp.entries.Add(1)
	sp.mu.Lock()
	if sp.observed == nil {
		sp.observed = append(types.Signature(nil), sig...)
	} else if len(sp.observed) == len(sig) {
		for i := range sig {
			sp.observed[i] = types.Join(sp.observed[i], sig[i])
		}
	}
	sp.mu.Unlock()
}

// Observed returns a copy of the joined observed signature (nil before
// the first Observe).
func (sp *SigProfile) Observed() types.Signature {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return append(types.Signature(nil), sp.observed...)
}

// Entries returns the function-entry count.
func (sp *SigProfile) Entries() int64 { return sp.entries.Load() }

// BackEdges returns the loop back-edge count.
func (sp *SigProfile) BackEdges() int64 { return sp.backEdges.Load() }

// BackEdgeCounter exposes the back-edge counter for the interpreter's
// safepoint hook (one atomic add per back-edge).
func (sp *SigProfile) BackEdgeCounter() *atomic.Int64 { return &sp.backEdges }

// Seed restores persisted counts and the persisted joined signature
// (warm start): the restored hotness means a previously hot signature
// crosses its promotion threshold on the first call of the new
// lifetime.
func (sp *SigProfile) Seed(observed types.Signature, entries, backEdges int64) {
	sp.entries.Store(entries)
	sp.backEdges.Store(backEdges)
	sp.mu.Lock()
	sp.observed = append(types.Signature(nil), observed...)
	sp.mu.Unlock()
}

// MaxPromotions bounds re-promotion churn: each promotion compiles the
// joined signature seen so far, and a call outside that join re-arms
// promotion with a wider join. After this many rounds the signature has
// been widened enough that further narrowing attempts are noise.
const MaxPromotions = 3

// ShouldPromote reports whether this signature just became eligible for
// a background tier-up, and latches the in-flight state when it did.
// The caller must call PromotionDone (on publish) or PromotionFailed
// (on a compiler rejection) exactly once per true return.
func (sp *SigProfile) ShouldPromote(threshold int64) bool {
	if threshold <= 0 || sp.unsupported.Load() {
		return false
	}
	p := sp.promotions.Load()
	if int(p) >= MaxPromotions {
		return false
	}
	// Each round needs another threshold's worth of entries, so one
	// out-of-range call doesn't immediately burn a promotion slot.
	if sp.entries.Load() < threshold*int64(p+1) {
		return false
	}
	return sp.inflight.CompareAndSwap(false, true)
}

// PromotionRound returns how many promotions have landed for this
// signature (the current round number).
func (sp *SigProfile) PromotionRound() int { return int(sp.promotions.Load()) }

// PromotionDone records a landed promotion and re-arms the latch.
func (sp *SigProfile) PromotionDone() {
	sp.promotions.Add(1)
	sp.inflight.Store(false)
}

// PromotionFailed latches the signature as uncompilable; promotion and
// OSR stop trying (the interpreter keeps serving it).
func (sp *SigProfile) PromotionFailed() {
	sp.unsupported.Store(true)
	sp.inflight.Store(false)
}

// Unsupported reports whether the compiler rejected this signature.
func (sp *SigProfile) Unsupported() bool { return sp.unsupported.Load() }

// OSRSite returns the OSR state for a loop statement, creating it on
// first sight. Sites are keyed by AST node identity, which is stable
// for one generation (the library re-registers identical source as a
// no-op, and a real redefinition resets the whole FuncProfile).
func (sp *SigProfile) OSRSite(loop ast.Stmt) *OSRState {
	sp.sitesMu.Lock()
	defer sp.sitesMu.Unlock()
	if sp.sites == nil {
		sp.sites = make(map[ast.Stmt]*OSRState)
	}
	st := sp.sites[loop]
	if st == nil {
		st = &OSRState{}
		sp.sites[loop] = st
	}
	return st
}

// OSRState is the per-loop-site on-stack-replacement machinery: a
// request latch, the published continuation entry, and the failure
// latch that stops retrying sites the compiler rejected.
type OSRState struct {
	// Requested latches the single background compile request.
	Requested atomic.Bool
	// Failed latches sites that can never transfer (nested loop, global
	// variables, uncompilable continuation); the interpreter stops
	// offering them.
	Failed atomic.Bool
	// Deopts counts guarded transfer attempts that fell back; past a
	// small budget the site is recompiled once against the current
	// frame shape, then marked Failed to stop churn.
	Deopts atomic.Int32
	// Recompiles counts budget-triggered re-requests (at most one).
	Recompiles atomic.Int32
	entry      atomic.Pointer[OSREntry]
}

// Entry returns the published continuation (nil until the background
// compile lands).
func (st *OSRState) Entry() *OSREntry { return st.entry.Load() }

// Publish installs a compiled continuation.
func (st *OSRState) Publish(e *OSREntry) { st.entry.Store(e) }

// OSREntry is one compiled loop continuation: code that resumes the
// function from a loop safepoint, parameterized by the live interpreter
// frame (plus, for counted loops, the synthetic induction state).
type OSREntry struct {
	// Params is the formal order the frame is materialized in: the
	// sorted live variable names, then any synthetic loop-state names.
	Params []string
	// Sig is the (widened) signature the continuation was compiled
	// under; a transfer is guarded by Sig.Safe(live values).
	Sig types.Signature
	// Code runs from the loop header to the function's return.
	Code *vm.Compiled
	// Gen is the repository generation the continuation was compiled
	// at; a transfer into another generation's activation is refused.
	Gen uint64
	// Deps are the functions the continuation inlined; a transfer is
	// refused once any of them has been redefined.
	Deps []repo.Dep
	// ForLoop marks counted-loop continuations, which take the four
	// synthetic induction parameters.
	ForLoop bool
}

// --- persistence -------------------------------------------------------------

// SigDump is the serializable form of one SigProfile: the joined
// observed signature plus the hotness counters. Promotion latches and
// OSR sites are deliberately not persisted — they are re-derived (and
// re-validated) against the new lifetime's code.
type SigDump struct {
	Key       string
	Observed  types.Signature
	Entries   int64
	BackEdges int64
}

// FuncDump is one function's persisted profile.
type FuncDump struct {
	Name string
	Sigs []SigDump
}

// Export captures every function's profile in deterministic order (for
// the repository snapshot).
func (s *Store) Export() []FuncDump {
	s.mu.Lock()
	names := make([]string, 0, len(s.funcs))
	for name := range s.funcs {
		names = append(names, name)
	}
	fps := make([]*FuncProfile, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fps = append(fps, s.funcs[name])
	}
	s.mu.Unlock()

	out := make([]FuncDump, 0, len(fps))
	for i, fp := range fps {
		fd := FuncDump{Name: names[i]}
		fp.mu.Lock()
		keys := make([]string, 0, len(fp.sigs))
		for k := range fp.sigs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			sp := fp.sigs[k]
			fd.Sigs = append(fd.Sigs, SigDump{
				Key:       k,
				Observed:  sp.Observed(),
				Entries:   sp.entries.Load(),
				BackEdges: sp.backEdges.Load(),
			})
		}
		fp.mu.Unlock()
		if len(fd.Sigs) > 0 {
			out = append(out, fd)
		}
	}
	return out
}

// Load seeds a function's profile from a snapshot (warm start), at the
// given generation. Existing in-memory state for the function wins —
// the store only seeds functions it has not yet observed.
func (s *Store) Load(name string, gen uint64, sigs []SigDump) {
	s.mu.Lock()
	if _, ok := s.funcs[name]; ok {
		s.mu.Unlock()
		return
	}
	fp := &FuncProfile{name: name, gen: gen, sigs: make(map[string]*SigProfile)}
	s.funcs[name] = fp
	s.mu.Unlock()
	for _, sd := range sigs {
		if sd.Key == "" || len(sd.Observed) == 0 {
			continue
		}
		fp.Sig(sd.Key).Seed(sd.Observed, sd.Entries, sd.BackEdges)
	}
}
