// Package profile holds the runtime state behind tiered recompilation
// that does not live on a repository entry: the counters behind Stats
// (interpreted activations and their loop back-edges, promotions, OSR
// requests, compiles, transfers and cause-attributed deopts) and the
// on-stack-replacement site state. The hotness that decides a promotion
// is counted on the repository entry a better compile would replace
// (repo.Entry.CountUpgrade), so nothing here is touched per call beyond
// one activation count.
//
// An OSR site is one loop of the calls an interpret-only entry serves:
// one compiled continuation published by a background compile job and
// consumed by the interpreter at a back-edge safepoint. Sites hang off
// the entry (repo.Entry.OSRSites) and are looked up only by a hot
// activation, so they die with the entry, and the continuation is
// guarded by the function's generation, so redefinition makes it
// unreachable exactly like repository entries.
package profile

import (
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/repo"
	"repro/internal/types"
	"repro/internal/vm"
)

// Store holds the tiering counters of one code library.
type Store struct {
	activations  atomic.Int64
	backEdges    atomic.Int64
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
	// continuation (a compiled-in variable is not bound).
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

// NewStore returns a zeroed store.
func NewStore() *Store { return &Store{} }

// CountActivation records one interpreted activation of a tiered engine
// and the loop back-edges it ran.
func (s *Store) CountActivation(backEdges int64) {
	s.activations.Add(1)
	if backEdges > 0 {
		s.backEdges.Add(backEdges)
	}
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
		Entries:              s.activations.Load(),
		BackEdges:            s.backEdges.Load(),
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
	return st
}

// Site returns the OSR state for a loop in an entry's site table,
// creating it on first sight. Sites are keyed by AST node identity,
// which is stable for one generation (the library re-registers identical
// source as a no-op, and a real redefinition parks new entries).
func Site(sites *sync.Map, loop ast.Stmt) *OSRState {
	if st, ok := sites.Load(loop); ok {
		return st.(*OSRState)
	}
	st, _ := sites.LoadOrStore(loop, &OSRState{})
	return st.(*OSRState)
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
}
