// Package profile holds the tiering counters of one code library: the
// interpreted activations of a tiered engine and the promotions that
// replaced a placeholder with compiled code. The hotness that decides a
// promotion is counted on the repository entry a better compile would
// replace (repo.Entry.CountUpgrade), so nothing here is touched per call
// beyond one activation count.
package profile

import "sync/atomic"

// Store holds the tiering counters of one code library.
type Store struct {
	activations atomic.Int64
	promotions  atomic.Int64
}

// NewStore returns a zeroed store.
func NewStore() *Store { return &Store{} }

// CountActivation records one interpreted activation of a tiered engine.
func (s *Store) CountActivation() { s.activations.Add(1) }

// CountPromotion records one entry replaced by a better compile.
func (s *Store) CountPromotion() { s.promotions.Add(1) }

// Stats is the tiering surface for /metrics and the benchmark JSON.
// OSRTransfers and OSRDeopts read 0: there is no on-stack replacement,
// and the fields are kept because benchmark/ compiles against them.
type Stats struct {
	Entries      int64 `json:"entries" metric:"majic_profile_entries_total,counter" help:"Interpreted activations of a tiered engine."`
	Promotions   int64 `json:"promotions" metric:"majic_tier_promotions_total,counter" help:"Hot signatures promoted to compiled code."`
	OSRTransfers int64 `json:"osr_transfers" metric:"-"`
	OSRDeopts    int64 `json:"osr_deopts" metric:"-"`
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{Entries: s.activations.Load(), Promotions: s.promotions.Load()}
}
