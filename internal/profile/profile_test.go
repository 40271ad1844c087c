package profile

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
)

func TestOSRSiteIdentity(t *testing.T) {
	var sites sync.Map
	a := ast.Stmt(&ast.While{})
	b := ast.Stmt(&ast.While{})
	if Site(&sites, a) != Site(&sites, a) {
		t.Fatalf("same loop node must map to the same site")
	}
	if Site(&sites, a) == Site(&sites, b) {
		t.Fatalf("distinct loop nodes must map to distinct sites")
	}
	st := Site(&sites, a)
	if st.Entry() != nil {
		t.Fatalf("fresh site has an entry")
	}
	e := &OSREntry{Gen: 7}
	st.Publish(e)
	if st.Entry() != e {
		t.Fatalf("published entry not visible")
	}
	st.Publish(nil)
	if st.Entry() != nil {
		t.Fatalf("nil publish did not clear the entry")
	}
}

func TestStatsAggregation(t *testing.T) {
	s := NewStore()
	s.CountActivation(10)
	s.CountActivation(0)
	s.CountActivation(0)
	s.CountPromotion()
	s.CountOSRRequest()
	s.CountOSRCompile()
	s.CountOSRTransfer()
	s.CountOSRDeopt(DeoptGeneration)
	s.CountOSRDeopt(DeoptRange)
	s.CountOSRDeopt(DeoptRange)
	st := s.Stats()
	want := Stats{Entries: 3, BackEdges: 10,
		Promotions: 1, OSRRequests: 1, OSRCompiles: 1, OSRTransfers: 1, OSRDeopts: 3,
		OSRDeoptsGeneration: 1, OSRDeoptsRange: 2}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestDeoptBudgetExhaustedCounter pins the counter's plumbing: the
// store increments it, Stats carries it, and the JSON surface exposes
// it as deopt_budget_exhausted (the /metrics and BENCH_fig4.json
// field name).
func TestDeoptBudgetExhaustedCounter(t *testing.T) {
	s := NewStore()
	if s.Stats().DeoptBudgetExhausted != 0 {
		t.Fatal("fresh store must report zero budget exhaustions")
	}
	s.CountDeoptBudgetExhausted()
	s.CountDeoptBudgetExhausted()
	if got := s.Stats().DeoptBudgetExhausted; got != 2 {
		t.Fatalf("DeoptBudgetExhausted = %d, want 2", got)
	}
	b, err := json.Marshal(s.Stats())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"deopt_budget_exhausted":2`) {
		t.Fatalf("JSON surface missing deopt_budget_exhausted: %s", b)
	}
}
