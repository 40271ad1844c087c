package profile

import "testing"

func TestStatsAggregation(t *testing.T) {
	s := NewStore()
	s.CountActivation()
	s.CountActivation()
	s.CountActivation()
	s.CountPromotion()
	if st, want := s.Stats(), (Stats{Entries: 3, Promotions: 1}); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}
