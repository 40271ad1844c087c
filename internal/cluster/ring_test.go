package cluster

import (
	"fmt"
	"testing"
)

func ringNodes(ids ...string) []Node {
	out := make([]Node, len(ids))
	for i, id := range ids {
		out[i] = Node{ID: id, Addr: "http://" + id}
	}
	return out
}

// TestRingDeterministic: placement is a pure function of membership —
// the same fleet in any declaration order yields the same owner and
// failover order for every key, so every gateway replica routes alike.
func TestRingDeterministic(t *testing.T) {
	r1, err := NewRing(0, ringNodes("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(0, ringNodes("c", "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("session-%d", i)
		o1, o2 := r1.Lookup(key), r2.Lookup(key)
		if len(o1) != 3 || len(o2) != 3 {
			t.Fatalf("key %q: lookup must return every distinct node: %v %v", key, o1, o2)
		}
		for j := range o1 {
			if o1[j].ID != o2[j].ID {
				t.Fatalf("key %q: order-dependent placement: %v vs %v", key, o1, o2)
			}
		}
	}
}

func TestRingDistribution(t *testing.T) {
	r, err := NewRing(0, ringNodes("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("session-%d", i)).ID]++
	}
	for id, n := range counts {
		// With 64 vnodes per node the split should be far from degenerate;
		// 10% is a loose floor that still catches a broken hash.
		if n < keys/10 {
			t.Fatalf("node %s owns only %d/%d keys: %v", id, n, keys, counts)
		}
	}
}

// TestRingFailoverConsistency: removing a node reassigns only that
// node's keys, and each lands exactly on its old failover successor —
// the property that makes the gateway's "next ring node" failover agree
// with a fresh ring built without the dead node.
func TestRingFailoverConsistency(t *testing.T) {
	full, err := NewRing(0, ringNodes("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	without, err := NewRing(0, ringNodes("b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("session-%d", i)
		order := full.Lookup(key)
		got := without.Owner(key)
		if order[0].ID != "a" {
			if got.ID != order[0].ID {
				t.Fatalf("key %q: owner moved although its node survived: %s → %s", key, order[0].ID, got.ID)
			}
			continue
		}
		moved++
		if got.ID != order[1].ID {
			t.Fatalf("key %q: failover target %s disagrees with shrunken ring owner %s", key, order[1].ID, got.ID)
		}
	}
	if moved == 0 {
		t.Fatal("no keys owned by the removed node — distribution broken")
	}
}

// TestRingGrowthStability: adding a node steals keys only for itself;
// every other key keeps its owner (the consistent-hashing contract that
// bounds cold compiles during a scale-out).
func TestRingGrowthStability(t *testing.T) {
	small, _ := NewRing(0, ringNodes("a", "b", "c"))
	big, _ := NewRing(0, ringNodes("a", "b", "c", "d"))
	stolen := 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("session-%d", i)
		was, now := small.Owner(key), big.Owner(key)
		if was.ID != now.ID {
			if now.ID != "d" {
				t.Fatalf("key %q moved %s → %s, not to the new node", key, was.ID, now.ID)
			}
			stolen++
		}
	}
	if stolen == 0 || stolen > 600 {
		t.Fatalf("new node stole %d/1000 keys, want roughly a quarter", stolen)
	}
}

func TestRingRejectsBadMembership(t *testing.T) {
	if _, err := NewRing(0, nil); err == nil {
		t.Fatal("empty membership must be rejected")
	}
	if _, err := NewRing(0, ringNodes("a", "a")); err == nil {
		t.Fatal("duplicate node IDs must be rejected")
	}
}
