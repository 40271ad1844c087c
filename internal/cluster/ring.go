// Package cluster shards majicd horizontally: a consistent-hash ring
// places sessions on nodes, a gateway proxies the daemon's session API
// along that placement with health-checked failover, and a replicator
// pushes newly compiled repository entries between peers — so a
// (function, widened signature) is JIT-compiled roughly once fleet-wide
// instead of once per node.
//
// No binary links this package: one majicd already compiles each
// function once (its sessions share one library), so a fleet saves no
// compiles. It stays only for the benchmark's fleet probe, and goes
// with that probe.
//
// The package builds strictly on top of internal/server's HTTP surface
// (/readyz, /cluster/ingest, /cluster/digest, and the session routes);
// server never imports cluster.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Node identifies one majicd in the fleet.
type Node struct {
	// ID is the stable node name ("a", "node-1"); hashing keys on the
	// ID, not the address, so a node can move hosts without reshuffling
	// its sessions.
	ID string `json:"id"`
	// Addr is the node's base URL ("http://127.0.0.1:7101").
	Addr string `json:"addr"`
}

// DefaultVnodes is the virtual-node count per physical node. 64 points
// per node keeps the expected placement imbalance across a handful of
// nodes within a few percent while the ring stays tiny.
const DefaultVnodes = 64

// Ring is a consistent-hash ring with virtual nodes: each node
// contributes vnodes points (mixed FNV-64a of "id#i") on a sorted
// circle, and
// a key maps to the first point clockwise from its own hash. Placement
// is a pure function of (membership, vnodes, key) — every gateway
// computes the same answer with no coordination, and adding or removing
// one node moves only ~1/N of the keyspace. The ring itself is
// immutable after construction; liveness is layered on by the caller
// (Lookup returns the full failover order, the gateway skips not-ready
// nodes).
type Ring struct {
	vnodes int
	nodes  []Node  // sorted by ID
	points []point // sorted by hash
}

type point struct {
	hash uint64
	node int // index into nodes
}

// NewRing builds a ring over the given nodes (vnodes <= 0 selects
// DefaultVnodes). Duplicate IDs are an error: two nodes hashing to
// identical point sets would silently halve the ring.
func NewRing(vnodes int, nodes []Node) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	sorted := append([]Node(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	r := &Ring{vnodes: vnodes, nodes: sorted, points: make([]point, 0, vnodes*len(sorted))}
	for i, n := range sorted {
		if n.ID == "" {
			return nil, fmt.Errorf("cluster: node %q has an empty ID", n.Addr)
		}
		if i > 0 && sorted[i-1].ID == n.ID {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", n.ID)
		}
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: hashKey(fmt.Sprintf("%s#%d", n.ID, v)), node: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Identical hashes (vanishingly rare) tie-break on node index so
		// the order is still deterministic across gateways.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer. FNV-64a alone avalanches poorly on
// the short "id#i" vnode labels — neighboring labels land on clustered
// ring points and a 3-node fleet can end up 3%/44%/53% — so the hash is
// pushed through a full-avalanche mix before it becomes a ring
// position.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e9b5
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Nodes returns the membership, sorted by ID.
func (r *Ring) Nodes() []Node { return append([]Node(nil), r.nodes...) }

// Vnodes returns the per-node virtual point count.
func (r *Ring) Vnodes() int { return r.vnodes }

// Lookup returns every node ordered by preference for key: the owner
// first (first ring point clockwise from the key's hash), then each
// distinct node in the order their points appear walking on around the
// circle. The tail is the failover order — a gateway that finds the
// owner draining or dead places the session on the next node, and every
// gateway independently picks the same one.
func (r *Ring) Lookup(key string) []Node {
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]Node, 0, len(r.nodes))
	seen := make([]bool, len(r.nodes))
	for i := 0; i < len(r.points) && len(out) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.nodes[p.node])
		}
	}
	return out
}

// Owner returns just the first-preference node for key.
func (r *Ring) Owner(key string) Node { return r.Lookup(key)[0] }
