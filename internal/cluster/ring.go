package cluster

import (
	"sort"

	"github.com/unroller/unroller/internal/xhash"
)

// Flow partitioning is two-level. Level one is fixed: a flow maps to
// one of a configured number of partitions by seeded hash, and never
// re-partitions — partitions are the unit of ownership movement, so a
// membership change moves whole partitions (and their contiguous
// per-partition report streams), never individual flows. Level two is
// the consistent-hash ring: each node projects VNodes points onto a
// 64-bit circle and a partition is owned by the successor of its own
// point. The ring is a pure function of (seed, member IDs, vnodes,
// partitions), so every node and every client that agrees on the
// member set computes the identical assignment with no coordination —
// the Aesop discipline: act on seeded, local knowledge.

// Defaults for the partitioning knobs.
const (
	DefaultPartitions = 32
	DefaultVNodes     = 16
)

// PartitionOf maps a flow to its partition. The mix is keyed the same
// way collectorsvc routes flows to shards, so structured flow IDs (the
// scenarios pack epoch/src/k into them) still spread evenly.
func PartitionOf(flow uint32, partitions int) int {
	return int(xhash.Mix32(flow) % uint32(partitions))
}

// golden is the 64-bit golden-ratio increment used to decorrelate the
// per-vnode and per-partition hash points.
const golden = 0x9E3779B97F4A7C15

// hashString folds a node ID into 64 bits (FNV-1a, then finalized by
// Mix64 so short IDs with shared prefixes spread).
func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return xhash.Mix64(h)
}

type ringPoint struct {
	hash uint64
	node string
}

// Ring is the deterministic partition→node assignment for one member
// set. Build it with NewRing; it is immutable afterwards.
type Ring struct {
	seed       uint64
	vnodes     int
	partitions int
	points     []ringPoint
	owners     []string // partition index → node ID ("" when no nodes)
}

// NewRing computes the assignment for nodes (ring-eligible member IDs;
// order does not matter). vnodes and partitions must match across every
// party computing the ring — they are configuration, not gossip.
func NewRing(seed uint64, vnodes, partitions int, nodes []string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	if partitions <= 0 {
		partitions = DefaultPartitions
	}
	r := &Ring{
		seed:       seed,
		vnodes:     vnodes,
		partitions: partitions,
		owners:     make([]string, partitions),
	}
	r.points = make([]ringPoint, 0, len(nodes)*vnodes)
	for _, id := range nodes {
		base := hashString(id) ^ xhash.Mix64(seed)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: xhash.Mix64(base + uint64(v+1)*golden),
				node: id,
			})
		}
	}
	// Ties (astronomically unlikely but determinism demands a rule)
	// break by node ID.
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	for p := 0; p < partitions; p++ {
		r.owners[p] = r.successor(xhash.Mix64(seed ^ uint64(p+1)*golden))
	}
	return r
}

// successor finds the first ring point at or after h, wrapping.
func (r *Ring) successor(h uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Partitions returns the configured partition count.
func (r *Ring) Partitions() int { return r.partitions }

// Owner returns the node ID owning partition p ("" with no nodes).
func (r *Ring) Owner(p int) string { return r.owners[p] }

// Counts returns partitions owned per node — the balance /statsz shows.
func (r *Ring) Counts() map[string]int {
	out := make(map[string]int)
	for _, id := range r.owners {
		if id != "" {
			out[id]++
		}
	}
	return out
}

// ringNodes selects the ring-eligible IDs from a membership view:
// alive and suspect members carry partitions (a suspicion is a rumour,
// not a verdict — resharding on suspicion would flap ownership on every
// dropped probe); dead members are out.
func ringNodes(members []Member) []string {
	out := make([]string, 0, len(members))
	for _, m := range members {
		if m.Status != StatusDead {
			out = append(out, m.ID)
		}
	}
	return out
}
