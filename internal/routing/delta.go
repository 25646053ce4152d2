package routing

import (
	"fmt"

	"github.com/unroller/unroller/internal/dataplane"
)

// Incremental FIB deltas. InstallInto reprograms a whole destination's
// routes at once, but real control planes push *updates*: each
// convergence round changes a handful of next hops, and those changes
// reach switches one flow-mod at a time. Snapshotting the next-hop
// function per round and diffing consecutive snapshots yields exactly
// those updates, which a FaultPlan can then stagger across epochs — some
// switches running round-k routes while others still hold round-(k-1) —
// the inconsistency window where the paper's transient loops live.

// NextHops returns a snapshot of every router's current next hop towards
// dst, -1 where the router has no route (or is the destination itself).
// The slice is freshly allocated; it stays valid across later Steps.
func (p *Protocol) NextHops(dst int) []int {
	row := dst * p.n
	metric, next := p.metric[row:row+p.n], p.next[row:row+p.n]
	out := make([]int, p.n)
	for u := range out {
		out[u] = int(next[u])
		if int(metric[u]) >= p.Infinity {
			out[u] = -1
		}
	}
	return out
}

// Delta computes the FIB updates that move net from the prev next-hop
// snapshot to cur, for destination dst: one update per router whose next
// hop changed, a Clear where the route disappeared. Updates are emitted
// in ascending node order, so the delta is deterministic.
func Delta(net *dataplane.Network, dst int, prev, cur []int) ([]dataplane.RouteUpdate, error) {
	if len(prev) != net.Graph.N() || len(cur) != net.Graph.N() {
		return nil, fmt.Errorf("routing: snapshot length %d/%d does not match graph size %d", len(prev), len(cur), net.Graph.N())
	}
	dstID := net.Assign.ID(dst)
	var out []dataplane.RouteUpdate
	for u := range cur {
		if u == dst || prev[u] == cur[u] {
			continue
		}
		if cur[u] < 0 {
			out = append(out, dataplane.RouteUpdate{Node: u, Dst: dstID, Clear: true})
			continue
		}
		port, err := net.PortTo(u, cur[u])
		if err != nil {
			return nil, fmt.Errorf("routing: delta for node %d: %w", u, err)
		}
		out = append(out, dataplane.RouteUpdate{Node: u, Dst: dstID, Port: port})
	}
	return out, nil
}
