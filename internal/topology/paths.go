package topology

import (
	"fmt"

	"github.com/unroller/unroller/internal/xrand"
)

// BFS returns the hop distance from src to every node; unreachable nodes
// get -1.
func (g *Graph) BFS(src int) []int {
	dist := make([]int32, g.N())
	g.BFSInto(src, dist, make([]int32, g.N()))
	out := make([]int, len(dist))
	for i, d := range dist {
		out[i] = int(d)
	}
	return out
}

// BFSInto writes the hop distance from src to every node into dist,
// -1 for unreachable nodes, using queue as its work list. Both slices
// must hold at least N entries; the caller owns them and may reuse them
// across searches, so a search allocates nothing.
func (g *Graph) BFSInto(src int, dist, queue []int32) {
	dist = dist[:g.N()]
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue[0] = int32(src)
	for head, tail := 0, 1; head < tail; head++ {
		u := queue[head]
		du := dist[u] + 1
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = du
				queue[tail] = int32(v)
				tail++
			}
		}
	}
}

// Eccentricity returns the largest finite distance from u. It panics if
// the graph is disconnected from u's component's perspective only in the
// sense that unreachable nodes are ignored.
func (g *Graph) Eccentricity(u int) int {
	ecc := 0
	for _, d := range g.BFS(u) {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the longest shortest path in hops (0 for graphs with
// fewer than two nodes). Disconnected pairs are ignored; call Connected
// first when that matters. O(N·(N+M)) — fine at Topology Zoo scale.
func (g *Graph) Diameter() int {
	diam := 0
	for u := 0; u < g.N(); u++ {
		if e := g.Eccentricity(u); e > diam {
			diam = e
		}
	}
	return diam
}

// ShortestPath returns one uniformly random shortest path from src to dst
// (inclusive of both), drawn by walking the shortest-path DAG backwards
// with per-step uniform predecessor choice. Returns an error if dst is
// unreachable.
//
// Random tie-breaking matters for the Table 5 experiment: the paper picks
// "a shortest path" between random node pairs, and deterministic
// tie-breaking would bias which switches appear on paths.
func (g *Graph) ShortestPath(src, dst int, rng *xrand.Rand) ([]int, error) {
	if src < 0 || dst < 0 || src >= g.N() || dst >= g.N() {
		return nil, fmt.Errorf("topology: path endpoints (%d,%d) out of range", src, dst)
	}
	dist := g.BFS(src)
	if dist[dst] < 0 {
		return nil, fmt.Errorf("topology: %s: node %d unreachable from %d", g.Name, dst, src)
	}
	// Walk back from dst choosing uniformly among predecessors on
	// shortest paths. This samples paths with a bias towards balanced
	// DAGs rather than exactly uniformly over all shortest paths, which
	// is the standard and sufficient randomisation for this experiment.
	path := []int{dst}
	cur := dst
	for cur != src {
		var preds []int
		for _, w := range g.adj[cur] {
			if dist[w] == dist[cur]-1 {
				preds = append(preds, w)
			}
		}
		cur = preds[rng.Intn(len(preds))]
		path = append(path, cur)
	}
	// Reverse into src→dst order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

// RandomPair returns two distinct uniform random nodes. It panics on
// graphs with fewer than two nodes.
func (g *Graph) RandomPair(rng *xrand.Rand) (int, int) {
	if g.N() < 2 {
		panic("topology: RandomPair needs at least two nodes")
	}
	u := rng.Intn(g.N())
	v := rng.Intn(g.N() - 1)
	if v >= u {
		v++
	}
	return u, v
}
