// Package routing implements a synchronous distance-vector routing
// protocol (RIP-style Bellman-Ford with a metric cap and optional split
// horizon). Its purpose in this repository is to manufacture the
// phenomenon Unroller exists for: transient forwarding loops. When a
// link fails, distance-vector networks count to infinity — for several
// rounds, nodes bounce destination-bound traffic between each other
// until the bad news propagates. Snapshotting the FIBs mid-convergence
// and installing them into the data-plane emulator yields authentic
// routing loops, not hand-injected ones (§1 of the paper cites exactly
// this routing instability as a main source of loops).
package routing

import (
	"fmt"
	"math"

	"github.com/unroller/unroller/internal/topology"
)

// DefaultInfinity is the classic RIP metric cap.
const DefaultInfinity = 16

// Protocol is the state of every router in the network. It is not safe
// for concurrent use.
//
// The tables are dense and destination-major: entry (u, d), router u's
// route towards d, lives at index d*n+u of metric and next, so one
// destination's routes are one contiguous row. Step is a synchronous
// Bellman-Ford round paid per changed entry: it recomputes only the
// entries whose inputs changed since their last computation.
type Protocol struct {
	g *topology.Graph
	// Infinity is the unreachability metric (≥ 2). The tables hold
	// int32 metrics: Step panics on a value outside the int32 range.
	Infinity int
	// SplitHorizon suppresses advertising a route back to the
	// neighbour it was learned from — the standard mitigation whose
	// effect on transient loops the tests quantify.
	SplitHorizon bool

	n int
	// adj[u] is Graph.Neighbors(u) as of New; alive[u][i] reports
	// whether the link to adj[u][i] is up.
	adj   [][]int
	alive [][]bool
	// metric[d*n+u] is u's believed distance to d; next[d*n+u] the
	// neighbour it sends through, -1 when unreachable or u == d.
	metric []int32
	next   []int32

	// dirty lists the entries the next Step recomputes, without
	// repeats; queued[i] reports whether entry i is on it. The first
	// Step after New (full) and any Step that finds Infinity or
	// SplitHorizon changed since the previous one (stepInf, stepSplit)
	// recompute every entry instead.
	dirty     []int32
	queued    []bool
	full      bool
	stepInf   int
	stepSplit bool
	// work and staged are Step's scratch, reused across rounds.
	work   []int32
	staged []stagedEntry
	rounds int
}

// stagedEntry is a recomputed entry that differs from the table, held
// until the round's scan ends.
type stagedEntry struct {
	i            int32
	metric, next int32
}

// New initialises the protocol over g with every link up and every
// router knowing only itself.
func New(g *topology.Graph, infinity int, splitHorizon bool) (*Protocol, error) {
	if infinity < 2 || infinity > math.MaxInt32 {
		return nil, fmt.Errorf("routing: infinity must be in [2, %d], got %d", math.MaxInt32, infinity)
	}
	n := g.N()
	if int64(n)*int64(n) > math.MaxInt32 {
		return nil, fmt.Errorf("routing: %d nodes overflow the int32-indexed tables", n)
	}
	p := &Protocol{
		g:            g,
		Infinity:     infinity,
		SplitHorizon: splitHorizon,
		n:            n,
		adj:          make([][]int, n),
		alive:        make([][]bool, n),
		metric:       make([]int32, n*n),
		next:         make([]int32, n*n),
		queued:       make([]bool, n*n),
		full:         true,
	}
	up := make([]bool, 2*g.M())
	for u := 0; u < n; u++ {
		p.adj[u] = g.Neighbors(u)
		deg := len(p.adj[u])
		p.alive[u], up = up[:deg:deg], up[deg:]
		for i := range p.alive[u] {
			p.alive[u][i] = true
		}
	}
	for i := range p.metric {
		p.metric[i] = int32(infinity)
		p.next[i] = -1
	}
	for u := 0; u < n; u++ {
		p.metric[u*n+u] = 0
	}
	return p, nil
}

// port returns the index of v in u's adjacency, or -1 when {u, v} is not
// a link (including out-of-range nodes).
func (p *Protocol) port(u, v int) int {
	if u < 0 || u >= p.n {
		return -1
	}
	for i, w := range p.adj[u] {
		if w == v {
			return i
		}
	}
	return -1
}

// LinkUp reports whether the link {u, v} is alive; false for a non-edge
// or an out-of-range node.
func (p *Protocol) LinkUp(u, v int) bool {
	i := p.port(u, v)
	return i >= 0 && p.alive[u][i]
}

// inf32 returns Infinity as the tables store it.
func (p *Protocol) inf32() (int32, error) {
	if p.Infinity < math.MinInt32 || p.Infinity > math.MaxInt32 {
		return 0, fmt.Errorf("routing: Infinity %d does not fit the int32 tables", p.Infinity)
	}
	return int32(p.Infinity), nil
}

// mark queues entry i for recomputation by the next Step.
func (p *Protocol) mark(i int) {
	if !p.queued[i] {
		p.queued[i] = true
		p.dirty = append(p.dirty, int32(i))
	}
}

// markNode queues every entry of router u: one of its links changed
// liveness.
func (p *Protocol) markNode(u int) {
	for d := 0; d < p.n; d++ {
		p.mark(d*p.n + u)
	}
}

// changed queues the entries that read entry (u, d), which just
// changed: d's entry at every neighbour u advertises to over a live
// link.
func (p *Protocol) changed(u, d int) {
	row, alive := d*p.n, p.alive[u]
	for i, w := range p.adj[u] {
		if alive[i] {
			p.mark(row + w)
		}
	}
}

// FailLink takes {u, v} down. Both endpoints immediately poison routes
// through the dead link (the local interface-down event); the rest of
// the network only learns through subsequent rounds.
func (p *Protocol) FailLink(u, v int) error {
	iu := p.port(u, v)
	if iu < 0 {
		return fmt.Errorf("routing: no link (%d,%d)", u, v)
	}
	if !p.alive[u][iu] {
		return fmt.Errorf("routing: link (%d,%d) already down", u, v)
	}
	inf, err := p.inf32()
	if err != nil {
		return err
	}
	p.alive[u][iu], p.alive[v][p.port(v, u)] = false, false
	p.poison(u, v, inf)
	p.poison(v, u, inf)
	return nil
}

// poison is a's interface-down event for its link to b: every route of a
// through b becomes unreachable, and every entry of a is queued.
func (p *Protocol) poison(a, b int, inf int32) {
	for d := 0; d < p.n; d++ {
		if i := d*p.n + a; p.next[i] == int32(b) {
			p.metric[i], p.next[i] = inf, -1
			p.changed(a, d)
		}
	}
	p.markNode(a)
}

// RestoreLink brings {u, v} back up. Restoring a live link is a no-op.
func (p *Protocol) RestoreLink(u, v int) error {
	iu := p.port(u, v)
	if iu < 0 {
		return fmt.Errorf("routing: no link (%d,%d)", u, v)
	}
	if p.alive[u][iu] {
		return nil
	}
	p.alive[u][iu], p.alive[v][p.port(v, u)] = true, true
	p.markNode(u)
	p.markNode(v)
	return nil
}

// Step runs one synchronous exchange round: every router advertises its
// current vector to its live neighbours, then every router recomputes
// from what it heard. It returns whether any table changed.
//
// Only dirty entries are recomputed: an entry whose inputs (its
// neighbours' entries for the same destination, its router's link
// liveness) are as they were at its last computation would compute the
// same value again. The new values are staged and applied after the
// scan, so every read sees the tables as they stood at the start of the
// round, and each applied change queues its readers for the next round.
func (p *Protocol) Step() bool {
	inf, err := p.inf32()
	if err != nil {
		panic(err)
	}
	p.staged = p.staged[:0]
	if p.full || p.Infinity != p.stepInf || p.SplitHorizon != p.stepSplit {
		p.full, p.stepInf, p.stepSplit = false, p.Infinity, p.SplitHorizon
		for _, i := range p.dirty {
			p.queued[i] = false
		}
		p.dirty = p.dirty[:0]
		for i := range p.metric {
			p.recompute(i, inf)
		}
	} else {
		p.work, p.dirty = p.dirty, p.work[:0]
		for _, i := range p.work {
			p.queued[i] = false
			p.recompute(int(i), inf)
		}
	}
	for _, s := range p.staged {
		p.metric[s.i], p.next[s.i] = s.metric, s.next
		p.changed(int(s.i)%p.n, int(s.i)/p.n)
	}
	p.rounds++
	return len(p.staged) > 0
}

// recompute runs Bellman-Ford for entry i = d*n+u from the current
// tables and stages the result if it differs from the entry.
func (p *Protocol) recompute(i int, inf int32) {
	d, u := i/p.n, i%p.n
	metric, next := inf, int32(-1)
	if u == d {
		metric = 0
	} else {
		row := d * p.n
		alive := p.alive[u]
		for k, v := range p.adj[u] {
			if !alive[k] {
				continue
			}
			adv := p.metric[row+v]
			if adv >= inf || (p.SplitHorizon && p.next[row+v] == int32(u)) {
				continue
			}
			if adv+1 < metric {
				metric, next = adv+1, int32(v)
			}
		}
	}
	if metric != p.metric[i] || next != p.next[i] {
		p.staged = append(p.staged, stagedEntry{i: int32(i), metric: metric, next: next})
	}
}

// Converge steps until stable or maxRounds, returning the number of
// rounds taken and whether a fixed point was reached.
func (p *Protocol) Converge(maxRounds int) (int, bool) {
	for r := 0; r < maxRounds; r++ {
		if !p.Step() {
			return r, true
		}
	}
	return maxRounds, false
}

// Rounds returns the number of exchange rounds executed.
func (p *Protocol) Rounds() int { return p.rounds }

// NextHop returns u's current next hop towards dst, or ok=false when u
// has no route (or is the destination).
func (p *Protocol) NextHop(u, dst int) (int, bool) {
	i := dst*p.n + u
	if p.next[i] < 0 || int(p.metric[i]) >= p.Infinity {
		return -1, false
	}
	return int(p.next[i]), true
}

// Metric returns u's believed distance to dst (Infinity when
// unreachable).
func (p *Protocol) Metric(u, dst int) int { return int(p.metric[dst*p.n+u]) }

// ForwardingLoops returns every forwarding loop for dst in the current
// tables: cycles in the functional graph u → NextHop(u, dst). Each loop
// is returned once, as the node cycle in forwarding order.
func (p *Protocol) ForwardingLoops(dst int) []topology.Cycle {
	n := p.g.N()
	const (
		white = 0 // unvisited
		grey  = 1 // on the current walk
		black = 2 // resolved
	)
	color := make([]int, n)
	pos := make([]int, n) // position of a grey node in the current walk
	var loops []topology.Cycle
	for start := 0; start < n; start++ {
		if color[start] != white || start == dst {
			continue
		}
		var walk []int
		u := start
		for {
			if u == dst || color[u] == black {
				break
			}
			if color[u] == grey {
				// Found a new loop: the walk suffix from u's
				// first occurrence.
				loops = append(loops, append(topology.Cycle(nil), walk[pos[u]:]...))
				break
			}
			color[u] = grey
			pos[u] = len(walk)
			walk = append(walk, u)
			next, ok := p.NextHop(u, dst)
			if !ok {
				break
			}
			u = next
		}
		for _, w := range walk {
			color[w] = black
		}
	}
	return loops
}

// HasLoops reports whether any destination currently has a forwarding
// loop.
func (p *Protocol) HasLoops() bool {
	for d := 0; d < p.g.N(); d++ {
		if len(p.ForwardingLoops(d)) > 0 {
			return true
		}
	}
	return false
}
