package routing

import (
	"testing"

	"github.com/unroller/unroller/internal/topology"
	"github.com/unroller/unroller/internal/xrand"
)

// refProtocol is the from-scratch distance-vector engine Protocol
// replaced, kept as the reference its incremental Step must match: a
// map of live links and per-router tables, every entry recomputed every
// round into freshly allocated tables.
type refProtocol struct {
	g            *topology.Graph
	Infinity     int
	SplitHorizon bool
	alive        map[[2]int]bool // live links, normalised u<v
	tables       [][]refEntry    // tables[u][dst]
}

type refEntry struct {
	metric  int
	nextHop int // -1 when unreachable or self
}

func newRef(g *topology.Graph, infinity int, splitHorizon bool) *refProtocol {
	p := &refProtocol{
		g:            g,
		Infinity:     infinity,
		SplitHorizon: splitHorizon,
		alive:        make(map[[2]int]bool, g.M()),
		tables:       make([][]refEntry, g.N()),
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			p.alive[refKey(u, v)] = true
		}
		p.tables[u] = make([]refEntry, g.N())
		for d := range p.tables[u] {
			p.tables[u][d] = refEntry{metric: infinity, nextHop: -1}
		}
		p.tables[u][u] = refEntry{metric: 0, nextHop: -1}
	}
	return p
}

func refKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

func (p *refProtocol) failLink(u, v int) bool {
	if !p.g.HasEdge(u, v) || !p.alive[refKey(u, v)] {
		return false
	}
	p.alive[refKey(u, v)] = false
	for d := 0; d < p.g.N(); d++ {
		if p.tables[u][d].nextHop == v {
			p.tables[u][d] = refEntry{metric: p.Infinity, nextHop: -1}
		}
		if p.tables[v][d].nextHop == u {
			p.tables[v][d] = refEntry{metric: p.Infinity, nextHop: -1}
		}
	}
	return true
}

func (p *refProtocol) restoreLink(u, v int) bool {
	if !p.g.HasEdge(u, v) {
		return false
	}
	p.alive[refKey(u, v)] = true
	return true
}

func (p *refProtocol) step() bool {
	n := p.g.N()
	next := make([][]refEntry, n)
	changed := false
	for u := 0; u < n; u++ {
		next[u] = make([]refEntry, n)
		for d := 0; d < n; d++ {
			if u == d {
				next[u][d] = refEntry{metric: 0, nextHop: -1}
				continue
			}
			best := refEntry{metric: p.Infinity, nextHop: -1}
			for _, v := range p.g.Neighbors(u) {
				if !p.alive[refKey(u, v)] {
					continue
				}
				e := p.tables[v][d]
				adv := e.metric
				if p.SplitHorizon && e.nextHop == u {
					adv = p.Infinity
				}
				if adv >= p.Infinity {
					continue
				}
				if m := adv + 1; m < best.metric {
					best = refEntry{metric: m, nextHop: v}
				}
			}
			next[u][d] = best
			if best != p.tables[u][d] {
				changed = true
			}
		}
	}
	p.tables = next
	return changed
}

// refGraphs are the topologies the equivalence checks run on: a ring
// (count-to-infinity's textbook case), a torus (the churn benchmark's
// shape, smaller) and a fat tree (many equal-cost ties).
func refGraphs(t testing.TB) []*topology.Graph {
	t.Helper()
	var gs []*topology.Graph
	for _, build := range []func() (*topology.Graph, error){
		func() (*topology.Graph, error) { return topology.Ring(9) },
		func() (*topology.Graph, error) { return topology.Torus(6, 6) },
		func() (*topology.Graph, error) { return topology.FatTree(4) },
	} {
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	return gs
}

// runAgainstRef drives Protocol and the reference through the same
// schedule and fails at the first divergence. ops is read in (op, arg)
// byte pairs: op%10 in 0–3 steps a round, 4 fails link arg, 5 restores
// it, 6 isolates node arg (fails every live link), 7 restores every
// link of node arg, 8 sets Infinity to 2+arg%20, 9 toggles SplitHorizon.
func runAgainstRef(t *testing.T, g *topology.Graph, split bool, ops []byte) {
	t.Helper()
	p, err := New(g, DefaultInfinity, split)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRef(g, DefaultInfinity, split)
	var links [][2]int
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				links = append(links, [2]int{u, v})
			}
		}
	}
	compare := func(when string) {
		t.Helper()
		for d := 0; d < g.N(); d++ {
			for u := 0; u < g.N(); u++ {
				want := ref.tables[u][d]
				if got := p.Metric(u, d); got != want.metric {
					t.Fatalf("%s: Metric(%d,%d) = %d, reference %d", when, u, d, got, want.metric)
				}
				if got := int(p.next[d*g.N()+u]); got != want.nextHop {
					t.Fatalf("%s: next(%d,%d) = %d, reference %d", when, u, d, got, want.nextHop)
				}
				gotHop, gotOK := p.NextHop(u, d)
				wantOK := want.nextHop >= 0 && want.metric < ref.Infinity
				if gotOK != wantOK || (wantOK && gotHop != want.nextHop) {
					t.Fatalf("%s: NextHop(%d,%d) = %d,%v, reference %d,%v", when, u, d, gotHop, gotOK, want.nextHop, wantOK)
				}
			}
		}
		for _, l := range links {
			if got, want := p.LinkUp(l[0], l[1]), ref.alive[l]; got != want {
				t.Fatalf("%s: LinkUp(%d,%d) = %v, reference %v", when, l[0], l[1], got, want)
			}
		}
	}
	for k := 0; k+1 < len(ops); k += 2 {
		op, arg := ops[k]%10, int(ops[k+1])
		when := ""
		switch op {
		case 0, 1, 2, 3:
			got, want := p.Step(), ref.step()
			if got != want {
				t.Fatalf("op %d: Step() = %v, reference %v", k/2, got, want)
			}
			when = "after Step"
		case 4, 5:
			l := links[arg%len(links)]
			var gotOK, wantOK bool
			if op == 4 {
				gotOK, wantOK = p.FailLink(l[0], l[1]) == nil, ref.failLink(l[0], l[1])
			} else {
				gotOK, wantOK = p.RestoreLink(l[0], l[1]) == nil, ref.restoreLink(l[0], l[1])
			}
			if gotOK != wantOK {
				t.Fatalf("op %d (%d on %v): ok = %v, reference %v", k/2, op, l, gotOK, wantOK)
			}
			when = "after link change"
		case 6, 7:
			x := arg % g.N()
			for _, v := range g.Neighbors(x) {
				if op == 6 && p.LinkUp(x, v) {
					if err := p.FailLink(x, v); err != nil {
						t.Fatal(err)
					}
					ref.failLink(x, v)
				}
				if op == 7 {
					if err := p.RestoreLink(x, v); err != nil {
						t.Fatal(err)
					}
					ref.restoreLink(x, v)
				}
			}
			when = "after node change"
		case 8:
			p.Infinity = 2 + arg%20
			ref.Infinity = p.Infinity
			when = "after Infinity change"
		case 9:
			p.SplitHorizon = !p.SplitHorizon
			ref.SplitHorizon = p.SplitHorizon
			when = "after SplitHorizon change"
		}
		compare(when)
	}
}

// TestStepMatchesReference: over seeded fail/restore/isolate schedules,
// with Infinity and SplitHorizon changed between rounds, the incremental
// Step returns what the from-scratch reference returns after every
// round, and every metric, next hop and link state agrees.
func TestStepMatchesReference(t *testing.T) {
	const schedules, steps = 6, 200
	for _, g := range refGraphs(t) {
		for _, split := range []bool{false, true} {
			for seed := uint64(0); seed < schedules; seed++ {
				rng := xrand.New(seed)
				ops := make([]byte, 2*steps)
				for i := range ops {
					ops[i] = byte(rng.Uint32())
				}
				// Mostly quiet stretches: a real schedule lets
				// count-to-infinity run for many rounds.
				for i := 0; i < len(ops); i += 2 {
					if rng.Intn(4) != 0 {
						ops[i] = 0
					}
				}
				runAgainstRef(t, g, split, ops)
			}
		}
	}
}

// FuzzStepReference is TestStepMatchesReference over fuzzed schedules:
// data[0] picks the topology and split horizon, the rest is the
// (op, arg) schedule runAgainstRef reads.
func FuzzStepReference(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 6, 3, 0, 0, 0, 0, 0, 0, 7, 3, 0, 0, 0, 0})                   // isolate and restore a torus node
	f.Add([]byte{2, 4, 0, 0, 0, 9, 0, 0, 0, 0, 0, 8, 5, 0, 0, 5, 0, 0, 0})       // fail, toggle split, shrink Infinity, restore
	f.Add([]byte{3, 0, 0, 4, 1, 0, 0, 0, 0, 4, 1, 0, 0, 5, 1, 5, 1, 0, 0, 0, 0}) // double fail, double restore
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1024 {
			return
		}
		gs := refGraphs(t)
		runAgainstRef(t, gs[int(data[0])%len(gs)], data[0]&0x80 != 0, data[1:])
	})
}

// converge is Converge on the reference.
func (p *refProtocol) converge(maxRounds int) (int, bool) {
	for r := 0; r < maxRounds; r++ {
		if !p.step() {
			return r, true
		}
	}
	return maxRounds, false
}
