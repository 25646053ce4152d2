package routing

import (
	"testing"

	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/topology"
	"github.com/unroller/unroller/internal/xrand"
)

// TestConvergesToShortestPaths: on a healthy network the protocol's
// metrics equal BFS distances and forwarding is loop-free.
func TestConvergesToShortestPaths(t *testing.T) {
	graphs := []*topology.Graph{}
	if g, err := topology.Ring(8); err == nil {
		graphs = append(graphs, g)
	}
	if g, err := topology.Torus(4, 4); err == nil {
		graphs = append(graphs, g)
	}
	if g, err := topology.FatTree(4); err == nil {
		graphs = append(graphs, g)
	}
	for _, g := range graphs {
		p, err := New(g, DefaultInfinity, false)
		if err != nil {
			t.Fatal(err)
		}
		rounds, ok := p.Converge(100)
		if !ok {
			t.Fatalf("%s: no convergence in 100 rounds", g.Name)
		}
		if rounds > g.Diameter()+2 {
			t.Errorf("%s: converged in %d rounds, diameter %d", g.Name, rounds, g.Diameter())
		}
		for u := 0; u < g.N(); u++ {
			dist := g.BFS(u)
			for v := 0; v < g.N(); v++ {
				if got := p.Metric(v, u); got != dist[v] {
					t.Fatalf("%s: metric(%d→%d) = %d, BFS %d", g.Name, v, u, got, dist[v])
				}
			}
		}
		if p.HasLoops() {
			t.Fatalf("%s: loops at convergence", g.Name)
		}
	}
}

// TestNextHopMakesProgress: converged next hops strictly decrease the
// BFS distance.
func TestNextHopMakesProgress(t *testing.T) {
	g, _ := topology.Torus(4, 4)
	p, _ := New(g, DefaultInfinity, false)
	p.Converge(100)
	for dst := 0; dst < g.N(); dst++ {
		dist := g.BFS(dst)
		for u := 0; u < g.N(); u++ {
			if u == dst {
				continue
			}
			next, ok := p.NextHop(u, dst)
			if !ok {
				t.Fatalf("no route %d→%d on a connected graph", u, dst)
			}
			if dist[next] != dist[u]-1 {
				t.Fatalf("next hop %d→%d via %d does not progress", u, dst, next)
			}
		}
	}
}

// TestCountToInfinityCreatesLoops: the classic two-node loop. On a ring,
// failing a link makes nodes near the failure point at each other for
// dst-bound traffic until the bad news propagates — the ForwardingLoops
// detector must see it mid-convergence, and convergence must clear it.
func TestCountToInfinityCreatesLoops(t *testing.T) {
	g, _ := topology.Ring(8)
	p, _ := New(g, DefaultInfinity, false)
	if _, ok := p.Converge(100); !ok {
		t.Fatal("initial convergence failed")
	}
	if err := p.FailLink(0, 7); err != nil {
		t.Fatal(err)
	}
	sawLoop := false
	for r := 0; r < 3*DefaultInfinity; r++ {
		if len(p.ForwardingLoops(7)) > 0 {
			sawLoop = true
			break
		}
		if !p.Step() {
			break
		}
	}
	if !sawLoop {
		t.Fatal("count-to-infinity produced no transient loop (it must on a ring)")
	}
	// Let it fully converge: the ring stays connected, so all routes
	// recover and loops disappear.
	if _, ok := p.Converge(10 * DefaultInfinity); !ok {
		t.Fatal("no reconvergence after failure")
	}
	if p.HasLoops() {
		t.Fatal("loops survived reconvergence")
	}
	if _, ok := p.NextHop(0, 7); !ok {
		t.Fatal("route 0→7 must recover the long way around")
	}
	if m := p.Metric(0, 7); m != 7 {
		t.Fatalf("recovered metric 0→7 = %d, want 7 (the long way)", m)
	}
}

// TestSplitHorizonSuppressesTwoNodeLoops: with split horizon, the
// immediate ping-pong between a node and the neighbour it learned the
// route from cannot form on the chain topology.
func TestSplitHorizonSuppressesTwoNodeLoops(t *testing.T) {
	countTransientLoops := func(split bool) int {
		g, _ := topology.Chain(6)
		p, _ := New(g, DefaultInfinity, split)
		p.Converge(100)
		// Failing the far end makes nodes 0..4 count to infinity
		// towards dst 5.
		if err := p.FailLink(4, 5); err != nil {
			t.Fatal(err)
		}
		loops := 0
		for r := 0; r < 5*DefaultInfinity; r++ {
			loops += len(p.ForwardingLoops(5))
			if !p.Step() {
				break
			}
		}
		return loops
	}
	with, without := countTransientLoops(true), countTransientLoops(false)
	if with >= without {
		t.Fatalf("split horizon should reduce transient loops: with=%d without=%d", with, without)
	}
	if with != 0 {
		t.Fatalf("on a chain, split horizon eliminates loops entirely; saw %d", with)
	}
}

// TestFailLinkValidation.
func TestFailLinkValidation(t *testing.T) {
	g, _ := topology.Ring(4)
	p, _ := New(g, DefaultInfinity, false)
	if err := p.FailLink(0, 2); err == nil {
		t.Error("non-edge failure accepted")
	}
	if err := p.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.FailLink(0, 1); err == nil {
		t.Error("double failure accepted")
	}
	if p.LinkUp(0, 1) {
		t.Error("failed link still up")
	}
	if err := p.RestoreLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if !p.LinkUp(0, 1) {
		t.Error("restored link still down")
	}
	if err := p.RestoreLink(0, 2); err == nil {
		t.Error("restoring a non-edge accepted")
	}
	if _, err := New(g, 1, false); err == nil {
		t.Error("infinity < 2 accepted")
	}
}

// TestUnrollerCatchesTransientLoop: the end-to-end story — a link fails,
// the mid-convergence FIBs go into the data plane, and Unroller reports
// the transient loop on live packets.
func TestUnrollerCatchesTransientLoop(t *testing.T) {
	g, _ := topology.Ring(8)
	p, _ := New(g, DefaultInfinity, false)
	p.Converge(100)
	dst := 7
	if err := p.FailLink(0, 7); err != nil {
		t.Fatal(err)
	}
	// Step until a loop for dst exists.
	var loop topology.Cycle
	for r := 0; r < 3*DefaultInfinity; r++ {
		if loops := p.ForwardingLoops(dst); len(loops) > 0 {
			loop = loops[0]
			break
		}
		p.Step()
	}
	if loop == nil {
		t.Fatal("no transient loop materialised")
	}

	assign := topology.NewAssignment(g, xrand.New(5))
	net, err := dataplane.NewNetwork(g, assign, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	net.SetLoopPolicy(dataplane.ActionDrop)
	if err := p.InstallInto(net, dst); err != nil {
		t.Fatal(err)
	}
	tr, err := net.Send(loop[0], dst, 1, 255, true)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Final != dataplane.DropLoop || tr.Report == nil {
		t.Fatalf("transient loop not caught: final %v", tr.Final)
	}
	// The reporter sits on the transient loop.
	if !loop.Contains(net.Assign.Node(tr.Report.Reporter)) {
		t.Fatalf("reporter %v not on the transient loop %v", tr.Report.Reporter, loop)
	}
}

// TestInstallIntoWrongGraph.
func TestInstallIntoWrongGraph(t *testing.T) {
	g1, _ := topology.Ring(4)
	g2, _ := topology.Ring(4)
	p, _ := New(g1, DefaultInfinity, false)
	assign := topology.NewAssignment(g2, xrand.New(1))
	net, err := dataplane.NewNetwork(g2, assign, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.InstallInto(net, 0); err == nil {
		t.Fatal("cross-graph install accepted")
	}
}

// TestLinkAPIParity pins the link API's edge cases: failing a down link
// errors, restoring a live link is a no-op that queues no work, and
// LinkUp answers false for non-edges and out-of-range nodes.
func TestLinkAPIParity(t *testing.T) {
	g, _ := topology.Ring(6)
	p, _ := New(g, DefaultInfinity, false)
	p.Converge(100)
	if err := p.RestoreLink(2, 3); err != nil {
		t.Fatalf("restoring a live link: %v", err)
	}
	if len(p.dirty) != 0 {
		t.Fatalf("restoring a live link queued %d entries", len(p.dirty))
	}
	if p.Step() {
		t.Fatal("a no-op restore changed a table")
	}
	if err := p.FailLink(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := p.FailLink(3, 2); err == nil {
		t.Error("failing a down link accepted")
	}
	for _, uv := range [][2]int{{0, 2}, {0, 0}, {-1, 0}, {0, -1}, {6, 0}, {0, 6}, {1 << 20, 1}} {
		if p.LinkUp(uv[0], uv[1]) {
			t.Errorf("LinkUp(%d,%d) = true for a non-link", uv[0], uv[1])
		}
	}
	if p.LinkUp(2, 3) || p.LinkUp(3, 2) || !p.LinkUp(1, 2) {
		t.Error("LinkUp disagrees with the link states")
	}
}

// TestConvergeRounds pins the round counts of every convergence the
// tests above run, and checks each against the from-scratch reference.
func TestConvergeRounds(t *testing.T) {
	ring8, _ := topology.Ring(8)
	torus, _ := topology.Torus(4, 4)
	fat, _ := topology.FatTree(4)
	chain, _ := topology.Chain(6)
	cases := []struct {
		g          *topology.Graph
		split      bool
		fail       [2]int // link failed after the initial convergence
		init, heal int
	}{
		{ring8, false, [2]int{0, 7}, 4, 5},
		{ring8, true, [2]int{0, 7}, 4, 6},
		{torus, false, [2]int{0, 1}, 4, 2},
		{fat, false, [2]int{0, fat.Neighbors(0)[0]}, 4, 3},
		{chain, false, [2]int{4, 5}, 5, 14},
		{chain, true, [2]int{4, 5}, 5, 4},
	}
	for _, c := range cases {
		p, _ := New(c.g, DefaultInfinity, c.split)
		ref := newRef(c.g, DefaultInfinity, c.split)
		got, ok := p.Converge(100)
		want, _ := ref.converge(100)
		if !ok || got != want || got != c.init {
			t.Fatalf("%s split=%v: initial convergence in %d rounds (ok=%v), reference %d, pinned %d", c.g.Name, c.split, got, ok, want, c.init)
		}
		if err := p.FailLink(c.fail[0], c.fail[1]); err != nil {
			t.Fatal(err)
		}
		ref.failLink(c.fail[0], c.fail[1])
		got, ok = p.Converge(10 * DefaultInfinity)
		want, _ = ref.converge(10 * DefaultInfinity)
		if !ok || got != want || got != c.heal {
			t.Fatalf("%s split=%v: reconvergence in %d rounds (ok=%v), reference %d, pinned %d", c.g.Name, c.split, got, ok, want, c.heal)
		}
		if p.Rounds() != c.init+got+2 {
			t.Fatalf("%s: Rounds() = %d, want %d", c.g.Name, p.Rounds(), c.init+got+2)
		}
	}
}

// BenchmarkConvergeChurn is one cycle of the churn workload's set-up:
// on Torus(12,12) without split horizon, isolate a node, converge
// (counting to infinity towards it), restore it and converge again.
func BenchmarkConvergeChurn(b *testing.B) {
	g, err := topology.Torus(12, 12)
	if err != nil {
		b.Fatal(err)
	}
	p, err := New(g, DefaultInfinity, false)
	if err != nil {
		b.Fatal(err)
	}
	if _, ok := p.Converge(64); !ok {
		b.Fatal("no initial convergence")
	}
	converge := func() {
		if _, ok := p.Converge(64); !ok {
			b.Fatal("no convergence in 64 rounds")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := p.Rounds()
	for i := 0; i < b.N; i++ {
		x := i * 37 % g.N()
		for _, v := range g.Neighbors(x) {
			if err := p.FailLink(x, v); err != nil {
				b.Fatal(err)
			}
		}
		converge()
		for _, v := range g.Neighbors(x) {
			if err := p.RestoreLink(x, v); err != nil {
				b.Fatal(err)
			}
		}
		converge()
	}
	b.ReportMetric(float64(p.Rounds()-start)/float64(b.N), "rounds/op")
}
