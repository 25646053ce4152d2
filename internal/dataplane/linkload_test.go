package dataplane

import (
	"fmt"
	"testing"

	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/topology"
	"github.com/unroller/unroller/internal/xrand"
)

// TestLinkLoadAccounting verifies the traversal counters and uses them
// to quantify the paper's introductory claim: a looping packet multiplies
// the load on the loop's links by orders of magnitude versus a detected
// one.
func TestLinkLoadAccounting(t *testing.T) {
	n, cycle, dst := torusWithLoop(t, core.DefaultConfig(), 55)
	n.SetLoopPolicy(ActionDrop)

	// Clean baseline: one delivered packet loads each path link once.
	nClean, _, dstClean := torusWithLoop(t, core.DefaultConfig(), 55)
	nClean.SetLoopPolicy(ActionDrop)
	// Use a source whose path avoids the injected loop region.
	trClean, err := nClean.Send(3, dstClean, 1, 255, false)
	if err != nil {
		t.Fatal(err)
	}
	if trClean.Final == Deliver {
		if got := nClean.TotalPacketHops(); got != uint64(len(trClean.Hops)-1) {
			t.Fatalf("clean delivery: %d traversals for %d hops", got, len(trClean.Hops))
		}
	}

	// Undetected loop: TTL burns 255 traversals.
	trBlind, err := n.Send(5, dst, 1, 255, false)
	if err != nil {
		t.Fatal(err)
	}
	if trBlind.Final != DropTTL {
		t.Fatalf("blind packet: %v", trBlind.Final)
	}
	blindHops := n.TotalPacketHops()
	if blindHops < 250 {
		t.Fatalf("blind loop burned only %d traversals", blindHops)
	}
	// The loop's own links absorb almost all of it.
	loopLoad := uint64(0)
	for i, u := range cycle {
		loopLoad += n.LinkLoad(u, cycle[(i+1)%cycle.Len()])
	}
	if loopLoad < blindHops*9/10 {
		t.Fatalf("loop links carried %d of %d traversals", loopLoad, blindHops)
	}
	_, _, maxLoad := n.MaxLinkLoad()
	if maxLoad < blindHops/8 {
		t.Fatalf("max link load %d implausibly low", maxLoad)
	}

	// Detected loop: an order of magnitude fewer traversals.
	n.ResetLoad()
	if n.TotalPacketHops() != 0 {
		t.Fatal("reset failed")
	}
	trDet, err := n.Send(5, dst, 2, 255, true)
	if err != nil {
		t.Fatal(err)
	}
	if trDet.Final != DropLoop {
		t.Fatalf("detected packet: %v", trDet.Final)
	}
	detHops := n.TotalPacketHops()
	if detHops*10 > blindHops {
		t.Fatalf("detection saved too little: %d vs %d traversals", detHops, blindHops)
	}
}

// TestMaxLinkLoadDeterministicTieBreak: with several links at the same
// maximal load, MaxLinkLoad must return the smallest (u, v) — every run.
// The old map iteration returned whichever equal-load link Go's
// randomised map order visited first, violating the repo's determinism
// invariant.
func TestMaxLinkLoadDeterministicTieBreak(t *testing.T) {
	g, err := topology.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(g, topology.NewAssignment(g, xrand.New(1)), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		n.ResetLoad()
		// A three-way tie at load 7, with a lighter link mixed in.
		for _, l := range [][2]int{{4, 5}, {1, 2}, {2, 3}} {
			n.linkLoad[linkIndex(t, n, l[0], l[1])].Store(7)
		}
		n.linkLoad[linkIndex(t, n, 0, 1)].Store(3)
		u, v, load := n.MaxLinkLoad()
		if u != 1 || v != 2 || load != 7 {
			t.Fatalf("trial %d: MaxLinkLoad = {%d,%d}×%d, want the smallest tied link {1,2}×7", trial, u, v, load)
		}
	}
	// Empty network: the sentinel stays (-1, -1).
	n.ResetLoad()
	if u, v, load := n.MaxLinkLoad(); u != -1 || v != -1 || load != 0 {
		t.Fatalf("unloaded network: {%d,%d}×%d", u, v, load)
	}
}

// linkIndex is the index of the link {u, v}, read from u's port table.
func linkIndex(t *testing.T, n *Network, u, v int) int32 {
	t.Helper()
	p, err := n.portTo(u, v)
	if err != nil {
		t.Fatal(err)
	}
	return n.switches[u].ports[p].link
}

// TestLinkIndexOrder: links are numbered once each in ascending (u, v)
// order, and both endpoints' ports name the same link, also over
// adjacency lists that are not sorted (random graphs grow a spanning
// tree first). Absent links and nodes outside the graph read as down
// with no load, and SetLink refuses them with the same error text.
func TestLinkIndexOrder(t *testing.T) {
	fat, err := topology.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*topology.Graph{fat, star(t, 255)}
	for seed := uint64(1); seed <= 3; seed++ {
		g, err := topology.ErdosRenyi(30, 0.15, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for _, g := range graphs {
		n := buildNet(t, g, core.DefaultConfig(), 4)
		if len(n.links) != g.M() {
			t.Fatalf("%v: %d links indexed", g, len(n.links))
		}
		for i, l := range n.links {
			if l[0] >= l[1] || !g.HasEdge(l[0], l[1]) {
				t.Fatalf("%v: link %d is %v", g, i, l)
			}
			if i > 0 && (n.links[i-1][0] > l[0] || n.links[i-1][0] == l[0] && n.links[i-1][1] >= l[1]) {
				t.Fatalf("%v: link %d %v follows %v", g, i, l, n.links[i-1])
			}
		}
		for u := 0; u < g.N(); u++ {
			for p, v := range g.Neighbors(u) {
				li := n.switches[u].ports[p].link
				if want := [2]int{min(u, v), max(u, v)}; n.links[li] != want {
					t.Fatalf("%v: node %d port %d names link %d %v, want %v", g, u, p, li, n.links[li], want)
				}
			}
		}
	}

	g, err := topology.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	n := buildNet(t, g, core.DefaultConfig(), 5)
	n.linkLoad[linkIndex(t, n, 2, 3)].Store(9)
	if n.LinkLoad(3, 2) != 9 || n.LinkLoad(2, 3) != 9 || !n.LinkIsUp(3, 2) {
		t.Fatal("link {2,3} misread")
	}
	if err := n.SetLink(3, 2, false); err != nil {
		t.Fatal(err)
	}
	if n.LinkIsUp(2, 3) || n.Switch(2).PortUp(0) == n.Switch(2).PortUp(1) {
		t.Fatal("SetLink(3, 2, false) left the link up")
	}
	for _, l := range [][2]int{{0, 3}, {1, 1}, {-1, 0}, {0, -1}, {6, 5}, {5, 6}, {99, 99}} {
		if n.LinkIsUp(l[0], l[1]) || n.LinkLoad(l[0], l[1]) != 0 {
			t.Fatalf("absent link %v reads up or loaded", l)
		}
		err := n.SetLink(l[0], l[1], true)
		if want := fmt.Sprintf("dataplane: no link (%d,%d)", l[0], l[1]); err == nil || err.Error() != want {
			t.Fatalf("SetLink%v: err = %v, want %q", l, err, want)
		}
	}
}
