package dataplane

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/topology"
	"github.com/unroller/unroller/internal/xrand"
)

// shortestNextHops is the reference picker: u's primary next hop (the
// first strictly closer neighbour) and backup (the second strictly closer
// one, else the first equal-distance neighbour) as node indices, from a
// Graph.BFS labelling; du is dist[u].
func shortestNextHops(neighbors []int, dist []int, du int) (primary, backup int) {
	primary, backup = -1, -1
	for _, v := range neighbors {
		if dist[v] == du-1 {
			if primary < 0 {
				primary = v
			} else if backup < 0 {
				backup = v
			}
		}
	}
	if backup < 0 {
		for _, v := range neighbors {
			if v != primary && dist[v] == du {
				backup = v
				break
			}
		}
	}
	return primary, backup
}

// referenceInstall is InstallShortestPaths written the plain way: a
// fresh Graph.BFS, next hops picked as nodes, their ports resolved with
// portTo and every entry written through the public SetRoute/SetBackup
// by switch identifier.
func referenceInstall(n *Network, dst int) error {
	if dst < 0 || dst >= n.Graph.N() {
		return fmt.Errorf("dataplane: destination node %d out of range (graph has %d nodes)", dst, n.Graph.N())
	}
	dist := n.Graph.BFS(dst)
	dstID := n.Assign.ID(dst)
	for u := 0; u < n.Graph.N(); u++ {
		if u == dst {
			continue
		}
		if dist[u] < 0 {
			return fmt.Errorf("dataplane: node %d cannot reach destination %d", u, dst)
		}
		primary, backup := shortestNextHops(n.Graph.Neighbors(u), dist, dist[u])
		if primary < 0 {
			return fmt.Errorf("dataplane: node %d has no shortest-path next hop towards destination %d", u, dst)
		}
		p, err := n.portTo(u, primary)
		if err != nil {
			return err
		}
		if err := n.switches[u].SetRoute(dstID, p); err != nil {
			return err
		}
		if backup >= 0 {
			bp, err := n.portTo(u, backup)
			if err != nil {
				return err
			}
			if err := n.switches[u].SetBackup(dstID, bp); err != nil {
				return err
			}
		}
	}
	return nil
}

// twinNets builds two networks over g sharing one assignment: one for
// InstallShortestPaths, one for referenceInstall.
func twinNets(t testing.TB, g *topology.Graph, seed uint64) (got, want *Network) {
	t.Helper()
	assign := topology.NewAssignment(g, xrand.New(seed))
	got, err := NewNetwork(g, assign, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err = NewNetwork(g, assign, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return got, want
}

// installBoth installs routes towards dst on both twins and fails unless
// the two installers return the same error (or none) and leave every
// switch's tables identical.
func installBoth(t testing.TB, got, want *Network, dst int) {
	t.Helper()
	gerr, werr := got.InstallShortestPaths(dst), referenceInstall(want, dst)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%v dst %d: err = %v, reference %v", got.Graph, dst, gerr, werr)
	}
	sameTables(t, got, want)
}

// sameTables fails unless every switch of a and b has byte-identical FIB
// and backup tables, an unallocated table matching only another.
func sameTables(t testing.TB, a, b *Network) {
	t.Helper()
	for u, sa := range a.switches {
		sb := b.switches[u]
		for _, tab := range []struct {
			name string
			x, y []uint8
		}{{"fib", sa.fib, sb.fib}, {"backup", sa.backup, sb.backup}} {
			if (tab.x == nil) != (tab.y == nil) || !bytes.Equal(tab.x, tab.y) {
				for d := range max(len(tab.x), len(tab.y)) {
					if next(tab.x, d) != next(tab.y, d) {
						t.Fatalf("%v node %d %s[%d] = %d, reference %d", a.Graph, u, tab.name, d, next(tab.x, d), next(tab.y, d))
					}
				}
				t.Fatalf("%v node %d %s allocated %v, reference %v", a.Graph, u, tab.name, tab.x != nil, tab.y != nil)
			}
		}
	}
}

// TestInstallShortestPathsMatchesReference: the installer writes every
// switch's FIB and backup entry exactly as the reference does, for every
// destination, installed in a shuffled order and then reinstalled over
// the existing tables, on fabrics, a torus, a ring, a 255-port star and
// seeded random connected graphs whose adjacency lists are unsorted.
func TestInstallShortestPathsMatchesReference(t *testing.T) {
	var graphs []*topology.Graph
	add := func(g *topology.Graph, err error) {
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for _, k := range []int{4, 8, 16} {
		add(topology.FatTree(k))
	}
	add(topology.Torus(7, 5))
	add(topology.Ring(9))
	graphs = append(graphs, star(t, 255))
	for seed := uint64(1); seed <= 3; seed++ {
		add(topology.ErdosRenyi(50, 0.06, xrand.New(seed)))
		add(topology.Waxman(60, 0.5, 0.2, xrand.New(seed)))
		add(topology.Jellyfish(40, 4, xrand.New(seed)))
	}
	for i, g := range graphs {
		got, want := twinNets(t, g, uint64(i+1))
		order := xrand.New(uint64(i + 100)).Perm(g.N())
		for pass := 0; pass < 2; pass++ {
			for _, dst := range order {
				installBoth(t, got, want, dst)
			}
		}
	}
}

// TestInstallShortestPathsErrorsMatchReference: a destination out of
// range and an unreachable node fail with the reference's error text,
// and the entries written before an unreachable node stop the install
// match the reference's too.
func TestInstallShortestPathsErrorsMatchReference(t *testing.T) {
	// A chain 0-1-2-3 and an island 4-5.
	g := topology.NewGraph("split", 6)
	for i := 0; i < 6; i++ {
		g.AddNode("")
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	got, want := twinNets(t, g, 3)
	for _, dst := range []int{-1, 6, 13, 0, 3, 5, 4, 2} {
		installBoth(t, got, want, dst)
	}
	if err := got.InstallShortestPaths(0); err == nil || err.Error() != "dataplane: node 4 cannot reach destination 0" {
		t.Fatalf("split graph: err = %v", err)
	}
}

// TestNextHopPortsMatchesReference: the one-scan picker returns, as
// ports, the nodes the reference picker chooses — a later second
// strictly closer neighbour beating an earlier equal-distance one, and
// the scan's early stop losing nothing.
func TestNextHopPortsMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		neighbors []int
		dist      []int
		du        int
	}{
		{[]int{1, 2, 3}, []int{2, 2, 1, 1}, 2},       // equal, closer, closer
		{[]int{3, 1, 2}, []int{2, 2, 1, 3}, 2},       // farther, equal, closer
		{[]int{1, 2, 3, 4}, []int{3, 2, 2, 2, 3}, 3}, // three closer
		{[]int{1, 2}, []int{1, 0, 2}, 1},             // only closer
		{[]int{1, 2}, []int{2, 2, 2}, 2},             // degenerate
		{nil, []int{1}, 1},                           // no ports
	} {
		dist32 := make([]int32, len(tc.dist))
		for i, d := range tc.dist {
			dist32[i] = int32(d)
		}
		p, b := nextHopPorts(tc.neighbors, dist32, int32(tc.du))
		wp, wb := shortestNextHops(tc.neighbors, tc.dist, tc.du)
		if port := func(p int) int {
			if p < 0 {
				return -1
			}
			return tc.neighbors[p]
		}; port(p) != wp || port(b) != wb {
			t.Errorf("%v %v du %d: ports (%d, %d) lead to (%d, %d), reference (%d, %d)", tc.neighbors, tc.dist, tc.du, p, b, port(p), port(b), wp, wb)
		}
	}
}

// FuzzInstallShortestPaths builds a small graph from the input — byte 0
// sizes it, every later pair of bytes is an edge, self-loops and
// duplicates skipped — and checks InstallShortestPaths against the
// reference for every destination, connected or not.
func FuzzInstallShortestPaths(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 2, 2, 3, 3, 0})
	f.Add([]byte{6, 0, 1, 1, 2, 4, 5})
	f.Add([]byte{9, 0, 5, 5, 3, 3, 8, 0, 2, 2, 8, 1, 7, 7, 4, 4, 6, 6, 1, 0, 1})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			return
		}
		n := 1 + int(data[0])%40
		g := topology.NewGraph("fuzz", n)
		for i := 0; i < n; i++ {
			g.AddNode("")
		}
		for i := 1; i+1 < len(data); i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u != v && !g.HasEdge(u, v) {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, want := twinNets(t, g, uint64(len(data)))
		for dst := -1; dst <= n; dst++ {
			installBoth(t, got, want, dst)
		}
	})
}
