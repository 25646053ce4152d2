// Package topology provides the network-graph substrate for the
// evaluation: an undirected multigraph-free graph model, shortest-path
// and diameter machinery, simple-cycle sampling (how loops intersecting a
// path are drawn in Table 5), deterministic generators for data-center
// fabrics (FatTree, VL2) and synthetic stand-ins for the Internet
// Topology Zoo WANs the paper uses, plus a GraphML parser so the original
// Zoo files can be loaded when available.
package topology

import (
	"fmt"
	"sort"

	"github.com/unroller/unroller/internal/detect"
	"github.com/unroller/unroller/internal/xrand"
)

// Graph is an undirected simple graph over nodes 0..N-1. The zero value
// is an empty graph; grow it with AddNode/AddEdge or use a generator.
type Graph struct {
	// Name labels the topology in tables and logs.
	Name string

	names []string
	adj   [][]int
	edges int
}

// NewGraph returns an empty named graph with capacity hints for n nodes.
func NewGraph(name string, n int) *Graph {
	return &Graph{
		Name:  name,
		names: make([]string, 0, n),
		adj:   make([][]int, 0, n),
	}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.edges }

// AddNode appends a node with the given label and returns its index.
func (g *Graph) AddNode(label string) int {
	if label == "" {
		label = fmt.Sprintf("n%d", len(g.adj))
	}
	g.names = append(g.names, label)
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicate
// edges are rejected: routing loops in this model come from forwarding
// state, not from the physical graph.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || v < 0 || u >= g.N() || v >= g.N() {
		return fmt.Errorf("topology: edge (%d,%d) out of range, n=%d", u, v, g.N())
	}
	if u == v {
		return fmt.Errorf("topology: self-loop at node %d rejected", u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("topology: duplicate edge (%d,%d)", u, v)
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.edges++
	return nil
}

// mustEdge is AddEdge for generators whose constructions are valid by
// design.
func (g *Graph) mustEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// HasEdge reports whether {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.N() {
		return false
	}
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of u. The returned slice is owned
// by the graph and must not be modified.
func (g *Graph) Neighbors(u int) []int { return g.adj[u] }

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Label returns node u's label.
func (g *Graph) Label(u int) string { return g.names[u] }

// NodeByLabel returns the index of the node with the given label, or -1.
func (g *Graph) NodeByLabel(label string) int {
	for i, n := range g.names {
		if n == label {
			return i
		}
	}
	return -1
}

// Connected reports whether the graph is connected (vacuously true when
// empty).
func (g *Graph) Connected() bool {
	if g.N() == 0 {
		return true
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// SortAdjacency orders every adjacency list ascending, making iteration
// order deterministic regardless of construction order.
func (g *Graph) SortAdjacency() {
	for _, nbrs := range g.adj {
		sort.Ints(nbrs)
	}
}

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("%s{n=%d m=%d}", g.Name, g.N(), g.M())
}

// Assignment maps graph nodes to the 32-bit switch identifiers carried in
// packets. The paper's evaluation draws identifiers uniformly at random;
// uniqueness keeps the uncompressed detector exact, and 0xFFFFFFFF is
// avoided because the Unroller header reserves the all-ones pattern as
// the empty-slot marker.
type Assignment struct {
	ids  []detect.SwitchID
	node map[detect.SwitchID]int
}

// NewAssignment draws a fresh random identifier per node.
func NewAssignment(g *Graph, rng *xrand.Rand) *Assignment {
	a := &Assignment{
		ids:  make([]detect.SwitchID, g.N()),
		node: make(map[detect.SwitchID]int, g.N()),
	}
	for i := range a.ids {
		for {
			id := detect.SwitchID(rng.Uint32())
			if id == 0xFFFFFFFF {
				continue
			}
			if _, dup := a.node[id]; dup {
				continue
			}
			a.ids[i] = id
			a.node[id] = i
			break
		}
	}
	return a
}

// Len returns the number of nodes the assignment covers.
func (a *Assignment) Len() int { return len(a.ids) }

// ID returns the identifier of node u.
func (a *Assignment) ID(u int) detect.SwitchID { return a.ids[u] }

// Node returns the node holding id, or -1.
func (a *Assignment) Node(id detect.SwitchID) int {
	if n, ok := a.node[id]; ok {
		return n
	}
	return -1
}

// IDs translates a node sequence into switch identifiers.
func (a *Assignment) IDs(nodes []int) []detect.SwitchID {
	out := make([]detect.SwitchID, len(nodes))
	for i, u := range nodes {
		out[i] = a.ids[u]
	}
	return out
}
