package routing

import (
	"reflect"
	"testing"

	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/topology"
	"github.com/unroller/unroller/internal/xrand"
)

func ringNet(t *testing.T) (*dataplane.Network, *topology.Graph) {
	t.Helper()
	g, err := topology.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	return netOn(t, g), g
}

func netOn(t *testing.T, g *topology.Graph) *dataplane.Network {
	t.Helper()
	net, err := dataplane.NewNetwork(g, topology.NewAssignment(g, xrand.New(5)), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestNextHopsSnapshot: the snapshot mirrors NextHop for every router
// and stays stable across later protocol steps.
func TestNextHopsSnapshot(t *testing.T) {
	_, g := ringNet(t)
	p, err := New(g, DefaultInfinity, false)
	if err != nil {
		t.Fatal(err)
	}
	p.Converge(64)
	const dst = 0
	snap := p.NextHops(dst)
	if len(snap) != g.N() {
		t.Fatalf("snapshot length %d, want %d", len(snap), g.N())
	}
	for u := 0; u < g.N(); u++ {
		next, ok := p.NextHop(u, dst)
		if !ok {
			next = -1
		}
		if snap[u] != next {
			t.Errorf("snap[%d] = %d, NextHop = %d", u, snap[u], next)
		}
	}
	if snap[dst] != -1 {
		t.Error("destination must have no next hop")
	}
	frozen := append([]int(nil), snap...)
	if err := p.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	p.Step()
	if !reflect.DeepEqual(snap, frozen) {
		t.Error("snapshot mutated by later protocol steps")
	}
}

// TestDeltaMatchesInstall: applying the per-round deltas to one network
// reproduces exactly the FIBs InstallInto writes, both on a fresh
// network and re-installed over the previous round's FIBs on a reused
// one — the incremental and the bulk paths agree at every convergence
// round, withdrawn routes included.
func TestDeltaMatchesInstall(t *testing.T) {
	netDelta, g := ringNet(t)
	netReused := netOn(t, g)
	p, err := New(g, DefaultInfinity, false)
	if err != nil {
		t.Fatal(err)
	}
	p.Converge(64)
	const dst = 0
	for _, net := range []*dataplane.Network{netDelta, netReused} {
		if err := p.InstallInto(net, dst); err != nil {
			t.Fatal(err)
		}
	}
	prev := p.NextHops(dst)
	if err := p.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	sawUpdates, sawClear := false, false
	for round := 0; round < 32; round++ {
		cur := p.NextHops(dst)
		delta, err := Delta(netDelta, dst, prev, cur)
		if err != nil {
			t.Fatal(err)
		}
		if len(delta) > 0 {
			sawUpdates = true
		}
		for _, ru := range delta {
			sawClear = sawClear || ru.Clear
			if err := netDelta.ApplyFault(dataplane.FaultEvent{Kind: dataplane.FaultRoutes, Routes: []dataplane.RouteUpdate{ru}}); err != nil {
				t.Fatal(err)
			}
		}
		netBulk := netOn(t, g)
		for _, net := range []*dataplane.Network{netBulk, netReused} {
			if err := p.InstallInto(net, dst); err != nil {
				t.Fatal(err)
			}
		}
		for u := 0; u < g.N(); u++ {
			got := netDelta.Switch(u).Routes()
			if want := netBulk.Switch(u).Routes(); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d node %d: delta FIB %v, fresh install %v", round, u, got, want)
			}
			if want := netReused.Switch(u).Routes(); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d node %d: delta FIB %v, reinstall %v", round, u, got, want)
			}
		}
		prev = cur
		if !p.Step() {
			break
		}
	}
	if !sawUpdates || !sawClear {
		t.Fatalf("convergence produced updates=%v clears=%v; test is vacuous", sawUpdates, sawClear)
	}
}

// TestDeltaValidation: mismatched snapshot lengths are rejected with
// package context.
func TestDeltaValidation(t *testing.T) {
	net, _ := ringNet(t)
	if _, err := Delta(net, 0, make([]int, 3), make([]int, 8)); err == nil {
		t.Fatal("short snapshot accepted")
	}
}

// TestDeltaEmitsClear: a route that disappears mid-convergence becomes
// a Clear update, not a stale entry.
func TestDeltaEmitsClear(t *testing.T) {
	net, g := ringNet(t)
	p, err := New(g, DefaultInfinity, false)
	if err != nil {
		t.Fatal(err)
	}
	p.Converge(64)
	const dst = 0
	prev := p.NextHops(dst)
	// Node 1's only route to 0 is the direct link; failing it poisons
	// the route immediately (local interface-down), yielding a Clear.
	if err := p.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	cur := p.NextHops(dst)
	delta, err := Delta(net, dst, prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	foundClear := false
	for _, ru := range delta {
		if ru.Node == 1 && ru.Clear {
			foundClear = true
		}
	}
	if !foundClear {
		t.Fatalf("expected a Clear update for node 1, got %v", delta)
	}
}
