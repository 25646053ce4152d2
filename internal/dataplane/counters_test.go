package dataplane

import (
	"fmt"
	"testing"

	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/topology"
	"github.com/unroller/unroller/internal/xrand"
)

// Switch counters are derived from each pipeline run's Decision in one
// place (tally.count), whether the run is counted atomically (Send,
// SendFlow, Process) or in an engine worker's tally merged at drain.
// These tests pin that the paths agree exactly, and that the engine's
// warm hop loop stays allocation-free.

// dispositionNet is a 6×6 torus where one batch of flows meets every
// disposition the pipeline has:
//
//   - towards dstDrop a loop runs through ActionDrop switches: blind
//     flows burn their TTL there, telemetry flows are dropped on
//     detection;
//   - towards dstReroute a loop runs through ActionReroute switches
//     holding backup routes;
//   - towards dstCollect a loop runs through ActionCollect switches,
//     which send detected packets on a recording lap;
//   - dstNoRoute has no routes at all;
//   - the link from linkDropSrc to dstDrop is cut.
//
// The three loops are disjoint, so each switch's policy applies to one
// of them only.
const (
	dstDrop     = 20
	dstReroute  = 26
	dstCollect  = 32
	dstNoRoute  = 35
	linkDropSrc = 21
)

func dispositionNet(t *testing.T) *Network {
	t.Helper()
	g, err := topology.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(g, topology.NewAssignment(g, xrand.New(0xC0DE)), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	loops := []struct {
		dst    int
		cycle  topology.Cycle
		policy LoopAction
	}{
		{dstDrop, topology.Cycle{0, 1, 7, 6}, ActionDrop},
		{dstReroute, topology.Cycle{2, 3, 9, 8}, ActionReroute},
		{dstCollect, topology.Cycle{4, 5, 11, 10}, ActionCollect},
	}
	for _, l := range loops {
		if err := n.InstallShortestPaths(l.dst); err != nil {
			t.Fatal(err)
		}
		if err := n.InjectLoop(l.dst, l.cycle); err != nil {
			t.Fatal(err)
		}
		for _, node := range l.cycle {
			n.Switch(node).LoopPolicy = l.policy
		}
	}
	if err := n.SetLink(linkDropSrc, dstDrop, false); err != nil {
		t.Fatal(err)
	}
	return n
}

// dispositionFlows sends every node towards every destination of
// dispositionNet with telemetry, plus a blind flow per node towards the
// ActionDrop loop's destination so TTLs expire there.
func dispositionFlows(g *topology.Graph) []Flow {
	var flows []Flow
	for src := 0; src < g.N(); src++ {
		for _, dst := range []int{dstDrop, dstReroute, dstCollect, dstNoRoute} {
			if src != dst {
				flows = append(flows, Flow{Src: src, Dst: dst, ID: uint32(len(flows)), TTL: InitialTTL, Telemetry: true})
			}
		}
		if src != dstDrop {
			flows = append(flows, Flow{Src: src, Dst: dstDrop, ID: uint32(len(flows)), TTL: 40})
		}
	}
	return flows
}

// TestCountersExactAcrossPaths: per-flow Send, SendMany at 1 worker and
// SendMany at 4 workers leave every switch with identical Stats, and
// those Stats are what the per-hop decisions imply — in particular a
// collection lap closing is not a loop hit, and a collection forward
// counts as forwarded.
func TestCountersExactAcrossPaths(t *testing.T) {
	ref := dispositionNet(t)
	flows := dispositionFlows(ref.Graph)

	// Reference: per-flow Send, with the counters each hop implies
	// rebuilt from its trace.
	want := make([]SwitchStats, ref.Graph.N())
	var finals [NumDispositions]int
	laps, collectForwards := 0, 0
	for _, f := range flows {
		tr, err := ref.Send(f.Src, f.Dst, f.ID, f.TTL, f.Telemetry)
		if err != nil {
			t.Fatalf("flow %d: %v", f.ID, err)
		}
		finals[tr.Final]++
		for _, h := range tr.Hops {
			w := &want[h.Node]
			w.Received++
			d := h.Decision
			switch d.Disposition {
			case Forward:
				w.Forwarded++
				if d.LoopReport != nil {
					collectForwards++
				}
			case Deliver:
				w.Delivered++
			case DropTTL:
				w.TTLDrops++
			case DropNoRoute:
				w.NoRoute++
			case RerouteLoop:
				w.Reroutes++
			case DropLink:
				w.LinkDrops++
			}
			if d.Members != nil {
				laps++
			} else if d.LoopReport != nil {
				w.LoopHits++
			}
		}
	}
	for _, d := range []Disposition{Deliver, DropTTL, DropNoRoute, DropLoop, DropLink} {
		if finals[d] == 0 {
			t.Errorf("no flow ended %v; the scenario no longer covers it", d)
		}
	}
	var rerouted uint64
	for _, w := range want {
		rerouted += w.Reroutes
	}
	if rerouted == 0 || laps == 0 || collectForwards == 0 {
		t.Errorf("scenario lost coverage: %d reroutes, %d collection laps, %d collection forwards", rerouted, laps, collectForwards)
	}
	for node, w := range want {
		if got := ref.Switch(node).Stats(); got != w {
			t.Errorf("Send: switch %d stats %+v, per-hop decisions imply %+v", node, got, w)
		}
	}

	for _, workers := range []int{1, 4} {
		n := dispositionNet(t)
		if _, err := NewTrafficEngine(n, workers).SendMany(flows); err != nil {
			t.Fatal(err)
		}
		for node := range want {
			if got, w := n.Switch(node).Stats(), ref.Switch(node).Stats(); got != w {
				t.Errorf("SendMany at %d workers: switch %d stats %+v, Send left %+v", workers, node, got, w)
			}
		}
		for _, l := range n.links {
			if got, w := n.LinkLoad(l[0], l[1]), ref.LinkLoad(l[0], l[1]); got != w {
				t.Errorf("SendMany at %d workers: link %v load %d, Send left %d", workers, l, got, w)
			}
		}
	}
}

// TestSendManyWarmAllocs: once an engine has run a batch, its scratch
// (wire buffers, detector state, accumulators) is recycled, so a
// 512-flow batch on a 5×5 torus allocates almost nothing per flow.
func TestSendManyWarmAllocs(t *testing.T) {
	g, err := topology.Torus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(g, topology.NewAssignment(g, xrand.New(1)), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for dst := 0; dst < g.N(); dst++ {
		if err := n.InstallShortestPaths(dst); err != nil {
			t.Fatal(err)
		}
	}
	rng := xrand.New(0xF10)
	flows := make([]Flow, 512)
	for i := range flows {
		src, dst := g.RandomPair(rng)
		flows[i] = Flow{Src: src, Dst: dst, ID: uint32(i), TTL: InitialTTL, Telemetry: true}
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng := NewTrafficEngine(n, workers)
			if _, err := eng.SendMany(flows); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := eng.SendMany(flows); err != nil {
					t.Fatal(err)
				}
			})
			if perFlow := allocs / float64(len(flows)); perFlow >= 0.05 {
				t.Fatalf("warm SendMany: %.1f allocs per %d-flow batch = %.3f per flow, want < 0.05", allocs, len(flows), perFlow)
			}
		})
	}
}
