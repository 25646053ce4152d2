package dataplane

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/detect"
	"github.com/unroller/unroller/internal/sim"
	"github.com/unroller/unroller/internal/topology"
	"github.com/unroller/unroller/internal/xrand"
)

// TestPacketRoundTrip: marshal/unmarshal is the identity.
func TestPacketRoundTrip(t *testing.T) {
	p := &Packet{
		TTL:       64,
		Flow:      0xCAFE,
		Src:       detect.SwitchID(0x1111),
		Dst:       detect.SwitchID(0x2222),
		Telemetry: []byte{1, 2, 3, 4, 5},
		Payload:   []byte("hello"),
	}
	buf, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var q Packet
	if err := q.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if q.TTL != p.TTL || q.Flow != p.Flow || q.Src != p.Src || q.Dst != p.Dst {
		t.Fatalf("fixed fields: %v vs %v", &q, p)
	}
	if string(q.Telemetry) != string(p.Telemetry) || string(q.Payload) != string(p.Payload) {
		t.Fatal("variable fields")
	}
	if !strings.Contains(q.String(), "flow=51966") {
		t.Fatalf("String: %s", q.String())
	}
}

// TestPacketMalformed: truncation, version, oversized telemetry.
func TestPacketMalformed(t *testing.T) {
	var q Packet
	if err := q.Unmarshal(make([]byte, 5)); err == nil {
		t.Fatal("short frame accepted")
	}
	good, _ := (&Packet{TTL: 1}).Marshal()
	good[0] = 9
	if err := q.Unmarshal(good); err == nil {
		t.Fatal("bad version accepted")
	}
	good[0] = 1
	good[15] = 200 // telemetry length beyond the buffer
	if err := q.Unmarshal(good); err == nil {
		t.Fatal("truncated telemetry accepted")
	}
	big := &Packet{Telemetry: make([]byte, 300)}
	if _, err := big.Marshal(); err == nil {
		t.Fatal("oversized telemetry accepted")
	}
}

// buildNet wires a network over a graph with deterministic ids.
func buildNet(t *testing.T, g *topology.Graph, cfg core.Config, seed uint64) *Network {
	t.Helper()
	assign := topology.NewAssignment(g, xrand.New(seed))
	n, err := NewNetwork(g, assign, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestDeliveryWithoutLoop: clean shortest-path forwarding delivers, no
// reports, telemetry intact end to end.
func TestDeliveryWithoutLoop(t *testing.T) {
	g, _ := topology.FatTree(4)
	n := buildNet(t, g, core.DefaultConfig(), 1)
	if err := n.InstallShortestPaths(19); err != nil {
		t.Fatal(err)
	}
	tr, err := n.Send(0, 19, 1, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Final != Deliver {
		t.Fatalf("final %v, want deliver; trace %v", tr.Final, tr.Hops)
	}
	if tr.Report != nil || n.Controller.Count() != 0 {
		t.Fatal("clean path raised a loop report")
	}
	// FatTree diameter is 4: the path is at most 5 switches.
	if len(tr.Hops) > 5 {
		t.Fatalf("path too long: %d hops", len(tr.Hops))
	}
}

// TestRewrittenDstReresolved: the hop loop resolves the destination to a
// node once per journey, so a destination rewritten on the wire (here by
// the OnHop tap, standing in for corruption) must be resolved again: the
// packet is then forwarded to, and delivered at, the new destination.
func TestRewrittenDstReresolved(t *testing.T) {
	g, _ := topology.FatTree(4)
	n := buildNet(t, g, core.DefaultConfig(), 1)
	for _, dst := range []int{19, 10} {
		if err := n.InstallShortestPaths(dst); err != nil {
			t.Fatal(err)
		}
	}
	toOld, _ := n.Switch(5).Route(n.Assign.ID(19))
	toNew, _ := n.Switch(5).Route(n.Assign.ID(10))
	if toOld == toNew {
		t.Fatalf("node 5 routes 19 and 10 through the same port %d; the test needs different ones", toOld)
	}
	n.OnHop = func(node int, _ detect.SwitchID, p *Packet) {
		if node == 5 {
			p.Dst = n.Assign.ID(10)
		}
	}
	tr, err := n.Send(5, 19, 1, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Hops[0].Decision.Egress; got != toNew {
		t.Fatalf("rewriting hop forwarded on port %d, want %d towards the new destination (port %d leads to the old one)", got, toNew, toOld)
	}
	if last := tr.Hops[len(tr.Hops)-1]; tr.Final != Deliver || last.Node != 10 {
		t.Fatalf("final %v at node %d, want deliver at the rewritten destination 10", tr.Final, last.Node)
	}
}

// TestLoopDetectedAndDropped: inject a loop, packet must be dropped by a
// loop report (not TTL), and the controller hears about it.
func TestLoopDetectedAndDropped(t *testing.T) {
	g, _ := topology.Torus(4, 4)
	n := buildNet(t, g, core.DefaultConfig(), 2)
	dst := 15
	if err := n.InstallShortestPaths(dst); err != nil {
		t.Fatal(err)
	}
	// Remove backups so detection drops instead of deflecting.
	for node := 0; node < g.N(); node++ {
		n.Switch(node).ClearBackups()
	}
	cycle := topology.Cycle{5, 6, 10, 9} // a unit square on the torus
	if err := cycle.Validate(g); err != nil {
		t.Fatal(err)
	}
	if err := n.InjectLoop(dst, cycle); err != nil {
		t.Fatal(err)
	}
	// Inject at a switch on the cycle so the dst-bound packet is
	// guaranteed to enter the misconfigured region.
	tr, err := n.Send(5, dst, 7, 255, true)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Final != DropLoop {
		t.Fatalf("final %v, want drop-loop; hops=%d", tr.Final, len(tr.Hops))
	}
	if tr.Report == nil || n.Controller.Count() == 0 {
		t.Fatal("no report delivered")
	}
	// The reporter must be a switch on the injected cycle.
	node := n.Assign.Node(tr.Report.Reporter)
	if !cycle.Contains(node) {
		t.Fatalf("reporter node %d not on the cycle %v", node, cycle)
	}
	// Detection must beat TTL death by a wide margin.
	if len(tr.Hops) > 80 {
		t.Fatalf("detection took %d hops", len(tr.Hops))
	}
}

// TestLoopWithoutTelemetryDiesByTTL: the counterfactual the paper
// motivates with — without in-band detection the packet burns its TTL.
func TestLoopWithoutTelemetryDiesByTTL(t *testing.T) {
	g, _ := topology.Torus(4, 4)
	n := buildNet(t, g, core.DefaultConfig(), 3)
	dst := 15
	if err := n.InstallShortestPaths(dst); err != nil {
		t.Fatal(err)
	}
	cycle := topology.Cycle{5, 6, 10, 9}
	if err := n.InjectLoop(dst, cycle); err != nil {
		t.Fatal(err)
	}
	tr, err := n.Send(5, dst, 7, 255, false)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Final != DropTTL {
		t.Fatalf("final %v, want drop-ttl", tr.Final)
	}
	if len(tr.Hops) < 250 {
		t.Fatalf("TTL death after only %d hops", len(tr.Hops))
	}
	if n.Controller.Count() != 0 {
		t.Fatal("report without telemetry?")
	}
}

// TestRerouteOnDetect: with backup ports installed, the packet escapes
// the loop and still reaches the destination, leaving the deflecting
// switch with exactly the header of a packet that has visited no switch,
// so detection restarts on the new route.
func TestRerouteOnDetect(t *testing.T) {
	g, _ := topology.Torus(4, 4)
	n := buildNet(t, g, core.DefaultConfig(), 4)
	dst := 15
	if err := n.InstallShortestPaths(dst); err != nil {
		t.Fatal(err)
	}
	cycle := topology.Cycle{5, 6, 10, 9}
	if err := n.InjectLoop(dst, cycle); err != nil {
		t.Fatal(err)
	}
	fresh, err := n.Unroller().NewPacketState().AppendHeader(nil)
	if err != nil {
		t.Fatal(err)
	}
	var arrived [][]byte // telemetry at each hop's arrival
	n.OnHop = func(_ int, _ detect.SwitchID, p *Packet) {
		arrived = append(arrived, append([]byte(nil), p.Telemetry...))
	}
	delivered := false
	for _, src := range []int{5, 6, 10, 9} { // start inside the loop
		if delivered {
			break
		}
		arrived = arrived[:0]
		tr, err := n.Send(src, dst, uint32(src), 255, true)
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range tr.Hops {
			if h.Decision.Disposition == RerouteLoop && !bytes.Equal(arrived[i+1], fresh) {
				t.Errorf("src %d: telemetry after the deflection at hop %d = %x, want a fresh header %x", src, i+1, arrived[i+1], fresh)
			}
		}
		if tr.Rerouted && tr.Final == Deliver {
			delivered = true
		}
	}
	if !delivered {
		t.Fatal("no packet escaped the loop via a backup port")
	}
	if n.Controller.Count() == 0 {
		t.Fatal("reroute must still report")
	}
}

// TestEmulatorMatchesSimulator: drive the identical walk through the
// Monte Carlo simulator and the byte-level emulator; detection must land
// at the same hop. This pins the two substrates to one semantics.
func TestEmulatorMatchesSimulator(t *testing.T) {
	g, _ := topology.Torus(5, 5)
	rng := xrand.New(6)
	for trial := 0; trial < 30; trial++ {
		sc, err := sim.SampleScenario(g, rng)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Cycle.Contains(sc.Dst) {
			// A loop through the destination delivers before it
			// can loop; the walk abstraction has no destination,
			// so such scenarios are not comparable.
			continue
		}
		cfg := core.DefaultConfig()
		det := core.MustNew(cfg)
		w := sc.Walk()
		simOut := sim.Run(det, w, 40*w.X()+64)
		if !simOut.Detected {
			t.Fatal("simulator missed")
		}

		// Emulator: same assignment, loop injected for a dst beyond
		// the attachment; source at the path head.
		n, err := NewNetwork(g, sc.Assign, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dst := sc.Dst
		if err := n.InstallShortestPaths(dst); err != nil {
			t.Fatal(err)
		}
		// Pin the pre-loop segment to the sampled path, then the
		// cycle.
		dstID := sc.Assign.ID(dst)
		for i := 0; i+1 <= sc.Attach; i++ {
			u, v := sc.Path[i], sc.Path[i+1]
			p, err := n.portTo(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Switch(u).SetRoute(dstID, p); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.InjectLoop(dst, sc.Cycle); err != nil {
			t.Fatal(err)
		}
		for node := 0; node < g.N(); node++ {
			n.Switch(node).ClearBackups()
		}
		tr, err := n.Send(sc.Path[0], dst, 1, 255, true)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Final != DropLoop {
			t.Fatalf("trial %d: emulator final %v (sim detected at %d)", trial, tr.Final, simOut.Hops)
		}
		// The emulator's first hop is the source switch itself, which
		// the walk model does not count (the walk starts at the first
		// forwarding switch). Compare detection switch and hop count.
		if tr.Report.Hops != simOut.Hops {
			t.Fatalf("trial %d: emulator detected after %d hops, simulator %d", trial, tr.Report.Hops, simOut.Hops)
		}
		if tr.Report.Reporter != simOut.Reporter {
			t.Fatalf("trial %d: reporters differ: %v vs %v", trial, tr.Report.Reporter, simOut.Reporter)
		}
	}
}

// TestControllerAggregation.
func TestControllerAggregation(t *testing.T) {
	c := NewController()
	c.Deliver(detect.Report{Reporter: 5, Hops: 10}, 1)
	c.Deliver(detect.Report{Reporter: 5, Hops: 12}, 1)
	c.Deliver(detect.Report{Reporter: 9, Hops: 8}, 2)
	if c.Count() != 3 {
		t.Fatal("count")
	}
	top := c.TopReporters()
	if len(top) != 2 || top[0] != 5 {
		t.Fatalf("top reporters %v", top)
	}
	if len(c.Events()) != 3 {
		t.Fatal("events")
	}
	c.Reset()
	if c.Count() != 0 {
		t.Fatal("reset")
	}
}

// TestSwitchValidation: bad ports rejected; stats accumulate.
func TestSwitchValidation(t *testing.T) {
	g, _ := topology.Ring(4)
	n := buildNet(t, g, core.DefaultConfig(), 8)
	sw := n.Switch(0)
	if err := sw.SetRoute(detect.SwitchID(1), PortID(99)); err == nil {
		t.Fatal("bad port accepted")
	}
	if err := sw.SetBackup(detect.SwitchID(1), PortID(-1)); err == nil {
		t.Fatal("bad backup accepted")
	}
	if sw.Ports() != 2 {
		t.Fatalf("ring switch has %d ports", sw.Ports())
	}
	if len(sw.PhaseStartLUT()) != 256 {
		t.Fatal("phase LUT size")
	}
	// No route: drop and count.
	pkt := &Packet{TTL: 4, Dst: detect.SwitchID(0xDEAD)}
	dec, err := sw.Process(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Disposition != DropNoRoute || sw.Stats().NoRoute != 1 {
		t.Fatalf("no-route handling: %v", dec.Disposition)
	}
}

// star returns a hub (node 0) with leaves switches around it: the hub
// has one port per leaf, port p leading to leaf p+1.
func star(t *testing.T, leaves int) *topology.Graph {
	t.Helper()
	g := topology.NewGraph("star", leaves+1)
	g.AddNode("")
	for v := 1; v <= leaves; v++ {
		if err := g.AddEdge(0, g.AddNode("")); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestPortLimit: a one-byte forwarding table names ports 0–254, so a
// 255-port switch routes through every port — the last one included,
// one below the no-route marker — and NewNetwork refuses a 256-port
// switch, naming it.
func TestPortLimit(t *testing.T) {
	g := star(t, 255)
	n := buildNet(t, g, core.DefaultConfig(), 12)
	hub := n.Switch(0)
	if hub.Ports() != 255 {
		t.Fatalf("hub has %d ports", hub.Ports())
	}
	for leaf := 1; leaf <= 255; leaf++ {
		if err := n.InstallShortestPaths(leaf); err != nil {
			t.Fatal(err)
		}
	}
	routes := hub.Routes()
	if len(routes) != 255 {
		t.Fatalf("hub has %d routes, want 255", len(routes))
	}
	for leaf := 1; leaf <= 255; leaf++ {
		id := n.Assign.ID(leaf)
		port, ok := hub.Route(id)
		if !ok || port != PortID(leaf-1) || routes[id] != port {
			t.Fatalf("leaf %d: Route = %d, %v; Routes has %d; want port %d", leaf, port, ok, routes[id], leaf-1)
		}
	}
	tr, err := n.Send(1, 255, 1, InitialTTL, true)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Final != Deliver || len(tr.Hops) != 3 || tr.Hops[1].Decision.Egress != 254 {
		t.Fatalf("leaf 1 → leaf 255: %v after %d hops", tr.Final, len(tr.Hops))
	}
	if got := n.LinkLoad(0, 255); got != 1 {
		t.Fatalf("hub's last link carried %d packets, want 1", got)
	}

	g = star(t, 256)
	_, err = NewNetwork(g, topology.NewAssignment(g, xrand.New(12)), core.DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), "node 0 has 256 ports") {
		t.Fatalf("256-port switch: err = %v, want one naming node 0", err)
	}
}

// TestInstallShortestPathsDegenerate: degenerate inputs fail with clear
// errors instead of panics or the confusing portTo "no link to -1".
func TestInstallShortestPathsDegenerate(t *testing.T) {
	g, _ := topology.Ring(4)
	n := buildNet(t, g, core.DefaultConfig(), 10)
	for _, dst := range []int{-1, 4, 99} {
		err := n.InstallShortestPaths(dst)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("dst %d: err = %v, want out-of-range error", dst, err)
		}
	}
	// Disconnected: reachability error, not a next-hop one.
	island := topology.NewGraph("island", 3)
	for i := 0; i < 3; i++ {
		island.AddNode("")
	}
	if err := island.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	ni := buildNet(t, island, core.DefaultConfig(), 11)
	if err := ni.InstallShortestPaths(0); err == nil || !strings.Contains(err.Error(), "cannot reach") {
		t.Fatalf("disconnected graph: %v", err)
	}

	// The primary == -1 guard itself: a distance labelling with no
	// strictly closer neighbour (every neighbour at the same level)
	// must yield no next-hop port rather than port -1.
	if primary, _ := nextHopPorts([]int{1, 2}, []int32{2, 2, 2}, 2); primary != -1 {
		t.Fatalf("degenerate labelling produced next-hop port %d", primary)
	}
	// Sanity on a consistent labelling: primary the strictly closer
	// neighbour's port, backup the equal-distance detour's.
	primary, backup := nextHopPorts([]int{1, 2}, []int32{2, 1, 2}, 2)
	if primary != 0 || backup != 1 {
		t.Fatalf("next-hop ports (%d, %d), want (0, 1)", primary, backup)
	}
}

// TestDispositionString covers the stringer.
func TestDispositionString(t *testing.T) {
	for d := Forward; d <= RerouteLoop; d++ {
		if d.String() == "" || strings.HasPrefix(d.String(), "Disposition(") {
			t.Errorf("missing name for %d", d)
		}
	}
	if !strings.HasPrefix(Disposition(42).String(), "Disposition(") {
		t.Error("unknown disposition should format numerically")
	}
}

// TestNewNetworkAssignmentSize: NewNetwork refuses an assignment built
// for a different graph, naming both sizes — a smaller one used to
// panic while wiring switches, and a larger one built a network whose
// SetRoute accepted identifiers of nodes the graph does not have.
func TestNewNetworkAssignmentSize(t *testing.T) {
	for _, tc := range []struct{ graph, assign int }{{8, 4}, {4, 8}} {
		g, err := topology.Ring(tc.graph)
		if err != nil {
			t.Fatal(err)
		}
		other, err := topology.Ring(tc.assign)
		if err != nil {
			t.Fatal(err)
		}
		_, err = NewNetwork(g, topology.NewAssignment(other, xrand.New(1)), core.DefaultConfig())
		want := fmt.Sprintf("dataplane: assignment covers %d nodes, graph %s has %d", tc.assign, g.Name, tc.graph)
		if err == nil || err.Error() != want {
			t.Errorf("Ring(%d) with an assignment for Ring(%d): err = %v, want %q", tc.graph, tc.assign, err, want)
		}
	}
}
