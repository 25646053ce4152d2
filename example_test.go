package unroller_test

import (
	"fmt"

	unroller "github.com/unroller/unroller"
	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/routing"
	"github.com/unroller/unroller/internal/topology"
)

// Example demonstrates the whole quick-start flow: configure, simulate
// a packet into a loop, and read the report.
func Example() {
	det := unroller.MustNew(unroller.DefaultConfig())
	walk := unroller.RandomWalk(5, 12, 42) // B=5 pre-loop hops, L=12 loop switches
	out := unroller.Simulate(det, walk, 1000)
	fmt.Printf("detected=%v within bound=%v header=%d bits\n",
		out.Detected,
		out.Hops <= unroller.WorstCaseBound(4, 5, 12),
		det.BitOverhead(0))
	// Output:
	// detected=true within bound=true header=40 bits
}

// ExampleConfig_HeaderBits shows the §3.3 compression arithmetic: the
// paper's z=7, Th=4 example needs just 17 bits of header.
func ExampleConfig_HeaderBits() {
	cfg := unroller.DefaultConfig()
	fmt.Println("default:", cfg.HeaderBits())
	cfg.ZBits, cfg.Threshold, cfg.HashIDs = 7, 4, true
	fmt.Println("z=7,Th=4:", cfg.HeaderBits())
	cfg.TTLHopCount = true
	fmt.Println("with TTL-derived counter:", cfg.HeaderBits())
	// Output:
	// default: 40
	// z=7,Th=4: 17
	// with TTL-derived counter: 9
}

// ExampleMonteCarlo reproduces one data point of the paper's Figure 2:
// the average detection time at b=4, B=5, L=20 sits near 2×X.
func ExampleMonteCarlo() {
	det := unroller.MustNew(unroller.DefaultConfig())
	res := unroller.MonteCarlo(det, 5, 20, unroller.MCConfig{Runs: 50000, Seed: 1})
	fmt.Printf("mean in (1.8, 2.3): %v; misses: %d\n",
		res.Time.Mean() > 1.8 && res.Time.Mean() < 2.3, res.Timeouts)
	// Output:
	// mean in (1.8, 2.3): true; misses: 0
}

// ExampleNewNetwork walks the emulator path: build a fat tree, break
// its forwarding, and watch a switch report the loop on a live packet.
func ExampleNewNetwork() {
	g, _ := unroller.FatTree(4)
	assign := unroller.NewAssignment(g, 7)
	net, _ := unroller.NewNetwork(g, assign, unroller.DefaultConfig())
	net.SetLoopPolicy(unroller.ActionDrop)

	dst := 19
	_ = net.InstallShortestPaths(dst)
	// Two aggregation switches point at each other through an edge
	// switch: a 2-loop via FIB misconfiguration.
	_ = net.InjectLoop(dst, unroller.Cycle{0, 8})

	tr, _ := net.Send(0, dst, 1, 255, true)
	fmt.Printf("outcome=%v reported=%v rerouted=%v\n",
		tr.Final, tr.Report != nil, tr.Rerouted)
	// Output:
	// outcome=drop-loop reported=true rerouted=false
}

// Example_reroute shows the reaction the paper's conclusion sketches
// (§6): because Unroller identifies loops in real time, in the data
// plane, a switch can deflect the packet to a pre-installed backup port
// (à la PURR) instead of dropping it, turning a guaranteed loss into a
// delivery. It injects a loop into a torus fabric and compares three
// policies on the same traffic: no telemetry (TTL death), detect and
// drop (the paper's base design), and detect and reroute. Detection
// alone turns 255-hop TTL deaths into ~10-hop drops, saving the
// bandwidth the loop would burn; backup ports then turn those drops
// into deliveries.
func Example_reroute() {
	g, err := topology.Torus(5, 5)
	if err != nil {
		panic(err)
	}
	assign := unroller.NewAssignment(g, 11)
	dst := 24
	loop := unroller.Cycle{6, 7, 12, 11} // a unit square in the fabric

	policies := []struct {
		name      string
		telemetry bool
		backups   bool
	}{
		{"no telemetry (status quo)", false, false},
		{"detect and drop (paper §4)", true, false},
		{"detect and reroute (paper §6)", true, true},
	}
	for _, pol := range policies {
		net, err := unroller.NewNetwork(g, assign, unroller.DefaultConfig())
		if err != nil {
			panic(err)
		}
		if err := net.InstallShortestPaths(dst); err != nil {
			panic(err)
		}
		if !pol.backups {
			for node := 0; node < g.N(); node++ {
				net.Switch(node).ClearBackups()
			}
		}
		if err := net.InjectLoop(dst, loop); err != nil {
			panic(err)
		}

		delivered, dropped, totalHops := 0, 0, 0
		for _, src := range []int{6, 7, 12, 11, 1, 5} { // traffic crossing the loop
			tr, err := net.Send(src, dst, uint32(src), 255, pol.telemetry)
			if err != nil {
				panic(err)
			}
			totalHops += len(tr.Hops)
			if tr.Final == dataplane.Deliver {
				delivered++
			} else {
				dropped++
			}
		}
		fmt.Printf("%-30s  delivered %d/6, dropped %d, avg %5.1f hops/pkt, %d reports\n",
			pol.name, delivered, dropped, float64(totalHops)/6, net.Controller.Count())
	}
	// Output:
	// no telemetry (status quo)       delivered 2/6, dropped 4, avg 172.0 hops/pkt, 0 reports
	// detect and drop (paper §4)      delivered 2/6, dropped 4, avg   8.3 hops/pkt, 4 reports
	// detect and reroute (paper §6)   delivered 6/6, dropped 0, avg  11.0 hops/pkt, 4 reports
}

// Example_transientLoops follows the most realistic loop source,
// routing protocol convergence. A distance-vector (RIP-style) ring
// without split horizon loses a link; while the bad news propagates,
// nodes near the failure forward destination-bound traffic at each other
// (count-to-infinity). After every protocol round the FIBs are installed
// into the data-plane emulator and a probe is sent: every round where
// the control plane has a loop, the data plane catches it on a live
// packet in a handful of hops, and it goes quiet the moment the network
// reconverges.
func Example_transientLoops() {
	g, err := topology.Ring(8) // the textbook count-to-infinity victim
	if err != nil {
		panic(err)
	}
	proto, err := routing.New(g, routing.DefaultInfinity, false /* no split horizon */)
	if err != nil {
		panic(err)
	}
	rounds, _ := proto.Converge(100)
	fmt.Printf("ring of %d routers converged in %d rounds\n", g.N(), rounds)

	dst := 7
	if err := proto.FailLink(0, 7); err != nil {
		panic(err)
	}
	fmt.Printf("*** link 0—7 fails; watching destination %d during reconvergence ***\n", dst)

	assign := unroller.NewAssignment(g, 3)
	for round := 0; ; round++ {
		loops := proto.ForwardingLoops(dst)

		// Fresh network per snapshot: FIBs exactly as the protocol
		// believes them this round.
		net, err := dataplane.NewNetwork(g, assign, core.DefaultConfig())
		if err != nil {
			panic(err)
		}
		net.SetLoopPolicy(dataplane.ActionDrop)
		if err := proto.InstallInto(net, dst); err != nil {
			panic(err)
		}
		// Probe from node 1 (adjacent to the failure).
		tr, err := net.Send(1, dst, uint32(round), 255, true)
		if err != nil {
			panic(err)
		}

		status := fmt.Sprintf("probe %v", tr.Final)
		if tr.Report != nil {
			status = fmt.Sprintf("LOOP caught by %v at hop %d", tr.Report.Reporter, tr.Report.Hops)
		}
		fmt.Printf("round %2d: metric(1→%d)=%2d, control-plane loops=%d, %s\n",
			round, dst, proto.Metric(1, dst), len(loops), status)

		if !proto.Step() {
			fmt.Printf("reconverged after %d rounds; final probe: %s in %d hops\n",
				round, tr.Final, len(tr.Hops))
			break
		}
		if round > 5*routing.DefaultInfinity {
			panic("no reconvergence")
		}
	}
	// Output:
	// ring of 8 routers converged in 4 rounds
	// *** link 0—7 fails; watching destination 7 during reconvergence ***
	// round  0: metric(1→7)= 2, control-plane loops=0, probe drop-no-route
	// round  1: metric(1→7)= 4, control-plane loops=1, LOOP caught by sw-37e00afb at hop 4
	// round  2: metric(1→7)= 4, control-plane loops=1, LOOP caught by sw-a3fd1dea at hop 5
	// round  3: metric(1→7)= 6, control-plane loops=1, LOOP caught by sw-a3fd1dea at hop 5
	// round  4: metric(1→7)= 6, control-plane loops=1, LOOP caught by sw-a3fd1dea at hop 5
	// round  5: metric(1→7)= 6, control-plane loops=0, probe deliver
	// reconverged after 5 rounds; final probe: deliver in 7 hops
}

// Example_wanLoopHunt is the scenario from the paper's introduction: a
// GEANT-sized WAN suffers a forwarding loop after a misconfigured FIB
// update. Unroller-equipped switches detect it in-band within a few
// hops, while the same packets without telemetry burn their entire TTL
// (the loss that inflates tail latency and triggers spurious congestion
// control). It runs on the data-plane emulator: real packet bytes,
// per-hop parse/deparse, FIB lookups and controller reports.
func Example_wanLoopHunt() {
	// A 40-node WAN with the same size and diameter as GEANT (the
	// paper's Table 5 entry). unroller.LoadGraphML("Geant.graphml")
	// runs it on the real Topology Zoo file.
	g, err := topology.Synthetic("GEANT", 40, 8)
	if err != nil {
		panic(err)
	}
	assign := unroller.NewAssignment(g, 7)
	net, err := unroller.NewNetwork(g, assign, unroller.DefaultConfig())
	if err != nil {
		panic(err)
	}

	// Normal operation: shortest-path routes towards a peering point.
	dst := 0
	if err := net.InstallShortestPaths(dst); err != nil {
		panic(err)
	}
	for node := 0; node < g.N(); node++ {
		net.Switch(node).ClearBackups() // base design: drop and report
	}
	tr, err := net.Send(g.N()-1, dst, 1, 64, true)
	if err != nil {
		panic(err)
	}
	fmt.Printf("healthy network: packet delivered in %d hops, %d loop reports\n",
		len(tr.Hops), net.Controller.Count())

	// An operator fat-fingers a maintenance change: three routers now
	// point at each other for dst-bound traffic. Node 11 is an access
	// router dual-homed to backbone nodes 2 and 3, so {2, 11, 3} is a
	// physical triangle.
	loop := unroller.Cycle{2, 11, 3}
	if err := loop.Validate(g); err != nil {
		panic(err)
	}
	if err := net.InjectLoop(dst, loop); err != nil {
		panic(err)
	}
	fmt.Printf("FIB misconfiguration: nodes %v now loop dst-bound traffic\n", loop)

	// Traffic from several ingress points.
	detected, ttlDeaths := 0, 0
	var detectionHops []int
	for src := 20; src < 30; src++ {
		trLoop, err := net.Send(src, dst, uint32(src), 255, true)
		if err != nil {
			panic(err)
		}
		if trLoop.Report != nil {
			detected++
			detectionHops = append(detectionHops, trLoop.Report.Hops)
		}
		trBlind, err := net.Send(src, dst, uint32(src), 255, false)
		if err != nil {
			panic(err)
		}
		if trBlind.Final == dataplane.DropTTL {
			ttlDeaths++
		}
	}
	fmt.Printf("with Unroller:    %d/10 packets reported the loop in-band (hops: %v)\n", detected, detectionHops)
	fmt.Printf("without Unroller: %d/10 packets died by TTL after 255 hops each\n", ttlDeaths)
	fmt.Printf("controller heard %d reports; loop lives at:", net.Controller.Count())
	for _, id := range net.Controller.TopReporters() {
		fmt.Printf(" %v", id)
	}
	fmt.Println()
	// Output:
	// healthy network: packet delivered in 8 hops, 0 loop reports
	// FIB misconfiguration: nodes [2 11 3] now loop dst-bound traffic
	// with Unroller:    8/10 packets reported the loop in-band (hops: [10 11 9 10 11 6 10 11])
	// without Unroller: 8/10 packets died by TTL after 255 hops each
	// controller heard 8 reports; loop lives at: sw-bb5b0f38
}
