// Command unroller-emu runs the software data plane: it builds a
// topology, installs shortest-path forwarding, misconfigures a set of
// FIBs to create a routing loop, and injects packets — showing Unroller
// detecting the loop in-band, the controller report, and (optionally)
// the reroute-on-detect reaction versus the TTL-death counterfactual.
//
// Usage:
//
//	unroller-emu [-topo fattree4|torus|geant] [-seed 1] [-reroute] [-packets 5]
//
// Bulk mode drives the concurrent traffic engine instead of tracing
// individual packets: -flows N injects N random flows through a worker
// pool (-workers W) and prints aggregate dispositions, link load, and
// throughput:
//
//	unroller-emu -topo torus -flows 10000 -workers 8
//
// Scenario mode replays a named churn scenario — deterministic fault
// injection (link failures, staggered FIB updates, switch restarts, wire
// corruption) interleaved with traffic epochs — and prints its event log,
// disposition table, and controller stats. The output is a pure function
// of (scenario, seed): any worker count produces identical bytes.
//
//	unroller-emu -scenario microloop -seed 7
//	unroller-emu -scenario linkflap -seed 3 -workers 16
//
// Scenario runs carry the cross-plane verification oracle by default
// (-oracle=false disables it): at every quiesced epoch boundary a
// static Boufkhad-style verifier over the mirrored FIBs computes the
// exact looping (destination, start) pairs and reconciles them against
// the in-band detections — the report ends with per-epoch confusion
// matrices for Unroller and for the baseline detector selected with
// -baseline (default aesop, the Brent-style hop-limit-free scheme):
//
//	unroller-emu -scenario microloop -seed 7 -baseline aesop
//	unroller-emu -scenario restart -oracle=false
//
// Any mode can additionally stream its loop reports to a running
// unroller-collectord over the collectorsvc frame protocol; the sender
// reconnects with backoff and never blocks the data plane:
//
//	unroller-emu -scenario restart -collector 127.0.0.1:7777
//
// Giving -collector a comma-separated list of cluster addresses
// switches to cluster routing (internal/cluster): membership is
// resolved from the listed seeds, each report hashes to a flow
// partition owned by one node, and reports follow partitions when
// nodes join, die, or rejoin. -collector-seed must match the cluster's
// -seed for ring agreement:
//
//	unroller-emu -scenario restart -collector 10.0.0.1:7779,10.0.0.2:7779
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/unroller/unroller/internal/baseline"
	"github.com/unroller/unroller/internal/cluster"
	"github.com/unroller/unroller/internal/collectorsvc"
	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/scenario"
	"github.com/unroller/unroller/internal/sim"
	"github.com/unroller/unroller/internal/topology"
	"github.com/unroller/unroller/internal/xrand"
)

func main() {
	var (
		topo      = flag.String("topo", "torus", "topology: fattree4, torus, or geant")
		seed      = flag.Uint64("seed", 1, "scenario seed")
		policy    = flag.String("policy", "drop", "loop reaction: drop, reroute, or collect (§3.5 membership recording)")
		packets   = flag.Int("packets", 5, "packets to inject (traced mode)")
		flows     = flag.Int("flows", 0, "bulk mode: inject this many random flows through the traffic engine")
		workers   = flag.Int("workers", 0, "bulk/scenario mode: worker goroutines (0 = GOMAXPROCS)")
		scen      = flag.String("scenario", "", "scenario mode: replay this named churn scenario (see -scenario help)")
		oracle    = flag.Bool("oracle", true, "scenario mode: reconcile detections against the static cross-plane verifier (confusion matrix per epoch)")
		baseName  = flag.String("baseline", "aesop", "scenario mode: baseline detector the oracle scores alongside unroller (aesop, int, or none)")
		collector = flag.String("collector", "", "stream loop reports to a collectord: one ingest host:port, or a comma-separated cluster seed list")
		ringSeed  = flag.Uint64("collector-seed", 0, "cluster mode: ring seed, must match the collectord nodes' -seed")
		heartbeat = flag.Duration("collector-heartbeat", collectorsvc.DefaultHeartbeatEvery, "keep-alive heartbeat interval on an idle collector session")
		stale     = flag.Duration("collector-stale", collectorsvc.DefaultStaleTimeout, "reconnect when the collector acks nothing for this long")
		flush     = flag.Duration("collector-flush", collectorsvc.DefaultFlushTimeout, "at exit, wait at most this long to drain pending reports")
	)
	flag.Parse()
	var hook dataplane.ReportHook
	var client *collectorsvc.Client
	var cclient *cluster.Client
	// One address gets the direct client even though that collectord is
	// a one-member cluster: the cluster client's per-partition senders
	// measured about 0.6x its rate against a single node (DESIGN §13).
	if targets := splitList(*collector); len(targets) == 1 {
		var err error
		client, err = collectorsvc.NewClient(collectorsvc.ClientConfig{
			Addr:           targets[0],
			Seed:           *seed,
			HeartbeatEvery: *heartbeat,
			StaleTimeout:   *stale,
			FlushTimeout:   *flush,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "unroller-emu: %v\n", err)
			os.Exit(1)
		}
		hook = client.Send
	} else if len(targets) > 1 {
		var err error
		cclient, err = cluster.NewClient(cluster.ClientConfig{
			Seeds:          targets,
			Seed:           *ringSeed,
			HeartbeatEvery: *heartbeat,
			StaleTimeout:   *stale,
			FlushTimeout:   *flush,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "unroller-emu: %v\n", err)
			os.Exit(1)
		}
		hook = cclient.Send
	}
	var err error
	switch {
	case *scen != "":
		err = runScenario(os.Stdout, *scen, *seed, *workers, hook, *oracle, *baseName)
	case *flows > 0:
		err = runBulk(*topo, *seed, *policy, *flows, *workers, hook)
	default:
		err = run(*topo, *seed, *policy, *packets, hook)
	}
	if client != nil {
		client.Close()
		st := client.Stats()
		fmt.Printf("collector %s: enqueued=%d acked=%d dropped=%d retransmits=%d connects=%d dial_failures=%d\n",
			*collector, st.Enqueued, st.Acked, st.Dropped, st.Retransmits, st.Connects, st.DialFailures)
	}
	if cclient != nil {
		cclient.Close()
		st := cclient.Stats()
		fmt.Printf("collector cluster %s: enqueued=%d acked=%d dropped=%d retransmits=%d resolves=%d rebinds=%d\n",
			*collector, st.Enqueued, st.Acked, st.Dropped, st.Retransmits, st.Resolves, st.Rebinds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "unroller-emu: %v\n", err)
		os.Exit(1)
	}
}

// splitList parses a comma-separated address list, dropping empty
// entries so a trailing comma is harmless.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runScenario replays a named churn scenario and renders its replayable
// summary; "help" (or "list") prints the catalogue. With oracle set the
// run carries the static cross-plane verifier, and baseName picks the
// baseline detector it scores alongside unroller ("" or "none" for
// none).
func runScenario(w io.Writer, name string, seed uint64, workers int, hook dataplane.ReportHook, oracle bool, baseName string) error {
	if name == "help" || name == "list" {
		fmt.Fprintf(w, "available scenarios: %s\n", strings.Join(scenario.Names(), ", "))
		return nil
	}
	opts := scenario.RunOpts{Workers: workers, Hook: hook, Oracle: oracle}
	if oracle && baseName != "" && baseName != "none" {
		det, ok := baseline.ByName(baseName)
		if !ok {
			return fmt.Errorf("unknown baseline %q (have %s, or none)", baseName, strings.Join(baseline.Names(), ", "))
		}
		opts.Baseline = det
	}
	res, err := scenario.RunWithOpts(name, seed, opts)
	if err != nil {
		return err
	}
	res.Render(w)
	return nil
}

// buildTopo maps the -topo flag to a graph.
func buildTopo(topoName string) (*topology.Graph, error) {
	switch topoName {
	case "fattree4":
		return topology.FatTree(4)
	case "torus":
		return topology.Torus(5, 5)
	case "geant":
		return topology.Synthetic("GEANT", 40, 8)
	default:
		return nil, fmt.Errorf("unknown topology %q", topoName)
	}
}

// setPolicy maps the -policy flag onto the network.
func setPolicy(net *dataplane.Network, policy string) error {
	switch policy {
	case "drop":
		net.SetLoopPolicy(dataplane.ActionDrop)
	case "reroute":
		net.SetLoopPolicy(dataplane.ActionReroute)
	case "collect":
		net.SetLoopPolicy(dataplane.ActionCollect)
	default:
		return fmt.Errorf("unknown policy %q (drop, reroute, collect)", policy)
	}
	return nil
}

// sampleLoop draws a loop scenario the way the Table 5 experiment does,
// rejecting cycles through the destination itself (those deliver before
// they can loop, which makes for a dull demo).
func sampleLoop(g *topology.Graph, rng *xrand.Rand) (*sim.Scenario, error) {
	for {
		sc, err := sim.SampleScenario(g, rng)
		if err != nil {
			return nil, err
		}
		if !sc.Cycle.Contains(sc.Dst) {
			return sc, nil
		}
	}
}

func run(topoName string, seed uint64, policy string, packets int, hook dataplane.ReportHook) error {
	g, err := buildTopo(topoName)
	if err != nil {
		return err
	}
	rng := xrand.New(seed)
	assign := topology.NewAssignment(g, rng)
	fmt.Printf("topology %s: %d switches, %d links, diameter %d\n", g.Name, g.N(), g.M(), g.Diameter())

	net, err := dataplane.NewNetwork(g, assign, core.DefaultConfig())
	if err != nil {
		return err
	}
	net.OnReport = hook

	sc, err := sampleLoop(g, rng)
	if err != nil {
		return err
	}
	if err := net.InstallShortestPaths(sc.Dst); err != nil {
		return err
	}
	if err := setPolicy(net, policy); err != nil {
		return err
	}
	if err := net.InjectLoop(sc.Dst, sc.Cycle); err != nil {
		return err
	}
	fmt.Printf("injected loop of %d switches at nodes %v (FIB misconfiguration for dst %v)\n",
		sc.Cycle.Len(), sc.Cycle, assign.ID(sc.Dst))

	// Send from the loop head so every packet is affected.
	src := sc.Cycle[0]
	for i := 0; i < packets; i++ {
		tr, err := net.Send(src, sc.Dst, uint32(i), 255, true)
		if err != nil {
			return err
		}
		describe(i, tr, assign)
	}

	fmt.Printf("\ncontroller received %d loop reports; top reporters:", net.Controller.Count())
	for _, id := range net.Controller.TopReporters() {
		fmt.Printf(" %v", id)
	}
	fmt.Println()
	for _, members := range net.Controller.Memberships() {
		fmt.Printf("collected loop membership (%d switches):", len(members))
		for _, id := range members {
			fmt.Printf(" %v", id)
		}
		fmt.Println()
	}

	// Counterfactual: the same loop without in-band telemetry.
	tr, err := net.Send(src, sc.Dst, 999, 255, false)
	if err != nil {
		return err
	}
	fmt.Printf("without telemetry: packet %s after %d hops (TTL exhausted in the loop)\n",
		tr.Final, len(tr.Hops))
	return nil
}

// runBulk drives the concurrent traffic engine: shortest paths for every
// destination, one injected loop, and a batch of random flows — a fifth
// of which are steered into the loop, and a fifth of which carry no
// telemetry so the aggregate output contrasts DropLoop with DropTTL.
func runBulk(topoName string, seed uint64, policy string, flows, workers int, hook dataplane.ReportHook) error {
	g, err := buildTopo(topoName)
	if err != nil {
		return err
	}
	rng := xrand.New(seed)
	assign := topology.NewAssignment(g, rng)
	net, err := dataplane.NewNetwork(g, assign, core.DefaultConfig())
	if err != nil {
		return err
	}
	net.OnReport = hook
	for dst := 0; dst < g.N(); dst++ {
		if err := net.InstallShortestPaths(dst); err != nil {
			return err
		}
	}
	sc, err := sampleLoop(g, rng)
	if err != nil {
		return err
	}
	if err := setPolicy(net, policy); err != nil {
		return err
	}
	if err := net.InjectLoop(sc.Dst, sc.Cycle); err != nil {
		return err
	}

	fs := make([]dataplane.Flow, flows)
	for i := range fs {
		src, dst := g.RandomPair(rng)
		fs[i] = dataplane.Flow{Src: src, Dst: dst, ID: uint32(i), TTL: dataplane.InitialTTL, Telemetry: true}
		switch i % 5 {
		case 0:
			// Steer into the loop from its head.
			fs[i].Src, fs[i].Dst = sc.Cycle[0], sc.Dst
		case 4:
			// Blind traffic: looping packets die by TTL instead.
			fs[i].Telemetry = false
		}
	}

	eng := dataplane.NewTrafficEngine(net, workers)
	fmt.Printf("topology %s: %d switches, %d links; loop of %d switches for dst %v\n",
		g.Name, g.N(), g.M(), sc.Cycle.Len(), assign.ID(sc.Dst))
	fmt.Printf("injecting %d flows across %d workers\n", flows, eng.Workers())

	start := time.Now()
	sums, err := eng.SendMany(fs)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}

	var hops, reports uint64
	var finals [dataplane.NumDispositions]int
	for _, s := range sums {
		finals[s.Final]++
		hops += uint64(s.Hops)
		reports += uint64(s.Reports)
	}
	fmt.Printf("done in %v (%.0f flows/s, %d packet-hops, %.1f hops/flow)\n",
		elapsed.Round(time.Microsecond), float64(flows)/elapsed.Seconds(),
		net.TotalPacketHops(), float64(hops)/float64(flows))
	for d := dataplane.Disposition(0); int(d) < dataplane.NumDispositions; d++ {
		if finals[d] > 0 {
			fmt.Printf("  %-13s %d\n", d.String()+":", finals[d])
		}
	}
	fmt.Printf("controller received %d loop reports (%d carried in summaries)\n",
		net.Controller.Count(), reports)
	u, v, load := net.MaxLinkLoad()
	if load > 0 {
		fmt.Printf("hottest link (%d,%d) carried %d traversals\n", u, v, load)
	}
	return nil
}

func describe(i int, tr *dataplane.Trace, assign *topology.Assignment) {
	switch {
	case tr.Report != nil && tr.Rerouted && tr.Final == dataplane.Deliver:
		fmt.Printf("packet %d: loop reported by %v at hop %d, rerouted, delivered after %d hops\n",
			i, tr.Report.Reporter, tr.Report.Hops, len(tr.Hops))
	case tr.Report != nil:
		fmt.Printf("packet %d: loop reported by %v at hop %d → %s\n",
			i, tr.Report.Reporter, tr.Report.Hops, tr.Final)
	default:
		fmt.Printf("packet %d: %s after %d hops\n", i, tr.Final, len(tr.Hops))
	}
	_ = assign
}
