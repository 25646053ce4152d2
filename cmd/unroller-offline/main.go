// Command unroller-offline contrasts offline trace analysis — the
// pre-Unroller way of finding loops (Hengartner et al., the paper's
// [14]: "Detection and Analysis of Routing Loops in Packet Traces") —
// with in-band detection, on the same emulated run. It injects loop
// traffic into a topology, records every switch observation in a
// compact binary trace through the data plane's mirror tap, analyses
// the recorded observations offline for packets that visited the same
// switch twice, and reports both answers along with what each one cost
// (records shipped to a collector vs header bits). The offline pipeline
// needs every observation and answers only after the fact; Unroller's
// answer is available at the looping switch while the packet is alive.
//
// Usage:
//
//	unroller-offline [-topo torus|fattree4] [-seed 1] [-packets 20] [-trace /tmp/run.utrc]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
	"github.com/unroller/unroller/internal/sim"
	"github.com/unroller/unroller/internal/topology"
	"github.com/unroller/unroller/internal/xrand"
)

func main() {
	var (
		topoName = flag.String("topo", "torus", "topology: torus or fattree4")
		seed     = flag.Uint64("seed", 1, "scenario seed")
		packets  = flag.Int("packets", 20, "packets to inject")
		path     = flag.String("trace", "", "write the binary trace here (empty = in-memory only)")
	)
	flag.Parse()
	if err := run(*topoName, *seed, *packets, *path); err != nil {
		fmt.Fprintf(os.Stderr, "unroller-offline: %v\n", err)
		os.Exit(1)
	}
}

func run(topoName string, seed uint64, packets int, path string) error {
	var (
		g   *topology.Graph
		err error
	)
	switch topoName {
	case "torus":
		g, err = topology.Torus(5, 5)
	case "fattree4":
		g, err = topology.FatTree(4)
	default:
		return fmt.Errorf("unknown topology %q", topoName)
	}
	if err != nil {
		return err
	}
	rng := xrand.New(seed)
	assign := topology.NewAssignment(g, rng)
	net, err := dataplane.NewNetwork(g, assign, core.DefaultConfig())
	if err != nil {
		return err
	}
	net.SetLoopPolicy(dataplane.ActionDrop)

	var sc *sim.Scenario
	for {
		sc, err = sim.SampleScenario(g, rng)
		if err != nil {
			return err
		}
		if !sc.Cycle.Contains(sc.Dst) {
			break
		}
	}
	// Rebind the network to the scenario's identifier assignment.
	net, err = dataplane.NewNetwork(g, sc.Assign, core.DefaultConfig())
	if err != nil {
		return err
	}
	net.SetLoopPolicy(dataplane.ActionDrop)
	if err := net.InstallShortestPaths(sc.Dst); err != nil {
		return err
	}
	if err := net.InjectLoop(sc.Dst, sc.Cycle); err != nil {
		return err
	}
	fmt.Printf("%s: loop of %d switches injected at %v\n", g.Name, sc.Cycle.Len(), sc.Cycle)

	// Mirror every observation into the trace.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var records []Record
	var pktID uint64
	net.OnHop = func(node int, sw detect.SwitchID, p *dataplane.Packet) {
		rec, err := w.Append(node, sw, p.Flow, pktID)
		if err != nil {
			panic(err)
		}
		records = append(records, rec)
	}

	inBand := 0
	inBandHops := 0
	for i := 0; i < packets; i++ {
		pktID = uint64(i)
		tr, err := net.Send(sc.Cycle[0], sc.Dst, uint32(i%4), 255, true)
		if err != nil {
			return err
		}
		if tr.Report != nil {
			inBand++
			inBandHops += tr.Report.Hops
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if path != "" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}

	findings := Analyze(records)
	sum := Summarize(records, findings)
	fmt.Printf("\noffline : %s\n", sum)
	fmt.Printf("offline : collector ingested %d records (%d bytes) before answering\n",
		len(records), buf.Len())
	avgHops := 0
	if inBand > 0 {
		avgHops = inBandHops / inBand
	}
	fmt.Printf("in-band : %d/%d packets reported the loop themselves, avg %d hops,\n",
		inBand, packets, avgHops)
	fmt.Printf("          at %d header bits per packet and zero mirrored records\n",
		core.DefaultConfig().HeaderBits())
	if path != "" {
		fmt.Printf("\ntrace written to %s\n", path)
	}
	return nil
}
