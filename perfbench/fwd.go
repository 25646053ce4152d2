package main

import (
	"fmt"
	"time"

	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/topology"
	"github.com/unroller/unroller/internal/xrand"
)

// fwd-fattree32: uniformly random flows with telemetry over a loop-free
// FatTree(32) (1280 switches, shortest-path FIBs to every destination).
// The FIB working set is far larger than the CPU caches, and no loop is
// ever reported, so the hop loop does nearly all the work.
const (
	fwdK       = 32
	fwdBatch   = 2048 // flows per SendMany call
	fwdBatches = 64   // distinct batches; one pass is 131072 flows
)

type fwdBench struct {
	net     *dataplane.Network
	eng     *dataplane.TrafficEngine
	batches [][]dataplane.Flow
	rep     repeatCheck
	// firstHops[b][i] is flow i of batch b's hop count on its first run,
	// checked against BFS distances once the timed region is over.
	firstHops [][]int32
	root      spanID // the latest traced timed region
}

// setupFwd builds the topology, the network and every destination's
// routes, then the flow pool. tr, when non-nil, records set-up spans.
func setupFwd(seed uint64, tr *tracer, layer metrics) (*fwdBench, error) {
	s := tr.begin("topology.FatTree", noSpan)
	g, err := topology.FatTree(fwdK)
	tr.end(s, 1)
	if err != nil {
		return nil, err
	}
	s = tr.begin("dataplane.NewNetwork", noSpan)
	net, err := dataplane.NewNetwork(g, topology.NewAssignment(g, xrand.New(seed)), core.DefaultConfig())
	tr.end(s, 1)
	if err != nil {
		return nil, err
	}
	var heap0 float64
	if layer != nil {
		heap0 = liveHeapMB()
	}
	s = tr.begin("dataplane.InstallShortestPaths", noSpan)
	for dst := 0; dst < g.N(); dst++ {
		if err := net.InstallShortestPaths(dst); err != nil {
			return nil, err
		}
	}
	tr.end(s, g.N())
	if layer != nil {
		layer.set("dataplane.fib_bytes_per_switch", "B", (liveHeapMB()-heap0)*(1<<20)/float64(g.N()))
	}
	f := &fwdBench{net: net, eng: dataplane.NewTrafficEngine(net, 1)}
	rng := xrand.New(seed ^ 0x66776466)
	for b := 0; b < fwdBatches; b++ {
		flows := make([]dataplane.Flow, fwdBatch)
		for i := range flows {
			src := rng.Intn(g.N())
			dst := rng.Intn(g.N() - 1)
			if dst >= src {
				dst++
			}
			flows[i] = dataplane.Flow{Src: src, Dst: dst, ID: uint32(b*fwdBatch + i), TTL: dataplane.InitialTTL, Telemetry: true}
		}
		f.batches = append(f.batches, flows)
	}
	f.rep = newRepeatCheck(fwdBatches)
	f.firstHops = make([][]int32, fwdBatches)
	return f, nil
}

// account checks one batch's summaries: every flow must be delivered, and
// the batch's totals must equal those of its first run. The first
// undelivered flow fails the run; every one counts as failed.
func (f *fwdBench) account(b int, sums []dataplane.TraceSummary, o *outcome) {
	var t totals
	for i := range sums {
		t.add(&sums[i])
		if sums[i].Final != dataplane.Deliver {
			if o.failed == 0 {
				o.problem("flow %d %d->%d not delivered: %v after %d hops", sums[i].Flow, sums[i].Src, sums[i].Dst, sums[i].Final, sums[i].Hops)
			}
			o.failed++
		}
	}
	if f.firstHops[b] == nil {
		hops := make([]int32, len(sums))
		for i := range sums {
			hops[i] = int32(sums[i].Hops)
		}
		f.firstHops[b] = hops
	}
	if err := f.rep.check(b, t); err != nil {
		o.problem("%v", err)
	}
}

// timed runs batches round-robin until d has passed and at least one
// full pass is done. With tr set, every fwdTraceEvery-th batch sends its
// first fwdTraceFlows flows through the traced hop loop instead.
func (f *fwdBench) timed(d time.Duration, tr *tracer, o *outcome) (interval, int64, error) {
	start := startRegion()
	root := tr.begin("fwd.timed", noSpan)
	f.root = root
	deadline := start.wall.Add(d)
	var ops int64
	for i := 0; ; i++ {
		b := i % len(f.batches)
		flows := f.batches[b]
		var (
			sums []dataplane.TraceSummary
			err  error
		)
		if tr != nil && i%fwdTraceEvery == 0 && tr.room(fwdTraceFlows*64) {
			sums, err = f.tracedBatch(flows, tr, root)
		} else {
			s := tr.begin("dataplane.SendMany", root)
			sums, err = f.eng.SendMany(flows)
			tr.end(s, len(flows))
		}
		if err != nil {
			return interval{}, ops, fmt.Errorf("batch %d: %w", b, err)
		}
		s := tr.begin("bench.check", root)
		f.account(b, sums, o)
		tr.end(s, len(sums))
		ops += int64(len(sums))
		if i+1 >= len(f.batches) && time.Now().After(deadline) {
			break
		}
	}
	tr.end(root, int(ops))
	return between(start, takeSample()), ops, nil
}

// checkHops verifies every flow's first-run hop count against the BFS
// distance from its destination: a delivered packet on shortest-path
// FIBs visits dist+1 switches.
func (f *fwdBench) checkHops(o *outcome) {
	byDst := map[int][][2]int{} // dst -> (batch, index)
	for b, hops := range f.firstHops {
		for i := range hops {
			byDst[f.batches[b][i].Dst] = append(byDst[f.batches[b][i].Dst], [2]int{b, i})
		}
	}
	bad := 0
	for dst, refs := range byDst {
		dist := f.net.Graph.BFS(dst)
		for _, r := range refs {
			fl := f.batches[r[0]][r[1]]
			if got, want := f.firstHops[r[0]][r[1]], int32(dist[fl.Src]+1); got != want {
				if bad == 0 {
					o.problem("flow %d %d->%d: %d hops, shortest path visits %d switches", fl.ID, fl.Src, dst, got, want)
				}
				bad++
			}
		}
	}
	if bad > 1 {
		o.problem("%d flows in all took a non-shortest path", bad)
	}
}

func runFwd(seed uint64, d time.Duration, o *outcome) error {
	var f *fwdBench
	setupS, setupWall, err := medianSetup(func() (err error) {
		f = nil
		f, err = setupFwd(seed, nil, nil)
		return err
	})
	if err != nil {
		return err
	}
	iv, ops, err := f.timed(d, nil, o)
	if err != nil {
		return err
	}
	o.attempted = ops
	o.e2e.set("setup_s", "s", setupS)
	printSetup(setupS, setupWall)
	o.e2e.set("cpu_us_per_op", "us", iv.cpu.Seconds()*1e6/float64(ops))
	o.e2e.set("heap_mb", "MiB", liveHeapMB())
	f.checkHops(o)
	o.counts = f.rep.summary()
	fmt.Printf("# timed: %d flows in %.3fs wall, %.3fs cpu, steal %.4f\n", ops, iv.wall.Seconds(), iv.cpu.Seconds(), iv.stealFrac)
	return nil
}

// The traced hop loop samples a few flows per batch: recording every hop
// of every packet would need gigabytes of spans.
const (
	fwdTraceEvery = 8   // trace one batch in this many
	fwdTraceFlows = 128 // flows of a traced batch that take the traced loop
	probeReps     = 8   // calls per probe span, to amortise the clock reads
)

func tracedFwd(seed uint64, d time.Duration, tr *tracer, o *outcome) (traceStats, error) {
	f, err := setupFwd(seed, tr, o.layer)
	if err != nil {
		return traceStats{}, err
	}
	u, t, err := alternate(d, tr, func(d time.Duration, tr *tracer) (interval, int64, error) { return f.timed(d, tr, o) })
	if err != nil {
		return traceStats{}, err
	}
	o.layer.set("dataplane.allocs_per_pkt", "count", float64(u.allocs)/float64(u.ops))
	o.layer.set("dataplane.bytes_per_pkt", "B", float64(u.bytes)/float64(u.ops))
	o.layer.set("go.gc_per_kop", "count", float64(u.gcs)*1000/float64(u.ops))
	o.layer.set("dataplane.pkts_per_s", "1/s", float64(u.ops)/u.wall.Seconds())
	o.attempted += u.ops + t.ops
	f.checkHops(o)
	o.counts = f.rep.summary()
	pass := f.rep.pass()
	o.layer.set("dataplane.hops_per_pkt", "count", float64(pass.hops)/float64(pass.flows))

	a := tr.selfTimes()
	setNs := func(name, span string) { o.layer.set(name, "ns", a[span].perOp()) }
	setNs("dataplane.marshal_ns", "dataplane.Packet.MarshalAppend")
	setNs("dataplane.unmarshal_ns", "dataplane.Packet.Unmarshal")
	setNs("dataplane.process_ns", "dataplane.Switch.Process")
	setNs("dataplane.fib_lookup_ns", "dataplane.Switch.Route")
	setNs("core.header_decode_ns", "core.DecodeHeader")
	setNs("core.header_encode_ns", "core.State.AppendHeader")
	// The whole hop loop's cost comes from the untraced segments, where no
	// span or probe inflates it: CPU per packet over hops per packet.
	o.layer.set("dataplane.send_ns_per_hop", "ns", u.cpuPerOp()*1e9*float64(pass.flows)/float64(pass.hops))
	o.layer.set("topology.build_s", "s", a["topology.FatTree"].total.Seconds())
	o.layer.set("dataplane.install_s", "s", a["dataplane.InstallShortestPaths"].total.Seconds())
	cov, _ := tr.coverage(f.root)
	return traceStats{overheadFrac: overheadFrac(u, t), coverage: cov}, nil
}

// tracedBatch sends the first fwdTraceFlows flows through a hop loop
// built from the data plane's public calls, with a span around each, and
// the rest through SendMany. Per hop it also times probe calls (FIB
// lookup, header decode and encode) on the same packet: Process makes
// them internally, where they cannot be timed from outside.
func (f *fwdBench) tracedBatch(flows []dataplane.Flow, tr *tracer, parent spanID) ([]dataplane.TraceSummary, error) {
	n := min(fwdTraceFlows, len(flows))
	sums := make([]dataplane.TraceSummary, 0, len(flows))
	var h hopLoop
	for _, fl := range flows[:n] {
		s, err := h.send(f.net, fl, tr, parent)
		if err != nil {
			return nil, err
		}
		sums = append(sums, s)
	}
	s := tr.begin("dataplane.SendMany", parent)
	rest, err := f.eng.SendMany(flows[n:])
	tr.end(s, len(flows)-n)
	return append(sums, rest...), err
}

// hopLoop holds the traced loop's reusable buffers.
type hopLoop struct {
	wireA, wireB, tel, enc []byte
	pkt                    dataplane.Packet
	st                     *core.State
}

// send carries one flow hop by hop as the data plane does: marshal,
// re-parse, process, follow the egress port. It supports the dispositions
// a loop-free network produces.
func (h *hopLoop) send(net *dataplane.Network, fl dataplane.Flow, tr *tracer, parent spanID) (dataplane.TraceSummary, error) {
	sum := dataplane.TraceSummary{Flow: fl.ID, Src: fl.Src, Dst: fl.Dst, Telemetry: fl.Telemetry}
	fs := tr.begin("bench.send", parent)
	defer func() { tr.end(fs, sum.Hops) }()
	u := net.Unroller()
	if h.st == nil {
		h.st = u.NewPacketState()
	}
	p := &h.pkt
	*p = dataplane.Packet{TTL: fl.TTL, Flow: fl.ID, Src: net.Assign.ID(fl.Src), Dst: net.Assign.ID(fl.Dst)}
	tel, err := u.NewPacketState().AppendHeader(h.tel[:0])
	if err != nil {
		return sum, err
	}
	h.tel, p.Telemetry = tel, tel
	cur := fl.Src
	for {
		hs := tr.begin("bench.hop", fs)
		s := tr.begin("dataplane.Packet.MarshalAppend", hs)
		wire, err := p.MarshalAppend(h.wireA[:0])
		tr.end(s, 1)
		if err != nil {
			return sum, err
		}
		h.wireA = wire
		s = tr.begin("dataplane.Packet.Unmarshal", hs)
		err = p.Unmarshal(wire)
		tr.end(s, 1)
		if err != nil {
			return sum, err
		}
		sw := net.Switch(cur)
		if err := h.probe(u, sw, p, tr, hs); err != nil {
			return sum, err
		}
		s = tr.begin("dataplane.Switch.Process", hs)
		dec, err := sw.Process(p)
		tr.end(s, 1)
		tr.end(hs, 1)
		if err != nil {
			return sum, err
		}
		sum.Hops++
		switch dec.Disposition {
		case dataplane.Forward:
			cur = sw.Peer(dec.Egress)
		case dataplane.Deliver, dataplane.DropTTL, dataplane.DropNoRoute, dataplane.DropLink:
			sum.Final = dec.Disposition
			return sum, nil
		default:
			return sum, fmt.Errorf("traced hop loop: unsupported disposition %v", dec.Disposition)
		}
		h.wireA, h.wireB = h.wireB, h.wireA
	}
}

// probe times the calls Process makes internally, on the packet as it
// arrives at sw: the header decode (with the hop count derived from the
// TTL when the configuration says so), the header re-encode, and the FIB
// lookup.
func (h *hopLoop) probe(u *core.Unroller, sw *dataplane.Switch, p *dataplane.Packet, tr *tracer, parent spanID) error {
	if len(p.Telemetry) == 0 || p.Dst == sw.ID {
		return nil
	}
	hops := uint64(dataplane.InitialTTL) - uint64(p.TTL)
	s := tr.begin("core.DecodeHeader", parent)
	for k := 0; k < probeReps; k++ {
		var err error
		if u.Config().TTLHopCount {
			err = u.DecodeHeaderAtInto(h.st, p.Telemetry, hops)
		} else {
			err = u.DecodeHeaderInto(h.st, p.Telemetry)
		}
		if err != nil {
			return err
		}
	}
	tr.end(s, probeReps)
	s = tr.begin("core.State.AppendHeader", parent)
	for k := 0; k < probeReps; k++ {
		enc, err := h.st.AppendHeader(h.enc[:0])
		if err != nil {
			return err
		}
		h.enc = enc
	}
	tr.end(s, probeReps)
	s = tr.begin("dataplane.Switch.Route", parent)
	found := 0
	for k := 0; k < probeReps; k++ {
		if _, ok := sw.Route(p.Dst); ok {
			found++
		}
	}
	tr.end(s, probeReps)
	if found != probeReps {
		return fmt.Errorf("traced hop loop: switch %v has no route to %v", sw.ID, p.Dst)
	}
	return nil
}
