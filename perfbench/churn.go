package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/unroller/unroller/internal/baseline"
	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
	"github.com/unroller/unroller/internal/routing"
	"github.com/unroller/unroller/internal/topology"
	"github.com/unroller/unroller/internal/verify"
	"github.com/unroller/unroller/internal/xrand"
)

// churn-microloop: distance-vector routing without split horizon on a
// torus whose diameter (12) stays below infinity (16). Each cycle
// isolates one node, lets the protocol count to infinity, then restores
// the node; every convergence round's FIB delta is staged one epoch after
// the last, so the data plane runs through the transient micro-loops.
// Half of each epoch's flows target the churning node.
const (
	churnW, churnH  = 12, 12
	churnCycles     = 8   // distinct isolate/restore cycles; one pass runs each once
	churnFlows      = 512 // flows per epoch
	churnMaxRounds  = 64  // convergence rounds staged per phase, at most
	churnDedup      = 8
	churnMaxEvents  = 1024
	churnMaxAge     = 4
	churnReportsCap = 1 << 18 // reports kept for the controller replay
)

type churnCycle struct {
	node   int
	plan   *dataplane.FaultPlan
	epochs []dataplane.ChurnEpoch
}

type churnBench struct {
	seed   uint64
	net    *dataplane.Network
	eng    *dataplane.TrafficEngine
	aesop  detect.Detector
	cycles []churnCycle
	rep    repeatCheck
	// kept is the oracle of the latest run of cycle 0, held until the
	// heap is measured, so heap_mb includes one oracle's retained state
	// whatever cycle the run ends on.
	kept *verify.Oracle
	// Traced runs only: the latest timed region's root span and the
	// reports captured for the controller replay.
	root    spanID
	reports []capturedReport
}

func controllerConfig() dataplane.ControllerConfig {
	return dataplane.ControllerConfig{MaxEvents: churnMaxEvents, DedupWindow: churnDedup, MaxAgeTicks: churnMaxAge}
}

func setupChurn(seed uint64, tr *tracer) (*churnBench, error) {
	s := tr.begin("topology.Torus", noSpan)
	g, err := topology.Torus(churnW, churnH)
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
	net.Controller = dataplane.NewControllerWithConfig(controllerConfig())
	net.SetLoopPolicy(dataplane.ActionDrop)
	proto, err := routing.New(g, routing.DefaultInfinity, false)
	if err != nil {
		return nil, err
	}
	s = tr.begin("routing.Converge", noSpan)
	if _, ok := proto.Converge(churnMaxRounds); !ok {
		return nil, fmt.Errorf("routing did not converge")
	}
	tr.end(s, 1)
	s = tr.begin("routing.InstallInto", noSpan)
	prev := make([][]int, g.N())
	for dst := 0; dst < g.N(); dst++ {
		if err := proto.InstallInto(net, dst); err != nil {
			return nil, err
		}
		prev[dst] = proto.NextHops(dst)
	}
	tr.end(s, g.N())
	aesop, ok := baseline.ByName("aesop")
	if !ok {
		return nil, fmt.Errorf("no aesop baseline")
	}
	c := &churnBench{seed: seed, net: net, eng: dataplane.NewTrafficEngine(net, 1), aesop: aesop}
	rng := xrand.New(seed ^ 0x636875726e)
	nodes := rng.Perm(g.N())[:churnCycles]
	for ci, x := range nodes {
		cy := churnCycle{node: x, plan: &dataplane.FaultPlan{}}
		epoch := 0
		// stage runs the protocol to convergence, putting each round's
		// FIB delta (all destinations) into its own epoch.
		stage := func() error {
			for round := 0; ; round++ {
				ds := tr.begin("routing.Delta", noSpan)
				var delta []dataplane.RouteUpdate
				for dst := 0; dst < g.N(); dst++ {
					cur := proto.NextHops(dst)
					d, err := routing.Delta(net, dst, prev[dst], cur)
					if err != nil {
						return err
					}
					delta = append(delta, d...)
					prev[dst] = cur
				}
				tr.end(ds, g.N())
				if len(delta) > 0 {
					cy.plan.RoutesAt(epoch, delta)
				}
				if round == churnMaxRounds {
					return fmt.Errorf("cycle %d: routing did not converge in %d rounds", ci, churnMaxRounds)
				}
				ss := tr.begin("routing.Step", noSpan)
				changed := proto.Step()
				tr.end(ss, 1)
				if !changed {
					return nil
				}
				epoch++
			}
		}
		for _, v := range g.Neighbors(x) {
			cy.plan.LinkDownAt(epoch, x, v)
			if err := proto.FailLink(x, v); err != nil {
				return nil, err
			}
		}
		if err := stage(); err != nil {
			return nil, err
		}
		epoch++
		for _, v := range g.Neighbors(x) {
			cy.plan.LinkUpAt(epoch, x, v)
			if err := proto.RestoreLink(x, v); err != nil {
				return nil, err
			}
		}
		if err := stage(); err != nil {
			return nil, err
		}
		epoch++ // one settled epoch closes the cycle
		for e := 0; e <= epoch; e++ {
			cy.epochs = append(cy.epochs, dataplane.ChurnEpoch{Flows: churnEpochFlows(rng, g.N(), x, e)})
		}
		c.cycles = append(c.cycles, cy)
	}
	c.rep = newRepeatCheck(len(c.cycles))
	return c, nil
}

// churnEpochFlows aims half of an epoch's flows at the churning node x
// and spreads the rest over uniformly random pairs.
func churnEpochFlows(rng *xrand.Rand, n, x, epoch int) []dataplane.Flow {
	flows := make([]dataplane.Flow, churnFlows)
	for i := range flows {
		dst := x
		if i%2 == 1 {
			dst = rng.Intn(n)
		}
		src := rng.Intn(n - 1)
		if src >= dst {
			src++
		}
		flows[i] = dataplane.Flow{Src: src, Dst: dst, ID: uint32(epoch*churnFlows + i), TTL: dataplane.InitialTTL, Telemetry: true}
	}
	return flows
}

// runCycle runs one isolate/restore cycle under a fresh oracle and
// checks it.
func (c *churnBench) runCycle(idx int, o *outcome) error {
	cy := c.cycles[idx]
	or := verify.NewOracle(c.net, c.seed, c.aesop)
	res, err := dataplane.RunChurnObserved(c.eng, cy.plan, cy.epochs, or)
	if err != nil {
		return fmt.Errorf("cycle %d (node %d): %w", idx, cy.node, err)
	}
	c.finish(idx, res, or, o)
	return nil
}

// finish finalizes a cycle's oracle and checks the cycle: the oracle must
// explain every detection and miss, and the cycle's totals must repeat
// those of its first run.
func (c *churnBench) finish(idx int, res *dataplane.ChurnResult, or *verify.Oracle, o *outcome) {
	or.Finalize()
	if err := checkOracle(verdictOf(or)); err != nil {
		o.failed += int64(len(or.Violations()) + len(or.Divergences()) + or.Total().FalsePositive)
		o.problem("cycle %d: %v", idx, err)
	}
	t := totals{flows: uint64(res.Flows), hops: res.Hops, reports: res.Reports, disp: res.Dispositions, matrix: or.Total()}
	if err := c.rep.check(idx, t); err != nil {
		o.problem("%v", err)
	}
	if idx == 0 {
		c.kept = or
	}
}

// timed runs cycles round-robin until d has passed and every cycle has
// run at least once. Every cycle starts and ends on the converged FIBs.
// With tr set, every cycle runs traced and its reports are captured.
func (c *churnBench) timed(d time.Duration, tr *tracer, o *outcome) (interval, int64, error) {
	if tr != nil {
		// One engine worker, so the hook is never called concurrently.
		c.net.OnReport = func(ev dataplane.LoopEvent, hop int) {
			if len(c.reports) < churnReportsCap {
				c.reports = append(c.reports, capturedReport{ev, hop})
			}
		}
		defer func() { c.net.OnReport = nil }()
	}
	start := startRegion()
	c.root = tr.begin("churn.timed", noSpan)
	deadline := start.wall.Add(d)
	var ops int64
	for i := 0; ; i++ {
		idx := i % len(c.cycles)
		var err error
		if tr == nil {
			err = c.runCycle(idx, o)
		} else {
			err = c.tracedCycle(idx, tr, o)
		}
		if err != nil {
			return interval{}, ops, err
		}
		for _, e := range c.cycles[idx].epochs {
			ops += int64(len(e.Flows))
		}
		if i+1 >= len(c.cycles) && time.Now().After(deadline) {
			break
		}
	}
	tr.end(c.root, int(ops))
	return between(start, takeSample()), ops, nil
}

func runChurn(seed uint64, d time.Duration, o *outcome) error {
	var c *churnBench
	setupS, setupWall, err := medianSetup(func() (err error) {
		c = nil
		c, err = setupChurn(seed, nil)
		return err
	})
	if err != nil {
		return err
	}
	iv, ops, err := c.timed(d, nil, o)
	if err != nil {
		return err
	}
	o.attempted = ops
	o.e2e.set("setup_s", "s", setupS)
	printSetup(setupS, setupWall)
	o.e2e.set("cpu_us_per_op", "us", iv.cpu.Seconds()*1e6/float64(ops))
	o.e2e.set("heap_mb", "MiB", liveHeapMB())
	o.counts = c.rep.summary()
	fmt.Printf("# timed: %d flows in %.3fs wall, %.3fs cpu, steal %.4f\n", ops, iv.wall.Seconds(), iv.cpu.Seconds(), iv.stealFrac)
	return nil
}

// churnProbeEvery is how often (in epochs) the traced observer also
// times SnapshotState and State.Classify, the two steps EpochStart makes
// internally.
const churnProbeEvery = 8

// tracedObserver wraps the oracle with spans. RunChurnObserved calls it
// at the quiesced epoch boundaries, so the gaps between its callbacks are
// the data plane's: before EpochStart the epoch's faults are applied
// (after the previous epoch's controller tick), and between EpochStart
// and EpochEnd the epoch's traffic runs.
type tracedObserver struct {
	inner   *verify.Oracle
	net     *dataplane.Network
	tr      *tracer
	parent  spanID
	lastEnd int64
	epochs  int
}

func (t *tracedObserver) EpochStart(epoch int, events []dataplane.FaultEvent) error {
	t.tr.add("dataplane.fault", t.parent, t.lastEnd, t.tr.now(), len(events))
	s := t.tr.begin("verify.Oracle.EpochStart", t.parent)
	err := t.inner.EpochStart(epoch, events)
	t.tr.end(s, 1)
	if t.epochs%churnProbeEvery == 0 {
		s = t.tr.begin("verify.SnapshotState", t.parent)
		st := verify.SnapshotState(t.net)
		t.tr.end(s, 1)
		s = t.tr.begin("verify.State.Classify", t.parent)
		st.Classify()
		t.tr.end(s, 1)
	}
	t.epochs++
	t.lastEnd = t.tr.now()
	return err
}

func (t *tracedObserver) EpochEnd(epoch int, sums []dataplane.TraceSummary) error {
	t.tr.add("dataplane.traffic", t.parent, t.lastEnd, t.tr.now(), len(sums))
	s := t.tr.begin("verify.Oracle.EpochEnd", t.parent)
	err := t.inner.EpochEnd(epoch, sums)
	t.tr.end(s, len(sums))
	t.lastEnd = t.tr.now()
	return err
}

// capturedReport is one loop report as it left the data plane.
type capturedReport struct {
	ev  dataplane.LoopEvent
	hop int
}

func tracedChurn(seed uint64, d time.Duration, tr *tracer, o *outcome) (traceStats, error) {
	c, err := setupChurn(seed, tr)
	if err != nil {
		return traceStats{}, err
	}
	u, t, err := alternate(d, tr, func(d time.Duration, tr *tracer) (interval, int64, error) { return c.timed(d, tr, o) })
	if err != nil {
		return traceStats{}, err
	}
	o.attempted += u.ops + t.ops
	o.counts = c.rep.summary()
	p := c.rep.pass()
	o.layer.set("dataplane.loop_frac", "ratio", float64(p.disp[dataplane.DropLoop])/float64(p.flows))
	o.layer.set("dataplane.reports_per_kpkt", "count", float64(p.reports)*1000/float64(p.flows))
	o.layer.set("core.detect_hops_mean", "count", float64(p.matrix.DetectHops)/float64(p.matrix.Confirmed))

	// Retained oracle state: the live heap with and without the kept
	// oracle.
	withOracle := liveHeapMB()
	c.kept = nil
	o.layer.set("verify.retained_mb", "MiB", withOracle-liveHeapMB())
	runtime.KeepAlive(c)

	// Controller cost per report: replay the captured stream into a fresh
	// controller with per-journey dedup windows, as the data plane does.
	ctrl := dataplane.NewControllerWithConfig(controllerConfig())
	var w dataplane.DedupWindow
	s := tr.begin("dataplane.Controller.DeliverFlow", noSpan)
	for i, r := range c.reports {
		if i == 0 || r.ev.Flow != c.reports[i-1].ev.Flow {
			w.Reset()
		}
		ctrl.DeliverFlow(r.ev, &w, r.hop)
	}
	tr.end(s, len(c.reports))

	a := tr.selfTimes()
	ms := func(span string) float64 { return float64(a[span].total) / 1e6 / float64(a[span].count) }
	o.layer.set("dataplane.traffic_ms_per_epoch", "ms", ms("dataplane.traffic"))
	o.layer.set("dataplane.fault_ms_per_epoch", "ms", ms("dataplane.fault"))
	o.layer.set("dataplane.controller_ns_per_report", "ns", a["dataplane.Controller.DeliverFlow"].perOp())
	o.layer.set("verify.epoch_start_ms", "ms", ms("verify.Oracle.EpochStart"))
	o.layer.set("verify.epoch_end_ms", "ms", ms("verify.Oracle.EpochEnd"))
	o.layer.set("verify.finalize_ms", "ms", ms("verify.Oracle.Finalize"))
	o.layer.set("verify.snapshot_ms", "ms", ms("verify.SnapshotState"))
	o.layer.set("verify.classify_ms", "ms", ms("verify.State.Classify"))
	o.layer.set("routing.converge_s", "s", (a["routing.Converge"].total + a["routing.Step"].total).Seconds())
	o.layer.set("routing.delta_s", "s", a["routing.Delta"].total.Seconds())
	cov, _ := tr.coverage(c.root)
	return traceStats{overheadFrac: overheadFrac(u, t), coverage: cov}, nil
}

// tracedCycle is runCycle with spans: the oracle is wrapped in a
// tracedObserver, and the gap after the last epoch (the controller tick
// and result bookkeeping) and Finalize get their own spans.
func (c *churnBench) tracedCycle(idx int, tr *tracer, o *outcome) error {
	s := tr.begin("dataplane.RunChurnObserved", c.root)
	cy := c.cycles[idx]
	or := verify.NewOracle(c.net, c.seed, c.aesop)
	ob := &tracedObserver{inner: or, net: c.net, tr: tr, parent: s, lastEnd: tr.now()}
	res, err := dataplane.RunChurnObserved(c.eng, cy.plan, cy.epochs, ob)
	if err != nil {
		return fmt.Errorf("cycle %d (node %d): %w", idx, cy.node, err)
	}
	tr.add("dataplane.tick", s, ob.lastEnd, tr.now(), 1)
	tr.end(s, res.Flows)
	f := tr.begin("verify.Oracle.Finalize", c.root)
	c.finish(idx, res, or, o)
	tr.end(f, 1)
	return nil
}
