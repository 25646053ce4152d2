package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/unroller/unroller/internal/collectorsvc"
	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/xhash"
	"github.com/unroller/unroller/internal/xrand"
)

// ingest-journal: one collectorsvc client streams loop reports over
// loopback to a journaled collector running collectord's defaults. Set-up
// is a restart over a journal written before the timer started; the
// timed region is a closed loop that keeps the client's window full.
// The data plane is not involved.
const (
	ingestPrep   = 400000 // reports journaled before the restarts (4 segments)
	ingestGroup  = 64     // reports sent between pacing checks
	ingestWindow = collectorsvc.DefaultClientWindow
	ingestPoll   = 20 * time.Microsecond // waits sleep: spinning starves the netpoller
	ingestRate   = 5000                  // open-loop reports/s, far below saturation
	ingestDrain  = 20 * time.Second      // bound on waiting for acks
)

// collectordController is the per-shard controller configuration of
// collectord's defaults (-max-events, -dedup 8).
func collectordController() dataplane.ControllerConfig {
	return dataplane.ControllerConfig{MaxEvents: dataplane.DefaultMaxEvents, DedupWindow: 8}
}

// ingestEvent is one captured loop report.
type ingestEvent struct {
	ev  dataplane.LoopEvent
	hop int
}

type ingestBench struct {
	seed    uint64
	dir     string
	events  []ingestEvent
	sent    uint64 // reports handed to clients so far, over every phase
	written uint64 // journal records preparation wrote

	j      *collectorsvc.Journal
	srv    *collectorsvc.Server
	client *collectorsvc.Client
	rec    collectorsvc.RecoveryStats
	// The current server's first live report, its shards' queue drops
	// and controller totals when it became ready, and its merged
	// controller totals then and, once it stopped, its final ones.
	k0          uint64
	qs0         []collectorsvc.ShardQueueStats
	shards0     []dataplane.ControllerStats
	ctrl0, ctrl dataplane.ControllerStats
	nextID      uint64
	layers      *ingestLayers // traced runs only
}

// ingestEvents captures the report stream of one pass over the seed's
// churn-microloop cycles, as it leaves the data plane (OnReport). The
// churn run's output checks apply to the capture too. The churn data
// plane drops a packet at its first loop report, so each journey (one
// flow's trip in one epoch) raises one report; the capture checks it.
func ingestEvents(seed uint64, o *outcome) ([]ingestEvent, error) {
	c, err := setupChurn(seed, nil)
	if err != nil {
		return nil, err
	}
	var evs []ingestEvent
	repeats := 0
	// One engine worker, so each flow's reports arrive together and the
	// hook is never called concurrently.
	c.net.OnReport = func(ev dataplane.LoopEvent, hop int) {
		if len(evs) > 0 && ev.Flow == evs[len(evs)-1].ev.Flow {
			repeats++
		}
		evs = append(evs, ingestEvent{ev: ev, hop: hop})
	}
	for idx := range c.cycles {
		if err := c.runCycle(idx, o); err != nil {
			return nil, err
		}
	}
	if len(evs) == 0 {
		return nil, fmt.Errorf("churn capture raised no loop reports")
	}
	if repeats > 0 {
		o.problem("churn capture: %d journeys raised a second report under ActionDrop", repeats)
	}
	return evs, nil
}

// The collector's defaults that the stream is dealt against: collectord
// runs DefaultShards shards, and each clears its per-flow dedup map when
// it holds DefaultMaxFlows flows.
const (
	ingestShards   = collectorsvc.DefaultShards
	ingestMaxFlows = collectorsvc.DefaultMaxFlows
)

// flowID is the flow ID of the stream's k-th report (its journey's). IDs
// are fresh, and chosen so that the collector's shard hash (the keyed
// Mix32 of the flow, modulo the shard count) deals them to the shards
// round-robin. Every shard's dedup map then fills and clears in step
// with the others, and the closed loop can stop at a fixed point of that
// cycle (midCycle), which keeps heap_mb steady.
func flowID(k uint64) uint32 {
	const span = 128 // candidates per round; (3/4)^128 that none fits
	class := uint32(k % ingestShards)
	base := uint32(k/ingestShards) * span
	for j := uint32(0); j < span; j++ {
		if f := base + j; xhash.Mix32(f)%ingestShards == class {
			return f
		}
	}
	panic(fmt.Sprintf("no flow ID for shard %d in [%d, %d)", class, base, base+span))
}

// send hands the client the next report of the stream: the captured
// reports played over and over, each with a flow ID of its own, so the
// collector sees a repeat within a flow's dedup window only where the
// data plane raised one.
func (b *ingestBench) send() {
	ev, hop := b.report(b.sent)
	b.client.Send(ev, hop)
	b.sent++
}

// report returns the stream's k-th report and its hop count.
func (b *ingestBench) report(k uint64) (dataplane.LoopEvent, int) {
	e := &b.events[k%uint64(len(b.events))]
	ev := e.ev
	ev.Flow = flowID(k)
	return ev, e.hop
}

// midCycle returns the smallest report count, at least b.sent, at which
// every shard of the current server has its dedup map half full. The
// server has taken the journal's reports 0..ingestPrep-1 (recovery
// restores the dedup windows of the journal's snapshot and replays the
// rest) and the live ones from k0 on, dealt round-robin, so each shard
// has had ingestPrep/shards + live/shards flows once live is a multiple
// of the shard count.
func (b *ingestBench) midCycle() uint64 {
	const base = ingestPrep / ingestShards
	live := (b.sent - b.k0 + ingestShards - 1) / ingestShards // per shard, rounded up
	want := uint64(ingestMaxFlows / 2)
	phase := (base + live) % ingestMaxFlows
	live += (want - phase + ingestMaxFlows) % ingestMaxFlows
	return b.k0 + live*ingestShards
}

// settle brings the collector to the point heap_mb is measured at. Once
// every report is acked, it waits for the shards to take them all. A
// report that a full shard queue shed never got a dedup window, so settle
// sends as many more reports and waits again, until the shards hold a
// window for every report midCycle dealt. It then checks that the shard
// hash dealt the reports round-robin; a miss (the hash changed, say)
// makes heap_mb noisy but not wrong, so it is printed rather than failed.
func (b *ingestBench) settle() error {
	for shed := uint64(0); ; {
		if err := b.drain(); err != nil {
			return err
		}
		dealt, dropped, err := b.shardsTook(b.sent - b.k0)
		if err != nil {
			return err
		}
		if dropped == shed {
			for i, n := range dealt {
				if want := (b.sent - b.k0) / ingestShards; n < want || n > want+1 {
					fmt.Printf("# note: shard %d was dealt %d live reports, not %d: heap_mb is off the mid-cycle point\n", i, n, want)
				}
			}
			return nil
		}
		for ; shed < dropped; shed++ {
			if (dropped-shed)%ingestGroup == 0 {
				b.waitRoom(b.client.Pending())
			}
			b.send()
		}
	}
}

// shardsTook waits until the shards have taken live reports since the
// server became ready, delivered or shed, and returns how many each was
// dealt and how many reports they shed in all.
func (b *ingestBench) shardsTook(live uint64) (dealt []uint64, dropped uint64, err error) {
	deadline := time.Now().Add(ingestDrain)
	for {
		dealt, dropped = dealt[:0], 0
		var sum uint64
		shards, qs := b.srv.ShardStats(), b.srv.QueueStats()
		for i := range shards {
			d := qs[i].Dropped - qs[i].SheddedTicks - (b.qs0[i].Dropped - b.qs0[i].SheddedTicks)
			n := shards[i].Delivered - b.shards0[i].Delivered + d
			dealt = append(dealt, n)
			dropped += d
			sum += n
		}
		if sum >= live {
			return dealt, dropped, nil
		}
		if time.Now().After(deadline) {
			return nil, 0, fmt.Errorf("shards took %d of %d reports within %v", sum, live, ingestDrain)
		}
		time.Sleep(ingestPoll)
	}
}

// start opens the journal in dir, replays it into a server, starts the
// server on loopback and connects a fresh client, returning once the
// client's first report is acked: restart-to-ready.
func (b *ingestBench) start(dir string, tr *tracer) error {
	s := tr.begin("collectorsvc.OpenJournal", noSpan)
	j, err := collectorsvc.OpenJournal(collectorsvc.JournalConfig{Dir: dir})
	tr.end(s, 1)
	if err != nil {
		return err
	}
	s = tr.begin("collectorsvc.NewRecoveredServer", noSpan)
	srv, rec, err := collectorsvc.NewRecoveredServer(collectorsvc.ServerConfig{
		Journal:    j,
		Controller: collectordController(),
	})
	tr.end(s, int(rec.Records))
	if err != nil {
		j.Close()
		return err
	}
	s = tr.begin("collectorsvc.Server.Start", noSpan)
	addr, err := srv.Start("127.0.0.1:0")
	tr.end(s, 1)
	if err != nil {
		srv.Shutdown()
		j.Close()
		return err
	}
	b.nextID++
	c, err := collectorsvc.NewClient(collectorsvc.ClientConfig{
		Addr: addr.String(),
		ID:   xrand.Mix3(b.seed, b.nextID, 0x636c69656e74) | 1,
		Seed: b.seed,
	})
	if err != nil {
		srv.Shutdown()
		j.Close()
		return err
	}
	b.j, b.srv, b.client, b.rec = j, srv, c, rec
	b.k0, b.qs0, b.shards0, b.ctrl0 = b.sent, srv.QueueStats(), srv.ShardStats(), srv.ControllerStats()
	s = tr.begin("bench.first_ack", noSpan)
	b.send()
	err = b.drain()
	tr.end(s, 1)
	return err
}

// stop closes the client, drains the server and closes the journal, and
// checks the client's accounting.
func (b *ingestBench) stop() error {
	if b.client == nil {
		return nil
	}
	cerr := b.client.Close()
	st := b.client.Stats()
	b.srv.Shutdown()
	b.ctrl = b.srv.ControllerStats()
	jerr := b.j.Close()
	b.client, b.srv, b.j = nil, nil, nil
	if cerr != nil {
		return fmt.Errorf("close client: %w", cerr)
	}
	if jerr != nil {
		return fmt.Errorf("close journal: %w", jerr)
	}
	return checkClient(st)
}

// drain waits until every report handed to the client is acked (or
// dropped, which the checks count as a failure).
func (b *ingestBench) drain() error {
	deadline := time.Now().Add(ingestDrain)
	for {
		st := b.client.Stats()
		if st.Acked+st.Dropped >= st.Enqueued {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("reports not acked within %v: %+v", ingestDrain, st)
		}
		time.Sleep(ingestPoll)
	}
}

// prepareIngest writes the journal the set-up restarts from. The caller
// owns the returned bench and must close it.
func prepareIngest(seed uint64, o *outcome) (b *ingestBench, err error) {
	evs, err := ingestEvents(seed, o)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(runDir, "ingest-journal-")
	if err != nil {
		return nil, err
	}
	b = &ingestBench{seed: seed, dir: dir, events: evs}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	if err := b.start(filepath.Join(dir, "base"), nil); err != nil {
		return b, err
	}
	for i := 1; i < ingestPrep; i++ {
		if i%ingestGroup == 0 {
			b.waitRoom(b.client.Pending())
		}
		b.send()
	}
	if err := b.drain(); err != nil {
		return b, err
	}
	b.written = b.j.Stats().Appends
	return b, b.stop()
}

// acceptedFrac is the share of the reports the stopped server received
// live (not replayed from the journal) that its controllers accepted
// rather than deduplicated.
func (b *ingestBench) acceptedFrac() float64 {
	return float64(b.ctrl.Accepted-b.ctrl0.Accepted) / float64(b.ctrl.Delivered-b.ctrl0.Delivered)
}

// close stops the server, if one runs, and removes the journals.
func (b *ingestBench) close() {
	_ = b.stop() // the run's outcome was decided before close
	os.RemoveAll(b.dir)
}

// waitRoom blocks until the client, with p reports pending, has room
// for another group within its window.
func (b *ingestBench) waitRoom(p int) {
	for ; p > ingestWindow-ingestGroup; p = b.client.Pending() {
		time.Sleep(ingestPoll)
	}
}

// restart copies the prepared journal and starts a server over the copy,
// timing only the start.
func (b *ingestBench) restart(rep int, tr *tracer) (interval, error) {
	if err := b.stop(); err != nil {
		return interval{}, err
	}
	dir := filepath.Join(b.dir, fmt.Sprintf("run%d", rep))
	if err := copyDir(filepath.Join(b.dir, "base"), dir); err != nil {
		return interval{}, err
	}
	runtime.GC()
	start := takeSample()
	if err := b.start(dir, tr); err != nil {
		return interval{}, err
	}
	return between(start, takeSample()), nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// closedLoop streams reports for d, keeping at most the client's window
// outstanding, then waits for the last ack. Ops are acked reports.
func (b *ingestBench) closedLoop(d time.Duration, tr *tracer) (interval, int64, error) {
	var l *ingestLayers
	if tr != nil {
		if b.layers == nil {
			b.layers = &ingestLayers{}
		}
		l = b.layers
	}
	base := b.client.Stats()
	start := startRegion()
	root := tr.begin("ingest.timed", noSpan)
	deadline := start.wall.Add(d)
	i := 0
	for g := 0; ; g++ {
		s := tr.begin("collectorsvc.Client.Pending", root)
		backlog := b.client.Pending()
		tr.end(s, 1)
		s = tr.begin("bench.wait.pace", root)
		b.waitRoom(backlog)
		tr.end(s, 1)
		s = tr.begin("collectorsvc.Client.Send", root)
		for k := 0; k < ingestGroup; k++ {
			b.send()
		}
		i += ingestGroup
		tr.end(s, ingestGroup)
		if l != nil {
			l.sample(g, backlog, b, tr, root)
		}
		if time.Now().After(deadline) {
			break
		}
	}
	s := tr.begin("bench.wait.drain", root)
	err := b.drain()
	tr.end(s, 1)
	tr.end(root, i)
	iv := between(start, takeSample())
	if l != nil {
		l.root = root
	}
	return iv, int64(b.client.Stats().Acked - base.Acked), err
}

// fillToMidCycle sends on, untimed, to the next point where every shard's
// dedup map is half full (midCycle: at most 4×65536 reports).
func (b *ingestBench) fillToMidCycle() {
	for stop := b.midCycle(); b.sent < stop; {
		b.waitRoom(b.client.Pending())
		for n := min(ingestGroup, stop-b.sent); n > 0; n-- {
			b.send()
		}
	}
}

func runIngest(seed uint64, d time.Duration, o *outcome) error {
	b, err := prepareIngest(seed, o)
	if err != nil {
		return err
	}
	defer b.close()
	var cpu, wall []float64
	for rep := 0; rep < setupReps; rep++ {
		iv, err := b.restart(rep, nil)
		if err != nil {
			return err
		}
		cpu = append(cpu, iv.cpu.Seconds())
		wall = append(wall, iv.wall.Seconds())
		if err := checkRecovery(b.rec.Records, b.written); err != nil {
			o.problem("%v", err)
		}
	}
	qd0 := b.srv.Stats().QueueDropped
	iv, ops, err := b.closedLoop(d, nil)
	if err != nil {
		return err
	}
	b.fillToMidCycle()
	if err := b.settle(); err != nil {
		return err
	}
	heap := liveHeapMB()
	qd := b.srv.Stats().QueueDropped - qd0
	st := b.client.Stats()
	o.attempted = int64(st.Enqueued)
	o.failed += int64(st.Dropped)
	if err := b.stop(); err != nil {
		o.problem("%v", err)
	}
	o.e2e.set("setup_s", "s", median(cpu))
	printSetup(median(cpu), median(wall))
	o.e2e.set("cpu_us_per_op", "us", iv.cpu.Seconds()*1e6/float64(ops))
	o.e2e.set("heap_mb", "MiB", heap)
	o.counts = fmt.Sprintf("written=%d recovered=%d", b.written, b.rec.Records)
	fmt.Printf("# stream: %d captured reports; the controllers accepted %.4f of the reports they got; shard queues shed %d\n",
		len(b.events), b.acceptedFrac(), qd)
	fmt.Printf("# timed: %d reports in %.3fs wall, %.3fs cpu, steal %.4f\n", ops, iv.wall.Seconds(), iv.cpu.Seconds(), iv.stealFrac)
	return nil
}

// ingestLayers collects the traced closed loop's samples and probes.
type ingestLayers struct {
	backlog, depth []float64
	root           spanID
	buf            []byte
	ctrl           *dataplane.Controller
	windows        []dataplane.DedupWindow
	batch          []dataplane.FlowDelivery
	evs            []ingestEvent
}

// ingestProbeEvery is how often (in send groups) the traced loop samples
// the shard queues and times the wire codec and the controller on the
// group of reports it has just sent.
const ingestProbeEvery = 16

func (l *ingestLayers) sample(g, backlog int, b *ingestBench, tr *tracer, parent spanID) {
	l.backlog = append(l.backlog, float64(backlog))
	if g%ingestProbeEvery != 0 {
		return
	}
	s := tr.begin("collectorsvc.Server.QueueStats", parent)
	for _, q := range b.srv.QueueStats() {
		l.depth = append(l.depth, float64(q.Depth))
	}
	tr.end(s, 1)
	evs := l.evs[:0]
	for k := b.sent - ingestGroup; k < b.sent; k++ {
		ev, hop := b.report(k)
		evs = append(evs, ingestEvent{ev: ev, hop: hop})
	}
	l.evs = evs
	s = tr.begin("collectorsvc.AppendReport", parent)
	buf := l.buf[:0]
	for k, e := range evs {
		var err error
		if buf, err = collectorsvc.AppendReport(buf, uint64(k+1), e.ev, e.hop); err != nil {
			panic(err) // the data plane raised these reports, so they encode
		}
	}
	tr.end(s, len(evs))
	l.buf = buf
	s = tr.begin("collectorsvc.DecodeFrame", parent)
	n := 0
	for rest := buf; len(rest) > 0; n++ {
		_, used, err := collectorsvc.DecodeFrame(rest)
		if err != nil {
			panic(err) // AppendReport's output always decodes
		}
		rest = rest[used:]
	}
	tr.end(s, n)
	// Every flow of the stream is fresh, so a collector shard hands each
	// report a new dedup window; so does the probe.
	if l.ctrl == nil {
		l.ctrl = dataplane.NewControllerWithConfig(collectordController())
		l.windows = make([]dataplane.DedupWindow, ingestGroup)
	}
	l.batch = l.batch[:0]
	for k, e := range evs {
		l.windows[k].Reset()
		l.batch = append(l.batch, dataplane.FlowDelivery{Ev: e.ev, W: &l.windows[k], Hop: e.hop})
	}
	s = tr.begin("dataplane.Controller.DeliverFlowBatch", parent)
	l.ctrl.DeliverFlowBatch(l.batch)
	tr.end(s, len(l.batch))
}

// openLoop sends reports at ingestRate for d, each due at a fixed time
// whether or not earlier ones were acked, and measures each report from
// when it was due to when its ack was seen (acks are cumulative, so
// report k is acked once the acked count passes k). It returns latencies
// and how late the generator sent, in ms.
func (b *ingestBench) openLoop(d time.Duration) (lat, lag []float64, err error) {
	n := int(d.Seconds() * ingestRate)
	every := time.Second / ingestRate
	base := b.client.Stats().Acked
	due := make([]time.Time, n)
	lat = make([]float64, 0, n)
	t0 := time.Now().Add(time.Millisecond)
	seen := func(now time.Time) {
		acked := int(b.client.Stats().Acked - base)
		for len(lat) < acked && len(lat) < n {
			lat = append(lat, float64(now.Sub(due[len(lat)]))/1e6)
		}
	}
	for i := 0; i < n; {
		now := time.Now()
		seen(now)
		due[i] = t0.Add(time.Duration(i) * every)
		if now.Before(due[i]) {
			// Yield instead of sleeping: a sub-millisecond sleep on an
			// idle thread lasts about a millisecond, which would swamp
			// the ack latencies being measured.
			runtime.Gosched()
			continue
		}
		lag = append(lag, float64(now.Sub(due[i]))/1e6)
		b.send()
		i++
	}
	deadline := time.Now().Add(ingestDrain)
	for len(lat) < n {
		now := time.Now()
		if now.After(deadline) {
			return lat, lag, fmt.Errorf("open loop: %d of %d reports acked within %v", len(lat), n, ingestDrain)
		}
		seen(now)
		runtime.Gosched()
	}
	return lat, lag, nil
}

func tracedIngest(seed uint64, d time.Duration, tr *tracer, o *outcome) (traceStats, error) {
	b, err := prepareIngest(seed, o)
	if err != nil {
		return traceStats{}, err
	}
	defer b.close()
	if _, err := b.restart(0, tr); err != nil {
		return traceStats{}, err
	}
	if err := checkRecovery(b.rec.Records, b.written); err != nil {
		o.problem("%v", err)
	}
	a := tr.selfTimes()
	o.layer.set("collectorsvc.recovery_open_s", "s", a["collectorsvc.OpenJournal"].total.Seconds())
	o.layer.set("collectorsvc.recovery_replay_s", "s", a["collectorsvc.NewRecoveredServer"].total.Seconds())
	o.layer.set("collectorsvc.recovered_records", "count", float64(b.rec.Records))

	// Two thirds of the time go to the closed loop, alternating untraced
	// and traced segments; the last third to the open loop.
	js0, ss0 := b.j.Stats(), b.srv.Stats()
	u, t, err := alternate(2*d/3, tr, b.closedLoop)
	if err != nil {
		return traceStats{}, err
	}
	js1 := b.j.Stats()
	o.layer.set("collectorsvc.allocs_per_report", "count", float64(u.allocs)/float64(u.ops))
	o.layer.set("collectorsvc.journal_appends_per_report", "count", float64(js1.Appends-js0.Appends)/float64(u.ops+t.ops))
	o.layer.set("collectorsvc.ops_per_s", "1/s", float64(u.ops)/u.wall.Seconds())
	lat, lag, err := b.openLoop(d / 3)
	if err != nil {
		return traceStats{}, err
	}
	js2, ss2 := b.j.Stats(), b.srv.Stats()
	st := b.client.Stats()
	o.attempted += int64(st.Enqueued)
	o.failed += int64(st.Dropped)
	if err := b.stop(); err != nil {
		o.problem("%v", err)
	}

	a = tr.selfTimes()
	o.layer.set("collectorsvc.client_send_ns", "ns", a["collectorsvc.Client.Send"].perOp())
	o.layer.set("collectorsvc.wire_encode_ns", "ns", a["collectorsvc.AppendReport"].perOp())
	o.layer.set("collectorsvc.wire_decode_ns", "ns", a["collectorsvc.DecodeFrame"].perOp())
	o.layer.set("collectorsvc.controller_ns_per_report", "ns", a["dataplane.Controller.DeliverFlowBatch"].perOp())
	o.layer.set("collectorsvc.rotations", "count", float64(js2.Rotations-js0.Rotations))
	l := b.layers
	o.layer.set("collectorsvc.client_backlog_p50", "count", median(l.backlog))
	o.layer.set("collectorsvc.client_backlog_max", "count", maxOf(l.backlog))
	o.layer.set("collectorsvc.shard_depth_p50", "count", median(l.depth))
	o.layer.set("collectorsvc.shard_depth_max", "count", maxOf(l.depth))
	o.layer.set("collectorsvc.retransmits", "count", float64(st.Retransmits))
	o.layer.set("collectorsvc.dupes", "count", float64(ss2.Dupes-ss0.Dupes))
	o.layer.set("collectorsvc.queue_dropped", "count", float64(ss2.QueueDropped-ss0.QueueDropped))
	o.layer.set("collectorsvc.client_dropped", "count", float64(st.Dropped))
	o.layer.set("collectorsvc.accepted_frac", "ratio", b.acceptedFrac())
	p50, lt, ok := tailOf(lat)
	if !ok {
		return traceStats{}, fmt.Errorf("open loop: only %d latency samples", len(lat))
	}
	o.layer.set("latency_p50_ms", "ms", p50)
	o.layer.set("latency_tail_ms", "ms", lt.value)
	o.layer.set("latency_tail_pct", "%", lt.pct)
	o.layer.set("latency_samples", "count", float64(lt.n))
	_, lagTail, _ := tailOf(lag)
	o.layer.set("bench.generator_lag_ms", "ms", lagTail.value)
	o.counts = fmt.Sprintf("written=%d recovered=%d", b.written, b.rec.Records)

	cov, wait := tr.coverage(l.root)
	o.layer.set("collectorsvc.ack_wait_frac", "ratio", wait)
	return traceStats{overheadFrac: overheadFrac(u, t), coverage: cov}, nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
