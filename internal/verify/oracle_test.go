package verify

import (
	"reflect"
	"strings"
	"testing"

	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
	"github.com/unroller/unroller/internal/topology"
	"github.com/unroller/unroller/internal/xrand"
)

// testNet builds a ring network with shortest paths installed towards
// dst 0 — the minimal live network the mirror can track.
func testNet(t *testing.T, nodes int) *dataplane.Network {
	t.Helper()
	g, err := topology.Ring(nodes)
	if err != nil {
		t.Fatal(err)
	}
	net, err := dataplane.NewNetwork(g, topology.NewAssignment(g, xrand.New(1)), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := net.InstallShortestPaths(0); err != nil {
		t.Fatal(err)
	}
	return net
}

// TestMirrorClearThenReinstallSameBatch is the regression for the
// staleness bug class routing.Delta exposes: one FaultRoutes batch may
// Clear a (node, dst) route and re-install it later in the same batch,
// and the mirror must apply the updates strictly in order — any
// per-batch coalescing (dedup by key, Clears processed as their own
// pass) leaves the incremental view stale where the network ends up
// routed.
func TestMirrorClearThenReinstallSameBatch(t *testing.T) {
	net := testNet(t, 6)
	m := NewMirror(net)
	dstID := net.Assign.ID(0)
	port, ok := net.Switch(3).Route(dstID)
	if !ok {
		t.Fatal("node 3 has no route to dst 0")
	}
	peer := net.Switch(3).Peer(port)

	ev := dataplane.FaultEvent{Kind: dataplane.FaultRoutes, Routes: []dataplane.RouteUpdate{
		{Node: 3, Dst: dstID, Clear: true},
		{Node: 3, Dst: dstID, Port: port},
	}}
	if err := net.ApplyFault(ev); err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(ev); err != nil {
		t.Fatal(err)
	}
	if got := m.State().Next(0, 3); got != peer {
		t.Errorf("clear+reinstall in one batch: mirror next = %d, want %d (stale view)", got, peer)
	}
	if !m.State().Equal(SnapshotState(net)) {
		t.Error("mirror diverged from from-scratch snapshot after clear+reinstall batch")
	}

	// The mirrored order also matters the other way: install then clear
	// must end cleared.
	ev = dataplane.FaultEvent{Kind: dataplane.FaultRoutes, Routes: []dataplane.RouteUpdate{
		{Node: 3, Dst: dstID, Port: port},
		{Node: 3, Dst: dstID, Clear: true},
	}}
	if err := net.ApplyFault(ev); err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(ev); err != nil {
		t.Fatal(err)
	}
	if got := m.State().Next(0, 3); got != -1 {
		t.Errorf("install+clear in one batch: mirror next = %d, want -1", got)
	}
	if !m.State().Equal(SnapshotState(net)) {
		t.Error("mirror diverged from from-scratch snapshot after install+clear batch")
	}
}

// TestMirrorTracksEventSequence pins incremental ≡ from-scratch after
// every kind of fault event, applied to network and mirror in lockstep.
func TestMirrorTracksEventSequence(t *testing.T) {
	net := testNet(t, 8)
	m := NewMirror(net)
	if !m.State().Equal(SnapshotState(net)) {
		t.Fatal("fresh mirror diverges from snapshot")
	}
	dstID := net.Assign.ID(0)
	portTo := func(u, v int) dataplane.PortID {
		p, err := net.PortTo(u, v)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	events := []dataplane.FaultEvent{
		{Kind: dataplane.FaultLinkDown, U: 0, V: 1},
		{Kind: dataplane.FaultRoutes, Routes: []dataplane.RouteUpdate{
			{Node: 1, Dst: dstID, Port: portTo(1, 2)}, // stale detour: 1 points away from 0
			{Node: 2, Dst: dstID, Port: portTo(2, 1)}, // closing a {1,2} loop
		}},
		{Kind: dataplane.FaultRestart, Node: 4},
		{Kind: dataplane.FaultLinkUp, U: 0, V: 1},
		{Kind: dataplane.FaultRoutes, Routes: []dataplane.RouteUpdate{
			{Node: 1, Dst: dstID, Port: portTo(1, 0)},
			{Node: 2, Dst: dstID, Clear: true},
		}},
		{Kind: dataplane.FaultCorruption, Prob: 0.5, Seed: 9},
		{Kind: dataplane.FaultControllerReset},
	}
	for i, ev := range events {
		if err := net.ApplyFault(ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if err := m.Apply(ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !m.State().Equal(SnapshotState(net)) {
			t.Fatalf("after event %d (%s): mirror diverged from from-scratch snapshot", i, ev)
		}
		if i == 1 {
			// The loop the detour batch just closed must be visible.
			r := m.State().ClassifyDst(0)
			if r.Outcome[1] != OutcomeLoop || r.Outcome[2] != OutcomeLoop || r.LoopLen[1] != 2 {
				t.Errorf("detour loop not classified: node1=%v node2=%v len=%d", r.Outcome[1], r.Outcome[2], r.LoopLen[1])
			}
		}
	}
	// After the healing batch the loop is gone: node 1 delivers, node 2
	// has no route.
	r := m.State().ClassifyDst(0)
	if r.Outcome[1] != OutcomeDeliver || r.Outcome[2] != OutcomeNoRoute {
		t.Errorf("healed state misclassified: node1=%v node2=%v", r.Outcome[1], r.Outcome[2])
	}
}

// TestOracleConfirmsInjectedLoop runs a minimal churn by hand: a loop
// injected at epoch 0 traffic must reconcile as confirmed, and a blind
// flow over the same loop as missed-blind.
func TestOracleConfirmsInjectedLoop(t *testing.T) {
	net := testNet(t, 6)
	net.SetLoopPolicy(dataplane.ActionDrop)
	if err := net.InjectLoop(0, topology.Cycle{2, 3}); err != nil {
		t.Fatal(err)
	}
	oracle := NewOracle(net, 42, Aesoplike{})
	eng := dataplane.NewTrafficEngine(net, 2)
	epochs := []dataplane.ChurnEpoch{{Flows: []dataplane.Flow{
		{Src: 2, Dst: 0, ID: 1, TTL: dataplane.InitialTTL, Telemetry: true},
		{Src: 2, Dst: 0, ID: 2, TTL: dataplane.InitialTTL, Telemetry: false},
		{Src: 5, Dst: 0, ID: 3, TTL: dataplane.InitialTTL, Telemetry: true},
	}}}
	if _, err := dataplane.RunChurnObserved(eng, nil, epochs, oracle); err != nil {
		t.Fatal(err)
	}
	oracle.Finalize()
	total := oracle.Total()
	if total.Confirmed != 1 || total.MissedBlind != 1 || total.Clean != 1 {
		t.Errorf("matrix = %+v, want confirmed=1 missed-blind=1 clean=1", total)
	}
	if total.BaseConfirmed != 1 || total.BaseBlind != 1 {
		t.Errorf("baseline columns = confirmed %d blind %d, want 1/1", total.BaseConfirmed, total.BaseBlind)
	}
	if len(oracle.Violations()) != 0 {
		t.Errorf("violations: %v", oracle.Violations())
	}
	if len(oracle.Divergences()) != 0 {
		t.Errorf("divergences: %v", oracle.Divergences())
	}
	if oracle.Unexplained() {
		t.Error("clean run flagged unexplained")
	}
	var b strings.Builder
	oracle.Render(&b)
	for _, want := range []string{"oracle (static truth", "bound violations: 0", "mirror divergences: 0", "baseline"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("render missing %q:\n%s", want, b.String())
		}
	}
}

// Aesoplike is a minimal exact in-band detector for oracle tests: it
// remembers the first switch visited and reports when it reappears —
// enough to confirm any loop entered on the first hop.
type Aesoplike struct{}

func (Aesoplike) Name() string                { return "first-id" }
func (Aesoplike) BitOverhead(maxHops int) int { return 32 }
func (Aesoplike) NewState() detect.State      { return &firstIDState{} }

type firstIDState struct {
	first detect.SwitchID
	has   bool
}

func (s *firstIDState) Visit(id detect.SwitchID) detect.Verdict {
	if s.has && id == s.first {
		return detect.Loop
	}
	if !s.has {
		s.first = id
		s.has = true
	}
	return detect.Continue
}

// torusNet builds a 4×4 torus with shortest paths installed towards
// every destination.
func torusNet(t *testing.T) *dataplane.Network {
	t.Helper()
	g, err := topology.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	net, err := dataplane.NewNetwork(g, topology.NewAssignment(g, xrand.New(3)), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < g.N(); d++ {
		if err := net.InstallShortestPaths(d); err != nil {
			t.Fatal(err)
		}
	}
	net.SetLoopPolicy(dataplane.ActionDrop)
	return net
}

// truthCheck wraps an Oracle and, at every epoch, checks the truth its
// incremental reclassification produced against a full classification
// of a from-scratch snapshot.
type truthCheck struct {
	t   *testing.T
	o   *Oracle
	net *dataplane.Network
}

func (c *truthCheck) EpochStart(epoch int, events []dataplane.FaultEvent) error {
	if err := c.o.EpochStart(epoch, events); err != nil {
		return err
	}
	if !reflect.DeepEqual(c.o.epochs[len(c.o.epochs)-1].truth, SnapshotState(c.net).Classify()) {
		c.t.Errorf("epoch %d: incremental truth differs from a full classification of a fresh snapshot", epoch)
	}
	return nil
}

func (c *truthCheck) EpochEnd(epoch int, sums []dataplane.TraceSummary) error {
	return c.o.EpochEnd(epoch, sums)
}

// TestOracleIncrementalTruth drives an oracle through a torus churn run
// with route deltas, a link flap and a restart: at every epoch its
// truth must deep-equal a from-scratch classification, an epoch without
// events must reuse every report, and a route delta for one destination
// must reclassify that destination alone.
func TestOracleIncrementalTruth(t *testing.T) {
	net := torusNet(t)
	port := func(u, v int) dataplane.PortID {
		p, err := net.PortTo(u, v)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	dst0 := net.Assign.ID(0)
	plan := &dataplane.FaultPlan{}
	plan.RoutesAt(1, []dataplane.RouteUpdate{ // a 5↔6 loop towards node 0
		{Node: 5, Dst: dst0, Port: port(5, 6)},
		{Node: 6, Dst: dst0, Port: port(6, 5)},
	})
	plan.LinkDownAt(2, 1, 2)
	// Epoch 3 has no events.
	plan.RestartAt(4, 10)
	plan.LinkUpAt(5, 1, 2)
	plan.RoutesAt(5, []dataplane.RouteUpdate{
		{Node: 6, Dst: dst0, Clear: true},
		{Node: 6, Dst: dst0, Port: port(6, 2)},
	})
	const epochs = 7
	var flows []dataplane.ChurnEpoch
	for e := 0; e < epochs; e++ {
		var ep dataplane.ChurnEpoch
		for src := 0; src < net.Graph.N(); src++ {
			for _, dst := range []int{0, 15} {
				ep.Flows = append(ep.Flows, dataplane.Flow{
					Src: src, Dst: dst, ID: uint32(len(ep.Flows) + 100*e),
					TTL: dataplane.InitialTTL, Telemetry: true,
				})
			}
		}
		flows = append(flows, ep)
	}
	oracle := NewOracle(net, 7, Aesoplike{})
	check := &truthCheck{t: t, o: oracle, net: net}
	if _, err := dataplane.RunChurnObserved(dataplane.NewTrafficEngine(net, 2), plan, flows, check); err != nil {
		t.Fatal(err)
	}
	oracle.Finalize()
	if len(oracle.Divergences()) != 0 {
		t.Errorf("divergences: %v", oracle.Divergences())
	}
	if oracle.Total().Confirmed == 0 {
		t.Error("the injected 5↔6 loop was never confirmed")
	}

	// reused reports which destinations' reports epoch e shares with
	// epoch e-1.
	reused := func(e int) []bool {
		out := make([]bool, net.Graph.N())
		for d := range out {
			out[d] = oracle.epochs[e].truth[d] == oracle.epochs[e-1].truth[d]
		}
		return out
	}
	for d, same := range reused(3) {
		if !same {
			t.Errorf("epoch 3 has no events but reclassified destination %d", d)
		}
	}
	for d, same := range reused(1) {
		if same == (d == 0) {
			t.Errorf("epoch 1 updates routes towards node 0 only; destination %d reused = %v", d, same)
		}
	}
	for d, same := range reused(6) {
		if !same {
			t.Errorf("epoch 6 has no events but reclassified destination %d", d)
		}
	}
}

// TestOracleClearOfUnknownDestination: the network treats a Clear for
// an identifier outside its assignment as a no-op, so the mirror must
// too — the run completes with no observer error and no divergence.
func TestOracleClearOfUnknownDestination(t *testing.T) {
	net := testNet(t, 6)
	unknown := detect.SwitchID(1)
	for net.Assign.Node(unknown) >= 0 {
		unknown++
	}
	plan := &dataplane.FaultPlan{}
	plan.RoutesAt(1, []dataplane.RouteUpdate{{Node: 2, Dst: unknown, Clear: true}})
	oracle := NewOracle(net, 1, nil)
	epochs := []dataplane.ChurnEpoch{{}, {Flows: []dataplane.Flow{
		{Src: 3, Dst: 0, ID: 1, TTL: dataplane.InitialTTL, Telemetry: true},
	}}}
	if _, err := dataplane.RunChurnObserved(dataplane.NewTrafficEngine(net, 1), plan, epochs, oracle); err != nil {
		t.Fatal(err)
	}
	oracle.Finalize()
	if len(oracle.Divergences()) != 0 {
		t.Errorf("divergences: %v", oracle.Divergences())
	}
	if oracle.Unexplained() {
		t.Error("no-op Clear left the run unexplained")
	}
}
