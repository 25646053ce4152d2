package cluster

import (
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/unroller/unroller/internal/chaosnet"
	"github.com/unroller/unroller/internal/collectorsvc"
	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
)

// testNode bundles one node with its journal so a kill/restart cycle
// can reuse the directory.
type testNode struct {
	node    *Node
	journal *collectorsvc.Journal
	dir     string
}

func (tn *testNode) stop(t *testing.T) {
	t.Helper()
	tn.node.Stop()
	if err := tn.journal.Close(); err != nil {
		t.Fatalf("closing journal: %v", err)
	}
}

// startTestNode launches a journaled node named id over the partition
// gate. peers lists other nodes' cluster addresses.
func startTestNode(t *testing.T, gate *chaosnet.Net, id, dir string, peers []string) *testNode {
	t.Helper()
	// A large segment keeps the whole run inside one dedup window: the
	// cross-node discount can only judge records journaled since the
	// last snapshot, so a rotation mid-overlap would fold replayable
	// frames into the baseline (DESIGN §13's sizing rule).
	j, err := collectorsvc.OpenJournal(collectorsvc.JournalConfig{Dir: dir, SegmentBytes: 64 << 20})
	if err != nil {
		t.Fatalf("opening journal for %s: %v", id, err)
	}
	n, err := StartNode(NodeConfig{
		ID:         id,
		Peers:      peers,
		Partitions: 16,
		VNodes:     8,
		Seed:       42,
		Server: collectorsvc.ServerConfig{
			Shards:  2,
			Journal: j,
		},
		ProbeEvery:   40 * time.Millisecond,
		ProbeTimeout: 120 * time.Millisecond,
		SuspectAfter: 400 * time.Millisecond,
		RecoverySync: 1500 * time.Millisecond,
		Dial:         DialFunc(gate.Dialer(id, nil)),
	})
	if err != nil {
		j.Close()
		t.Fatalf("starting node %s: %v", id, err)
	}
	return &testNode{node: n, journal: j, dir: dir}
}

// waitCluster polls until cond holds, failing at the deadline.
func waitCluster(t *testing.T, within time.Duration, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s did not hold within %v", desc, within)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterKillReshardExactlyOnce is the cluster robustness e2e the
// CI gate runs under -race: three journaled nodes, a streaming cluster
// client, one node killed mid-stream, a 2s asymmetric cluster-plane
// partition between the survivors, and the killed node restarted from
// its journal. At the end the exactly-once accounting identity must
// hold cluster-wide and exactly:
//
//	client Enqueued = Acked + Dropped
//	client Acked    = Σ over nodes (Ingested + Ticks)
//
// The second line is what cross-node dedup buys: the killed node's
// journal replays frames its takeover peers also ingested (the client
// re-sent whatever the kill left unacknowledged), and the recovery
// handoff discards exactly that overlap (counted in CrossDupes) so no
// loop report is double-counted anywhere.
func TestClusterKillReshardExactlyOnce(t *testing.T) {
	gate := chaosnet.NewNet()
	base := t.TempDir()

	n1 := startTestNode(t, gate, "n1", filepath.Join(base, "n1"), nil)
	defer n1.stop(t)
	n2 := startTestNode(t, gate, "n2", filepath.Join(base, "n2"), []string{n1.node.ClusterAddr()})
	n3 := startTestNode(t, gate, "n3", filepath.Join(base, "n3"), []string{n1.node.ClusterAddr()})
	defer n3.stop(t)

	waitCluster(t, 5*time.Second, "membership convergence", func() bool {
		return allAlive(3)(n1.node.Agent().Members()) &&
			allAlive(3)(n2.node.Agent().Members()) &&
			allAlive(3)(n3.node.Agent().Members())
	})

	cl, err := NewClient(ClientConfig{
		Seeds:          []string{n1.node.ClusterAddr(), n2.node.ClusterAddr(), n3.node.ClusterAddr()},
		ID:             0xC0FFEE,
		Partitions:     16,
		VNodes:         8,
		Seed:           42,
		RefreshEvery:   50 * time.Millisecond,
		RPCTimeout:     500 * time.Millisecond,
		Buffer:         1 << 13,
		MinBackoff:     10 * time.Millisecond,
		MaxBackoff:     200 * time.Millisecond,
		FlushTimeout:   15 * time.Second,
		HeartbeatEvery: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("starting cluster client: %v", err)
	}

	// Paced producer: W workers, each its own flow population. Pacing
	// keeps Pending under the buffer so nothing is dropped client-side
	// while a partition's owner is mid-failover.
	const (
		workers      = 4
		perWorker    = 3000
		totalReports = workers * perWorker
	)
	var wg sync.WaitGroup
	phase2 := make(chan struct{}) // closed once the kill+partition chaos is injected
	produce := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			for cl.Pending() > 1<<12 {
				time.Sleep(200 * time.Microsecond)
			}
			flow := uint32(w)<<20 | uint32(i)
			cl.Send(dataplane.LoopEvent{
				Report: detect.Report{Reporter: detect.SwitchID(w + 1), Hops: 3},
				Flow:   flow,
			}, 3)
			if i%500 == 0 {
				cl.Tick()
			}
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			produce(w, 0, perWorker/3)
			<-phase2 // hold the rest of the stream until the chaos is in
			produce(w, perWorker/3, perWorker)
		}(w)
	}

	// Let the first third stream, then kill n2 mid-stream and open a 2s
	// asymmetric cluster-plane partition n1→n3 (n1 cannot probe n3; n3
	// still reaches n1). The indirect path through n2 is gone — dead
	// nodes can't relay — so this stresses suspicion refutation while
	// the ring is already resharding around the kill.
	waitCluster(t, 20*time.Second, "first third acked", func() bool {
		return cl.Stats().Acked > totalReports/6
	})
	n2.stop(t)
	gate.Block("n1", n3.node.ClusterAddr())
	close(phase2)

	time.Sleep(2 * time.Second)
	gate.Heal("n1", n3.node.ClusterAddr())

	// The survivors must agree n2 is dead and must never have killed
	// each other across the asymmetric break.
	waitCluster(t, 5*time.Second, "n2 declared dead", func() bool {
		for _, n := range []*Node{n1.node, n3.node} {
			st, ok := statusOf(n.Agent().Members(), "n2")
			if !ok || st != StatusDead {
				return false
			}
		}
		return true
	})
	for _, n := range []*Node{n1.node, n3.node} {
		for _, id := range []string{"n1", "n3"} {
			if st, ok := statusOf(n.Agent().Members(), id); !ok || st == StatusDead {
				t.Fatalf("%s sees survivor %s dead after asymmetric partition", n.ID(), id)
			}
		}
	}

	// Restart n2 from its journal mid-stream. Its staged recovery asks
	// the survivors which sequence ranges they already own and discards
	// the overlap the client replayed to them after the kill.
	n2 = startTestNode(t, gate, "n2", n2.dir, []string{n1.node.ClusterAddr(), n3.node.ClusterAddr()})
	defer n2.stop(t)
	waitCluster(t, 10*time.Second, "n2 rejoined everywhere", func() bool {
		return allAlive(3)(n1.node.Agent().Members()) &&
			allAlive(3)(n2.node.Agent().Members()) &&
			allAlive(3)(n3.node.Agent().Members())
	})

	wg.Wait()
	if err := cl.Close(); err != nil {
		t.Fatalf("closing client: %v", err)
	}

	cst := cl.Stats()
	if cst.Enqueued != cst.Acked+cst.Dropped {
		t.Fatalf("client identity broken: enqueued %d != acked %d + dropped %d", cst.Enqueued, cst.Acked, cst.Dropped)
	}
	if cst.Dropped != 0 {
		t.Fatalf("paced producer dropped %d events; pacing or failover replay is broken", cst.Dropped)
	}
	if cst.Rebinds == 0 {
		t.Fatal("no partition ever rebound; the kill/restart never resharded")
	}

	var sumIngested, sumTicks, sumDupes, sumCross uint64
	for _, tn := range []*testNode{n1, n2, n3} {
		st := tn.node.Server().Stats()
		sumIngested += st.Ingested
		sumTicks += st.Ticks
		sumDupes += st.Dupes
		sumCross += st.CrossDupes
		t.Logf("%s: ingested=%d ticks=%d dupes=%d cross_dupes=%d", tn.node.ID(), st.Ingested, st.Ticks, st.Dupes, st.CrossDupes)
	}
	t.Logf("client: enqueued=%d acked=%d retransmits=%d redirects=%d rebinds=%d resolves=%d",
		cst.Enqueued, cst.Acked, cst.Retransmits, cst.Redirects, cst.Rebinds, cst.Resolves)
	if got := sumIngested + sumTicks; got != cst.Acked {
		t.Fatalf("cluster-wide identity broken: Σ(ingested+ticks) = %d, client acked = %d (cross_dupes=%d dupes=%d)",
			got, cst.Acked, sumCross, sumDupes)
	}
}

// TestClusterHealthzAndStatsz drives the node admin surface: /healthz
// answers ready on a healthy member and degraded once the node is
// isolated from every peer (suspect-of-self), and /statsz carries the
// cluster stanza.
func TestClusterHealthzDegradedOnIsolation(t *testing.T) {
	gate := chaosnet.NewNet()
	base := t.TempDir()
	n1 := startTestNode(t, gate, "n1", filepath.Join(base, "n1"), nil)
	defer n1.stop(t)
	n2 := startTestNode(t, gate, "n2", filepath.Join(base, "n2"), []string{n1.node.ClusterAddr()})
	defer n2.stop(t)

	waitCluster(t, 5*time.Second, "membership convergence", func() bool {
		return allAlive(2)(n1.node.Agent().Members()) && allAlive(2)(n2.node.Agent().Members())
	})
	if h := n1.node.Server().Health(); h != collectorsvc.HealthReady {
		t.Fatalf("healthy member reports %v, want ready", h)
	}

	// Cut n1 off in both directions; its health must degrade once no
	// peer has been heard from for the suspect window.
	gate.Block("n1", n2.node.ClusterAddr())
	gate.Block("n2", n1.node.ClusterAddr())
	waitCluster(t, 5*time.Second, "isolation degrades health", func() bool {
		return n1.node.Server().Health() == collectorsvc.HealthDegraded
	})

	gate.Heal("n1", n2.node.ClusterAddr())
	gate.Heal("n2", n1.node.ClusterAddr())
	// Health recovers as soon as n1 hears any peer again, but the
	// ownership check below also needs n2's incarnation-bump refutation
	// to land (the partition may have escalated it all the way to dead),
	// so wait for full membership too.
	waitCluster(t, 10*time.Second, "health and membership recover after heal", func() bool {
		return n1.node.Server().Health() == collectorsvc.HealthReady &&
			allAlive(2)(n1.node.Agent().Members()) &&
			allAlive(2)(n2.node.Agent().Members())
	})

	info := n1.node.Info()
	if info.ID != "n1" || info.Partitions != 16 || len(info.Members) != 2 {
		t.Fatalf("cluster info malformed: %+v", info)
	}
	if info.Owned == 0 || info.Owned == info.Partitions {
		t.Fatalf("ownership not balanced across 2 nodes: %+v", info)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	if _, err := StartNode(NodeConfig{}); err == nil {
		t.Fatal("StartNode without an ID must fail")
	}
	if _, err := NewClient(ClientConfig{}); err == nil {
		t.Fatal("NewClient without seeds must fail")
	}
	if _, err := NewClient(ClientConfig{
		Seeds:          []string{"127.0.0.1:1"},
		ResolveTimeout: 200 * time.Millisecond,
	}); err == nil {
		t.Fatal("NewClient with no answering seed must fail")
	}
}

// TestClusterRecoveryDiscountsPeerOverlap manufactures a deterministic
// cross-node replay overlap and checks the handoff discounts exactly
// it. Node A journals 100 frames from client X and dies; node B then
// ingests frames 1..50 of the same sequence space (the takeover
// replay); A's restart must discard exactly those 50 (CrossDupes),
// commit the other 50, and — because the post-commit rotation rebases
// the journal — a second restart must change nothing.
func TestClusterRecoveryDiscountsPeerOverlap(t *testing.T) {
	gate := chaosnet.NewNet()
	base := t.TempDir()
	const clientID = 0xBEEF

	feed := func(addr string, count int) {
		t.Helper()
		c, err := collectorsvc.NewClient(collectorsvc.ClientConfig{Addr: addr, ID: clientID, Seed: 7})
		if err != nil {
			t.Fatalf("feed client: %v", err)
		}
		for i := 0; i < count; i++ {
			c.Send(dataplane.LoopEvent{Report: detect.Report{Reporter: 1, Hops: 2}, Flow: uint32(i)}, 2)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("closing feed client: %v", err)
		}
		st := c.Stats()
		if st.Acked != uint64(count) {
			t.Fatalf("feed acked %d of %d", st.Acked, count)
		}
	}

	// Phase 1: A alone journals 100 frames, then dies.
	a := startTestNode(t, gate, "a", filepath.Join(base, "a"), nil)
	feed(a.node.IngestAddr(), 100)
	a.stop(t)

	// Phase 2: B (the takeover owner) ingests the first 50 sequence
	// numbers of the same client space — the frames a failover client
	// would have replayed.
	b := startTestNode(t, gate, "b", filepath.Join(base, "b"), nil)
	defer b.stop(t)
	feed(b.node.IngestAddr(), 50)

	// Phase 3: A restarts against B; its 100 staged records overlap B's
	// spans on 1..50 exactly.
	a = startTestNode(t, gate, "a", a.dir, []string{b.node.ClusterAddr()})
	rec := a.node.Server().Recovery()
	if rec.CrossDupes != 50 {
		t.Fatalf("recovery discounted %d frames, want 50 (%+v)", rec.CrossDupes, rec)
	}
	st := a.node.Server().Stats()
	if st.Ingested != 50 || st.CrossDupes != 50 {
		t.Fatalf("restarted stats: ingested=%d cross_dupes=%d, want 50/50", st.Ingested, st.CrossDupes)
	}

	// Phase 4: the post-commit rotation made the reconciled cut the new
	// baseline — a second restart re-judges nothing.
	a.stop(t)
	a = startTestNode(t, gate, "a", a.dir, []string{b.node.ClusterAddr()})
	defer a.stop(t)
	st = a.node.Server().Stats()
	if st.Ingested != 50 || st.CrossDupes != 50 {
		t.Fatalf("second restart drifted: ingested=%d cross_dupes=%d, want 50/50", st.Ingested, st.CrossDupes)
	}
	// RecoveryStats carries the cumulative baseline forward; re-judging
	// the same 50 records would double it to 100.
	if rec := a.node.Server().Recovery(); rec.CrossDupes != 50 {
		t.Fatalf("second restart reports cross_dupes=%d, want the unchanged baseline 50", rec.CrossDupes)
	}
}

// TestClusterOneMemberJournaledRestart pins the standalone daemon's
// restart path: a peerless node journals frames, stops without a
// rotation (so they replay as staged records), and restarts. Every
// staged record must commit with nothing discounted, the post-commit
// rotation must run, the node must serve without waiting out
// RecoverySync on peers that do not exist, and /healthz must answer
// ready — a cluster of one is never isolated.
func TestClusterOneMemberJournaledRestart(t *testing.T) {
	const (
		frames       = 200
		recoverySync = 10 * time.Second
	)
	dir := t.TempDir()
	start := func() (*Node, *collectorsvc.Journal, time.Duration) {
		t.Helper()
		// One segment holds the whole run, so only the node's own
		// post-commit rotation can rotate.
		j, err := collectorsvc.OpenJournal(collectorsvc.JournalConfig{Dir: dir, SegmentBytes: 64 << 20, Fsync: collectorsvc.FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		begin := time.Now()
		n, err := StartNode(NodeConfig{
			ID:           "solo",
			Server:       collectorsvc.ServerConfig{Shards: 2, Journal: j},
			RecoverySync: recoverySync,
		})
		if err != nil {
			j.Close()
			t.Fatal(err)
		}
		return n, j, time.Since(begin)
	}

	n, j, _ := start()
	c, err := collectorsvc.NewClient(collectorsvc.ClientConfig{Addr: n.IngestAddr(), ID: 0xA11CE, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		c.Send(dataplane.LoopEvent{Report: detect.Report{Reporter: 1, Hops: 2}, Flow: uint32(i)}, 2)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Acked != frames {
		t.Fatalf("acked %d of %d", st.Acked, frames)
	}
	n.Stop()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	n, j, took := start()
	defer j.Close()
	defer n.Stop()
	if took > recoverySync/10 {
		t.Errorf("peerless restart took %v, want well under RecoverySync %v", took, recoverySync)
	}
	rec := n.Server().Recovery()
	if rec.Records < frames || rec.Ingested != frames || rec.CrossDupes != 0 {
		t.Errorf("recovery %+v, want all %d staged records committed with cross_dupes=0", rec, frames)
	}
	if st := n.Server().Stats(); st.Ingested != frames || st.CrossDupes != 0 {
		t.Errorf("restarted stats: ingested=%d cross_dupes=%d, want %d/0", st.Ingested, st.CrossDupes, frames)
	}
	if rot := j.Stats().Rotations; rot != 1 {
		t.Errorf("journal rotations after restart = %d, want the one post-commit rotation", rot)
	}
	rr := httptest.NewRecorder()
	n.AdminHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != http.StatusOK || strings.TrimSpace(rr.Body.String()) != "ready" {
		t.Errorf("/healthz: status %d body %q, want 200 ready", rr.Code, rr.Body.String())
	}
}

// TestClusterClientDropsUnencodableReports: through the cluster client
// too, a report the wire cannot carry is counted as dropped by its
// partition's sender when it is sent, and the valid reports around it
// are acked without any sender reconnecting.
func TestClusterClientDropsUnencodableReports(t *testing.T) {
	const partitions = 4
	n, err := StartNode(NodeConfig{
		ID:         "solo",
		Partitions: partitions,
		VNodes:     4,
		Seed:       7,
		Server:     collectorsvc.ServerConfig{Shards: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	c, err := NewClient(ClientConfig{Seeds: []string{n.ClusterAddr()}, Partitions: partitions, VNodes: 4, Seed: 7, ID: 11})
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		ev  dataplane.LoopEvent
		hop int
	}{
		{dataplane.LoopEvent{Flow: 1, Members: make([]detect.SwitchID, collectorsvc.MaxMembers+1)}, 2},
		{dataplane.LoopEvent{Flow: 2}, math.MaxUint32 + 1},
		{dataplane.LoopEvent{Flow: 3, Node: -1}, 2},
	}
	const valid = 60
	for i := 0; i < valid; i++ {
		c.Send(dataplane.LoopEvent{Report: detect.Report{Reporter: 3, Hops: 2}, Flow: uint32(100 + i)}, 2)
		if k := i / 10; i%10 == 0 && k < len(bad) {
			c.Send(bad[k].ev, bad[k].hop)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Acked != valid || st.Dropped != uint64(len(bad)) || st.Enqueued != st.Acked+st.Dropped {
		t.Errorf("acked %d, dropped %d of %d enqueued; want %d acked and the %d unencodable dropped", st.Acked, st.Dropped, st.Enqueued, valid, len(bad))
	}
	if st.Connects > partitions || st.Retransmits != 0 {
		t.Errorf("%d connects, %d retransmits; want at most one connection per partition sender and nothing re-sent", st.Connects, st.Retransmits)
	}
	if got := n.Server().Stats(); got.Ingested != valid {
		t.Errorf("node ingested %d, want %d", got.Ingested, valid)
	}
}
