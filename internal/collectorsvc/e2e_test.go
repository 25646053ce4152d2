package collectorsvc

import (
	"testing"
	"time"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
	"github.com/unroller/unroller/internal/scenario"
)

// microloopController mirrors the microloop scenario's controller
// configuration (internal/scenario): the collector's shards must share
// the in-process DedupWindow for the admission replay to be exact.
var microloopController = dataplane.ControllerConfig{
	MaxEvents: 1024, DedupWindow: 8, MaxAgeTicks: 4,
}

// TestCollectorEndToEnd is the acceptance test: a churn scenario
// streamed through collectord over loopback by 16 concurrent clients
// (partitioned by flow) must reproduce the in-process controller's
// admission totals exactly, with every frame accounted for.
//
// The scenario is quarantine-free on purpose: per-reporter quarantine
// is a per-shard property under flow sharding (one reporter's events
// scatter across shards), so exact equality is only promised for
// quarantine-free configurations — see DESIGN.md §8.
func TestCollectorEndToEnd(t *testing.T) {
	srv := NewServer(ServerConfig{
		Shards:     4,
		Controller: microloopController,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	const numClients = 16
	clients := make([]*Client, numClients)
	for i := range clients {
		clients[i], err = NewClient(ClientConfig{
			Addr: addr.String(),
			ID:   uint64(i) + 1,
			Seed: uint64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Stream the scenario: the hook fires concurrently from 8 engine
	// workers; each flow's reports stay in hop order because one journey
	// runs on one worker and flow-partitioning pins it to one client.
	res, err := scenario.RunStreamed("microloop", 7, 8, func(ev dataplane.LoopEvent, hop int) {
		clients[int(ev.Flow)%numClients].Send(ev, hop)
	})
	if err != nil {
		t.Fatal(err)
	}

	var enqueued, acked, dropped uint64
	for i, c := range clients {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if st.Enqueued != st.Acked+st.Dropped {
			t.Errorf("client %d: Enqueued %d != Acked %d + Dropped %d", i, st.Enqueued, st.Acked, st.Dropped)
		}
		enqueued += st.Enqueued
		acked += st.Acked
		dropped += st.Dropped
	}
	srv.Shutdown()

	want := res.Churn.Controller
	if enqueued != uint64(want.Delivered) {
		t.Errorf("clients enqueued %d reports, in-process controller delivered %d", enqueued, want.Delivered)
	}
	if dropped != 0 {
		t.Fatalf("clients dropped %d reports (buffers undersized for this test?)", dropped)
	}

	st := srv.Stats()
	if st.Ingested != acked {
		t.Errorf("server ingested %d, clients got %d acks", st.Ingested, acked)
	}
	if st.BadFrames != 0 {
		t.Errorf("server counted %d bad frames on a clean stream", st.BadFrames)
	}

	// The acceptance criterion: same accepted/deduped/quarantined as the
	// in-process controller for the same (scenario, seed).
	got := srv.ControllerStats()
	if got.Accepted != want.Accepted || got.Deduped != want.Deduped || got.Quarantined != want.Quarantined {
		t.Errorf("admission totals diverged:\nstreamed  accepted=%d deduped=%d quarantined=%d\nin-process accepted=%d deduped=%d quarantined=%d",
			got.Accepted, got.Deduped, got.Quarantined, want.Accepted, want.Deduped, want.Quarantined)
	}
	if got.Delivered != got.Accepted+got.Deduped+got.Quarantined {
		t.Errorf("merged stats broke the delivery identity: %+v", got)
	}
	// Exact loss accounting, the other acceptance criterion:
	// sent = ingested + client-dropped, and every ingested report
	// reached a controller.
	if enqueued != st.Ingested+dropped {
		t.Errorf("loss accounting: enqueued %d != ingested %d + client-dropped %d", enqueued, st.Ingested, dropped)
	}
	if got.Delivered != st.Ingested {
		t.Errorf("drain accounting: delivered %d != ingested %d", got.Delivered, st.Ingested)
	}
}

// TestCollectorSurvivesConnectionKills: every active connection is
// killed mid-stream — twice — and the reconnect/retransmit/sequence
// machinery still lands every report exactly once.
func TestCollectorSurvivesConnectionKills(t *testing.T) {
	srv := NewServer(ServerConfig{Shards: 3})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	const numClients = 4
	clients := make([]*Client, numClients)
	for i := range clients {
		clients[i], err = NewClient(ClientConfig{
			Addr:         addr.String(),
			ID:           100 + uint64(i),
			Seed:         uint64(i),
			MinBackoff:   time.Millisecond,
			MaxBackoff:   8 * time.Millisecond,
			FlushTimeout: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	waitActive := func(n int) {
		deadline := time.Now().Add(10 * time.Second)
		for srv.Stats().ActiveConns < n {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %d active connections (have %d)", n, srv.Stats().ActiveConns)
			}
			time.Sleep(time.Millisecond)
		}
	}

	const perClient = 600
	send := func(base int) {
		for i := 0; i < perClient; i++ {
			for ci, c := range clients {
				ev := dataplane.LoopEvent{
					Report: detect.Report{Reporter: detect.SwitchID(ci + 1), Hops: 3},
					Flow:   uint32(base + i*numClients + ci),
				}
				c.Send(ev, 3)
			}
		}
	}

	waitActive(numClients)
	send(0)
	srv.DisconnectAll()
	send(1 << 20)
	waitActive(numClients) // all reconnected
	srv.DisconnectAll()
	send(1 << 21)

	var enqueued, acked, dropped uint64
	for i, c := range clients {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if st.Enqueued != st.Acked+st.Dropped {
			t.Errorf("client %d: Enqueued %d != Acked %d + Dropped %d", i, st.Enqueued, st.Acked, st.Dropped)
		}
		if st.Connects < 2 {
			t.Errorf("client %d: %d connects, expected a reconnect after the kill", i, st.Connects)
		}
		enqueued += st.Enqueued
		acked += st.Acked
		dropped += st.Dropped
	}
	srv.Shutdown()

	if want := uint64(3 * perClient * numClients); enqueued != want {
		t.Fatalf("enqueued %d, want %d", enqueued, want)
	}
	if dropped != 0 {
		t.Fatalf("clients dropped %d with the server up and a 30s drain budget", dropped)
	}
	st := srv.Stats()
	// Exactly-once: the kills force retransmissions (counted as Dupes
	// when the overlap arrives), but every unique report is ingested
	// once, and the full loss-accounting identity holds.
	if st.Ingested != acked {
		t.Errorf("server ingested %d, clients got %d acks", st.Ingested, acked)
	}
	if enqueued != st.Ingested+dropped {
		t.Errorf("loss accounting: enqueued %d != ingested %d + client-dropped %d", enqueued, st.Ingested, dropped)
	}
	agg := srv.ControllerStats()
	if agg.Delivered != st.Ingested {
		t.Errorf("drain accounting: delivered %d != ingested %d", agg.Delivered, st.Ingested)
	}
}

// TestServerTickPropagation: a tick frame advances every shard's
// logical clock exactly once, and duplicate ticks (retransmits) do not.
func TestServerTickPropagation(t *testing.T) {
	srv := NewServer(ServerConfig{Shards: 3})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	c, err := NewClient(ClientConfig{Addr: addr.String(), ID: 9})
	if err != nil {
		t.Fatal(err)
	}
	c.Send(dataplane.LoopEvent{Report: detect.Report{Reporter: 1, Hops: 2}, Flow: 5}, 2)
	c.Tick()
	c.Tick()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()

	st := srv.Stats()
	if st.Ticks != 2 || st.Ingested != 1 {
		t.Fatalf("ticks=%d ingested=%d, want 2/1", st.Ticks, st.Ingested)
	}
	for i, cs := range srv.ShardStats() {
		if cs.Tick != 2 {
			t.Errorf("shard %d at tick %d, want 2", i, cs.Tick)
		}
	}
}
