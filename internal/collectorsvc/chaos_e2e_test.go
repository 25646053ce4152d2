package collectorsvc

import (
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/unroller/unroller/internal/chaosnet"
	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
)

// tcpDial is the raw dialer the chaos wrapper decorates in these tests.
func tcpDial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 5*time.Second)
}

// chaosWorkload deterministically generates n loop events with enough
// flow/reporter/hop variety to exercise the dedup window, feeding each
// through sink (the system under test) and, in the same per-flow order,
// through a single-threaded reference controller. It returns the
// reference admission totals: with quarantine off, admission depends
// only on per-flow history, so a correct collector must reproduce them
// exactly no matter how chaotically the wire behaved.
func chaosWorkload(n, numFlows int, sink func(ev dataplane.LoopEvent, hop int)) dataplane.ControllerStats {
	ref := dataplane.NewControllerWithConfig(microloopController)
	wins := make(map[uint32]*dataplane.DedupWindow, numFlows)
	for i := 0; i < n; i++ {
		flow := uint32(i % numFlows)
		ev := dataplane.LoopEvent{
			Report: detect.Report{Reporter: detect.SwitchID(i%7 + 1), Hops: 3 + i%5},
			Flow:   flow,
			Node:   i % 9,
		}
		if i%16 == 0 {
			ev.Members = []detect.SwitchID{detect.SwitchID(i % 11), detect.SwitchID(i % 13)}
		}
		hop := (i * 3) % 24
		w := wins[flow]
		if w == nil {
			w = &dataplane.DedupWindow{}
			wins[flow] = w
		}
		ref.DeliverFlow(ev, w, hop)
		sink(ev, hop)
	}
	return ref.Stats()
}

// TestCollectorChaosExactAccounting is the seeded chaos gate: with
// injected latency, fragmented writes, and mid-frame resets on every
// client connection, the end-to-end accounting must still be exact —
// the same admission totals as the in-process controller, every frame
// accounted for, nothing lost and nothing double-counted. (Corruption
// is excluded here: the wire format has no payload CRC, so a corrupted
// frame can alter accounting; see the liveness test below.)
func TestCollectorChaosExactAccounting(t *testing.T) {
	srv := NewServer(ServerConfig{
		Shards:     4,
		Controller: microloopController,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	chaos := chaosnet.New(chaosnet.Config{
		Seed:         1234,
		LatencyProb:  1 << 12, // ~6% of ops
		LatencyMin:   50 * time.Microsecond,
		LatencyMax:   500 * time.Microsecond,
		ChunkProb:    1 << 13, // ~12%
		ResetProb:    1 << 11, // ~3% — each reset forces a reconnect+retransmit
		FaultFreeOps: 2,       // let the hello land before chaos begins
	})

	const numClients = 8
	clients := make([]*Client, numClients)
	for i := range clients {
		clients[i], err = NewClient(ClientConfig{
			Addr:         addr.String(),
			ID:           uint64(i) + 1,
			Seed:         uint64(i),
			Buffer:       1 << 16,
			Batch:        16, // small batches → many wire ops → many fault rolls
			MinBackoff:   time.Millisecond,
			MaxBackoff:   10 * time.Millisecond,
			FlushTimeout: 60 * time.Second,
			Dial:         chaos.Dialer(tcpDial),
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	want := chaosWorkload(4000, 64, func(ev dataplane.LoopEvent, hop int) {
		clients[int(ev.Flow)%numClients].Send(ev, hop)
	})

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

	if dropped != 0 {
		t.Fatalf("clients dropped %d with the server up and a 60s drain budget", dropped)
	}
	st := srv.Stats()
	if st.Ingested != acked {
		t.Errorf("server ingested %d, clients got %d acks", st.Ingested, acked)
	}
	if enqueued != st.Ingested+dropped {
		t.Errorf("loss accounting: enqueued %d != ingested %d + client-dropped %d", enqueued, st.Ingested, dropped)
	}
	// Resets must actually have fired for this gate to mean anything,
	// and each one forces a retransmit overlap the server must dedup.
	if cs := chaos.Stats(); cs.Resets == 0 || cs.Chunks == 0 {
		t.Fatalf("chaos schedule injected nothing (stats %+v) — seed or probabilities wrong", cs)
	}
	got := srv.ControllerStats()
	if got.Accepted != want.Accepted || got.Deduped != want.Deduped || got.Quarantined != want.Quarantined {
		t.Errorf("admission totals diverged under chaos:\nstreamed  accepted=%d deduped=%d quarantined=%d\nin-process accepted=%d deduped=%d quarantined=%d",
			got.Accepted, got.Deduped, got.Quarantined, want.Accepted, want.Deduped, want.Quarantined)
	}
	if got.Delivered != got.Accepted+got.Deduped+got.Quarantined {
		t.Errorf("delivery identity broke under chaos: %+v", got)
	}
}

// TestCollectorChaosCorruptionLiveness: byte corruption can forge
// frames (the wire format has no payload CRC), so exact accounting is
// out of reach — but the system must stay alive: no panic, no wedged
// goroutine, every client still closes promptly with its local identity
// intact, and the server keeps serving.
func TestCollectorChaosCorruptionLiveness(t *testing.T) {
	srv := NewServer(ServerConfig{Shards: 2, ReadTimeout: 2 * time.Second})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	chaos := chaosnet.New(chaosnet.Config{
		Seed:         77,
		CorruptProb:  1 << 12,
		ResetProb:    1 << 11,
		ChunkProb:    1 << 13,
		FaultFreeOps: 2,
	})
	const numClients = 4
	clients := make([]*Client, numClients)
	for i := range clients {
		clients[i], err = NewClient(ClientConfig{
			Addr:         addr.String(),
			ID:           uint64(i) + 1,
			Seed:         uint64(i) + 100,
			MinBackoff:   time.Millisecond,
			MaxBackoff:   10 * time.Millisecond,
			FlushTimeout: 2 * time.Second,
			StaleTimeout: time.Second,
			Dial:         chaos.Dialer(tcpDial),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		for ci, c := range clients {
			c.Send(dataplane.LoopEvent{
				Report: detect.Report{Reporter: detect.SwitchID(ci + 1), Hops: 3},
				Flow:   uint32(i*numClients + ci),
			}, 3)
		}
	}
	for i, c := range clients {
		start := time.Now()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Fatalf("client %d wedged in Close for %v under corruption", i, elapsed)
		}
		st := c.Stats()
		if st.Enqueued != st.Acked+st.Dropped {
			t.Errorf("client %d identity: %+v", i, st)
		}
	}
	if !srv.Healthy() {
		t.Error("server unhealthy after a corruption run")
	}
	// A fresh, un-chaosed client must still get clean service.
	clean, err := NewClient(ClientConfig{Addr: addr.String(), ID: 99, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	clean.Send(dataplane.LoopEvent{Report: detect.Report{Reporter: 42, Hops: 2}, Flow: 424242}, 2)
	if err := clean.Close(); err != nil {
		t.Fatal(err)
	}
	if st := clean.Stats(); st.Acked != 1 {
		t.Errorf("clean client after chaos: %+v", st)
	}
}

// TestCollectorChaosBlackholeEscape: half-open connections (peer keeps
// the socket but stops participating) must never wedge the pipeline —
// the deadline/heartbeat machinery detects them on both sides and the
// client finishes its delivery through fresh connections.
func TestCollectorChaosBlackholeEscape(t *testing.T) {
	srv := NewServer(ServerConfig{
		Shards:       2,
		ReadTimeout:  500 * time.Millisecond,
		WriteTimeout: 300 * time.Millisecond,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	chaos := chaosnet.New(chaosnet.Config{
		Seed:          31,
		BlackholeProb: 1 << 11, // ~3% of ops flip the conn half-open
		FaultFreeOps:  2,
	})
	c, err := NewClient(ClientConfig{
		Addr:           addr.String(),
		ID:             1,
		Seed:           5,
		Batch:          8, // more writes per run → more chances to hit the fault
		MinBackoff:     time.Millisecond,
		MaxBackoff:     10 * time.Millisecond,
		HeartbeatEvery: 100 * time.Millisecond,
		StaleTimeout:   400 * time.Millisecond,
		WriteTimeout:   300 * time.Millisecond,
		FlushTimeout:   60 * time.Second,
		Dial:           chaos.Dialer(tcpDial),
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		c.Send(dataplane.LoopEvent{Report: detect.Report{Reporter: 1, Hops: 3}, Flow: uint32(i)}, 3)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	st := c.Stats()
	if st.Dropped != 0 || st.Acked != n {
		t.Fatalf("blackholes cost events: %+v", st)
	}
	if got := srv.Stats().Ingested; got != n {
		t.Fatalf("server ingested %d, want %d", got, n)
	}
}

// copyDir copies every regular file in src to a fresh dst — the
// "disk image at the instant of the kill" for crash simulations.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCollectorKillRecover is the in-package half of the kill-recover
// property (the exec-based test in cmd/unroller-collectord SIGKILLs a
// real process): a journaled server ingests a chaos-streamed scenario,
// the journal directory is imaged at a moment when everything acked has
// been committed (exactly what a SIGKILL leaves behind, since commits
// flush to the OS before acks), and a recovered server on that image
// must reproduce the exactly-once state: identical ingest accounting,
// identical admission totals, and zero duplicate acceptance when a
// client replays already-accounted sequences.
//
// The stream floods the production-depth shard queues: the workers are
// held until a reader waits for room, the point at which queues used
// to shed acked reports. Segments are large enough that no rotation
// (whose barrier needs the workers) comes before that point, and small
// enough that several come after it.
func TestCollectorKillRecover(t *testing.T) {
	const segBytes = 256 << 10
	dir := t.TempDir()
	j, err := OpenJournal(JournalConfig{Dir: dir, SegmentBytes: segBytes, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	srv, rec, err := NewRecoveredServer(ServerConfig{
		Shards:     4,
		Controller: microloopController,
		Journal:    j,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 1 || rec.Snapshots != 1 {
		t.Fatalf("fresh journal replayed %+v, want just the genesis snapshot", rec)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	chaos := chaosnet.New(chaosnet.Config{
		Seed:         4242,
		ResetProb:    1 << 10,
		ChunkProb:    1 << 13,
		FaultFreeOps: 2,
	})
	const numClients = 4
	clients := make([]*Client, numClients)
	for i := range clients {
		clients[i], err = NewClient(ClientConfig{
			Addr:         addr.String(),
			ID:           uint64(i) + 1,
			Seed:         uint64(i),
			Buffer:       1 << 16,
			MinBackoff:   time.Millisecond,
			MaxBackoff:   10 * time.Millisecond,
			FlushTimeout: 60 * time.Second,
			Dial:         chaos.Dialer(tcpDial),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	release := holdWorkers(srv)
	defer release()
	chaosWorkload(16000, 64, func(ev dataplane.LoopEvent, hop int) {
		clients[int(ev.Flow)%numClients].Send(ev, hop)
	})
	waitFor(t, "a reader waiting for shard room", func() bool { return shardWaiters(srv) > 0 })
	release()
	var acked uint64
	for i, c := range clients {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if st.Dropped != 0 {
			t.Fatalf("client %d dropped %d; the kill-recover comparison needs a lossless run", i, st.Dropped)
		}
		acked += st.Acked
	}

	// Every acked frame has been journal-committed, so the directory
	// right now is exactly what a SIGKILL would leave. Image it before
	// the graceful shutdown below (which only exists to read the final
	// drained stats for comparison).
	killImage := copyDir(t, dir)
	srv.Shutdown()
	pre := srv.Stats()
	preAgg := srv.ControllerStats()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if pre.Ingested != acked {
		t.Fatalf("pre-kill server ingested %d, clients acked %d", pre.Ingested, acked)
	}
	if j.Stats().Rotations == 0 {
		t.Fatal("segments never rotated — the snapshot path went unexercised")
	}

	// "Restart" on the kill image.
	j2, err := OpenJournal(JournalConfig{Dir: killImage, SegmentBytes: segBytes, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	srv2, rec2, err := NewRecoveredServer(ServerConfig{
		Shards:     4,
		Controller: microloopController,
		Journal:    j2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown()
	if rec2.Ingested != pre.Ingested {
		t.Fatalf("recovery restored ingested=%d, pre-kill was %d", rec2.Ingested, pre.Ingested)
	}
	st2 := srv2.Stats()
	if st2.Ingested != pre.Ingested || st2.Ticks != pre.Ticks {
		t.Errorf("recovered counters ingested=%d ticks=%d, pre-kill ingested=%d ticks=%d",
			st2.Ingested, st2.Ticks, pre.Ingested, pre.Ticks)
	}
	agg2 := srv2.ControllerStats()
	// Dedup state is snapshotted exactly, so the admission totals are
	// bit-identical. (Buffered/Evicted/Aged legitimately differ: the
	// crash discards the in-memory rings, and recovery accounts their
	// contents as evicted — the identity below still must hold.)
	if agg2.Delivered != preAgg.Delivered || agg2.Accepted != preAgg.Accepted ||
		agg2.Deduped != preAgg.Deduped || agg2.Quarantined != preAgg.Quarantined || agg2.Tick != preAgg.Tick {
		t.Errorf("recovered admission totals diverged:\nrecovered delivered=%d accepted=%d deduped=%d quarantined=%d tick=%d\npre-kill  delivered=%d accepted=%d deduped=%d quarantined=%d tick=%d",
			agg2.Delivered, agg2.Accepted, agg2.Deduped, agg2.Quarantined, agg2.Tick,
			preAgg.Delivered, preAgg.Accepted, preAgg.Deduped, preAgg.Quarantined, preAgg.Tick)
	}
	if agg2.Accepted != uint64(agg2.Buffered)+agg2.Evicted+agg2.Aged {
		t.Errorf("recovered admission identity broke: %+v", agg2)
	}

	// Zero duplicate acceptance: a client resuming an already-accounted
	// identity replays sequences at or below the recovered high-water
	// mark; all of them must be deduped, none re-ingested.
	addr2, err := srv2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dupBase := st2.Dupes
	replayer, err := NewClient(ClientConfig{Addr: addr2.String(), ID: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const replayN = 5
	for i := 0; i < replayN; i++ {
		replayer.Send(dataplane.LoopEvent{Report: detect.Report{Reporter: 1, Hops: 3}, Flow: uint32(i)}, 3)
	}
	if err := replayer.Close(); err != nil {
		t.Fatal(err)
	}
	after := srv2.Stats()
	if after.Ingested != st2.Ingested {
		t.Errorf("replayed duplicates were re-ingested: %d -> %d", st2.Ingested, after.Ingested)
	}
	if after.Dupes != dupBase+replayN {
		t.Errorf("dupes %d -> %d, want +%d", dupBase, after.Dupes, replayN)
	}
}

// TestRecoveryWorkerCountInvariant: the same kill image recovered under
// different shard counts must produce identical aggregate accounting —
// recovery is single-threaded and keyed by flow, so the worker topology
// cannot change what was recovered.
func TestRecoveryWorkerCountInvariant(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(JournalConfig{Dir: dir, SegmentBytes: 4096, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := NewRecoveredServer(ServerConfig{
		Shards: 4, Controller: microloopController, Journal: j,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ClientConfig{Addr: addr.String(), ID: 1, Seed: 1, FlushTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 800; i++ {
		c.Send(dataplane.LoopEvent{
			Report: detect.Report{Reporter: detect.SwitchID(i%5 + 1), Hops: 3},
			Flow:   uint32(i % 37),
		}, i%11)
	}
	c.Tick()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	image := copyDir(t, dir)
	srv.Shutdown()
	j.Close()

	type cut struct {
		ingested, ticks uint64
		agg             dataplane.ControllerStats
	}
	recoverWith := func(shards int) cut {
		jr, err := OpenJournal(JournalConfig{Dir: copyDir(t, image), Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer jr.Close()
		s, _, err := NewRecoveredServer(ServerConfig{
			Shards: shards, Controller: microloopController, Journal: jr,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown()
		st := s.Stats()
		return cut{ingested: st.Ingested, ticks: st.Ticks, agg: s.ControllerStats()}
	}
	a, b := recoverWith(1), recoverWith(7)
	if a.ingested != b.ingested || a.ticks != b.ticks {
		t.Errorf("shard-count changed recovered counters: 1 shard %+v, 7 shards %+v", a, b)
	}
	if a.agg.Delivered != b.agg.Delivered || a.agg.Accepted != b.agg.Accepted ||
		a.agg.Deduped != b.agg.Deduped || a.agg.Tick != b.agg.Tick {
		t.Errorf("shard-count changed recovered admission totals:\n1 shard  %+v\n7 shards %+v", a.agg, b.agg)
	}
}
