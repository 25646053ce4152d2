package collectorsvc

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
)

// flowWindows reads every shard's flow table as flow → window entries.
// The server must be shut down (workers stopped).
func flowWindows(s *Server) map[uint32][]dataplane.DedupEntry {
	out := make(map[uint32][]dataplane.DedupEntry)
	for _, sh := range s.shards {
		sh.flows.each(func(sl *flowSlot) {
			out[sl.flow] = sl.w.AppendEntries(nil)
		})
	}
	return out
}

// admission is the part of the controller totals a recovery restores
// exactly (Buffered, Evicted and Aged legitimately move: a crash
// discards the in-memory rings).
func admission(st dataplane.ControllerStats) [5]uint64 {
	return [5]uint64{st.Delivered, st.Accepted, st.Deduped, st.Quarantined, st.Tick}
}

// TestCollectorFlowTableResetKeepsWindows: a shard worker resolves a
// whole drained batch's windows before it delivers any of them, so a
// MaxFlows reset in the middle of the batch must leave the windows
// already handed out intact — across consecutive resets too. One
// shard, MaxFlows 2, one batch [f1, f2, f3, f4, f5, f9]: f3 and f5 each
// force a reset, and every flow carries the same reporter and hop. A
// table that recycled pages or slots would hand f3, f4, f5 and f9 the
// windows f1 and f2 (or f3 and f4) are about to fill, and dedup them;
// the totals must instead equal one DeliverFlow per flow into windows
// of its own.
func TestCollectorFlowTableResetKeepsWindows(t *testing.T) {
	flows := []uint32{1, 2, 3, 4, 5, 9}
	sh := newShard(microloopController, 16, 2)
	ref := dataplane.NewControllerWithConfig(microloopController)
	const hop = 5
	var batch []item
	for _, flow := range flows {
		ev := dataplane.LoopEvent{Report: detect.Report{Reporter: 4, Hops: 3}, Flow: flow}
		batch = append(batch, testItem(0, ev, hop))
		ref.DeliverFlow(ev, &dataplane.DedupWindow{}, hop)
	}
	sh.pushBatch(batch)
	sh.mu.Lock()
	sh.closed = true
	sh.mu.Unlock()
	sh.run() // pops the six reports as one batch, then returns
	if got, want := sh.ctrl.Stats(), ref.Stats(); got != want || got.Accepted != uint64(len(flows)) {
		t.Fatalf("batch across two flow-table resets: %+v, want %+v (all %d accepted)", got, want, len(flows))
	}
	if ev := sh.evictions.Load(); ev != 2 {
		t.Fatalf("evictions = %d, want 2 (f3 and f5 reset the table)", ev)
	}
	got := make(map[uint32]int)
	sh.flows.each(func(sl *flowSlot) { got[sl.flow] = len(sl.w.AppendEntries(nil)) })
	if want := map[uint32]int{5: 1, 9: 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("table after the resets holds %v, want %v", got, want)
	}

	// The windows themselves: every flow of the batch got one of its
	// own, and the flows still in the table resolve to theirs again.
	sh = newShard(microloopController, 16, 2)
	seen := make(map[*dataplane.DedupWindow]uint32)
	for _, flow := range flows {
		w := sh.window(flow)
		if other, dup := seen[w]; dup {
			t.Fatalf("flows %d and %d share a window across resets", other, flow)
		}
		seen[w] = flow
	}
	for w, flow := range seen {
		if (flow == 5 || flow == 9) && sh.window(flow) != w {
			t.Fatalf("flow %d resolves to a new window after the resets", flow)
		}
	}
}

// TestRecoveryAcrossFlowTableResets: live traffic that crosses many
// MaxFlows resets and many rotations, recovered from a kill image with
// the same shard count and MaxFlows, restores exactly the live per-flow
// windows, flow evictions and admission totals — each rotation's
// snapshot lists the live tables as they were, in slot order. The
// snapshot stays flow-keyed, so recovering the same image under 1 and
// 7 shards (with no resets while replaying) gives equal aggregates.
func TestRecoveryAcrossFlowTableResets(t *testing.T) {
	cfg := ServerConfig{Shards: 4, MaxFlows: 6, Controller: microloopController}
	dir := t.TempDir()
	j, err := OpenJournal(JournalConfig{Dir: dir, SegmentBytes: 1024, MaxSegments: 4, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	live := cfg
	live.Journal = j
	srv, _, err := NewRecoveredServer(live)
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
	for i := 0; i < 3000; i++ {
		// Pairs of reports per journey: the second of a pair is often
		// within the dedup window of the first.
		c.Send(dataplane.LoopEvent{
			Report: detect.Report{Reporter: detect.SwitchID(i/2%4 + 1), Hops: 3},
			Flow:   uint32(i / 2 * 5 % 61),
		}, i%2*3+i/2%9)
		if i%250 == 249 {
			c.Tick()
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	image := copyDir(t, dir)
	srv.Shutdown()
	j.Close()
	st, agg := srv.Stats(), srv.ControllerStats()
	if rot := j.Stats().Rotations; rot < 10 {
		t.Fatalf("%d rotations; the test needs many", rot)
	}
	if st.FlowEvictions < 10 {
		t.Fatalf("%d flow-table resets; the test needs many", st.FlowEvictions)
	}
	if agg.Deduped == 0 {
		t.Fatal("nothing deduped: the windows went unexercised")
	}
	// The live encoder sizes its buffer exactly and lists the tables as
	// they are.
	srv.mu.Lock()
	snapRec := srv.snapshotRecordLocked()
	srv.mu.Unlock()
	if len(snapRec) != cap(snapRec) {
		t.Errorf("snapshot record is %d bytes in a %d-byte buffer", len(snapRec), cap(snapRec))
	}
	var decoded journalRecord
	if err := decodeJournalPayload(snapRec[journalRecHeader:], &decoded); err != nil {
		t.Fatal(err)
	}
	encoded := make(map[uint32][]dataplane.DedupEntry)
	for _, f := range snapshotFlows(decoded.snap) {
		encoded[f.flow] = f.entries
	}
	if want := flowWindows(srv); !reflect.DeepEqual(encoded, want) {
		t.Errorf("snapshot lists windows %v, the tables hold %v", encoded, want)
	}

	recoverWith := func(c ServerConfig) *Server {
		jr, err := OpenJournal(JournalConfig{Dir: copyDir(t, image), Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { jr.Close() })
		c.Journal = jr
		s, _, err := NewRecoveredServer(c)
		if err != nil {
			t.Fatal(err)
		}
		s.Shutdown()
		return s
	}
	same := recoverWith(cfg)
	if got, want := flowWindows(same), flowWindows(srv); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered per-flow windows differ from the live server's:\nrecovered %v\nlive      %v", got, want)
	}
	rst := same.Stats()
	if rst.Ingested != st.Ingested || rst.Ticks != st.Ticks || rst.FlowEvictions != st.FlowEvictions {
		t.Errorf("recovered ingested=%d ticks=%d evictions=%d, live %d/%d/%d",
			rst.Ingested, rst.Ticks, rst.FlowEvictions, st.Ingested, st.Ticks, st.FlowEvictions)
	}
	if got, want := admission(same.ControllerStats()), admission(agg); got != want {
		t.Errorf("recovered admission totals %v, live %v", got, want)
	}

	one, seven := cfg, cfg
	one.Shards, one.MaxFlows = 1, 0
	seven.Shards, seven.MaxFlows = 7, 0
	a, b := recoverWith(one), recoverWith(seven)
	if a.Stats().Ingested != b.Stats().Ingested || admission(a.ControllerStats()) != admission(b.ControllerStats()) {
		t.Errorf("shard count changed the recovered aggregates:\n1 shard  %+v\n7 shards %+v", a.ControllerStats(), b.ControllerStats())
	}
}

// TestRecoveryRefusesDuplicateSnapshotFlow: a segment whose head
// snapshot lists a flow twice is corrupt — no rotation writes one — and
// recovery must refuse it rather than keep either window.
func TestRecoveryRefusesDuplicateSnapshotFlow(t *testing.T) {
	dir := t.TempDir()
	snap := withFlows(&journalSnapshot{},
		testFlow{flow: 7, entries: []dataplane.DedupEntry{{Reporter: 1, Hop: 2}}},
		testFlow{flow: 8},
		testFlow{flow: 7},
	)
	seg := appendJournalRecord(nil, encodeSnapshot(nil, snap))
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, _, err := NewRecoveredServer(ServerConfig{Shards: 2, Journal: j}); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("recovering a snapshot that lists flow 7 twice returned %v, want ErrJournalCorrupt", err)
	}
}

// TestRecoveryReadsSortedFlowJournal: testdata/journal-v2-sorted is a
// journal written by the earlier snapshot encoder, which listed flows
// ascending (two clients, 1000 reports, 10 ticks, MaxFlows 16, 2048-byte
// segments, the oldest retained segment starting at a rotation). It
// must recover, at any shard count, to the state that encoder's own
// recovery reported for it.
func TestRecoveryReadsSortedFlowJournal(t *testing.T) {
	src := filepath.Join("testdata", "journal-v2-sorted")
	jh, err := OpenJournal(JournalConfig{Dir: copyDir(t, src), Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	recs := replayAll(t, jh)
	jh.Close()
	if recs[0].snap == nil {
		t.Fatal("fixture does not start with a snapshot")
	}
	head := snapshotFlows(recs[0].snap)
	if len(head) < 2 {
		t.Fatal("fixture's head snapshot lists fewer than two flows")
	}
	for i := 1; i < len(head); i++ {
		if head[i-1].flow >= head[i].flow {
			t.Fatalf("fixture's head snapshot is not in ascending flow order at %d", i)
		}
	}

	wantRec := RecoveryStats{Records: 630, Snapshots: 4, Clients: 2, Flows: 10, Ingested: 1000, Ticks: 10}
	wantCtrl := dataplane.ControllerStats{
		Delivered: 1000, Accepted: 666, Deduped: 334, Evicted: 268, Aged: 398, Tick: 10,
	}
	for _, shards := range []int{1, 2, 5} {
		j, err := OpenJournal(JournalConfig{Dir: copyDir(t, src), Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		s, rec, err := NewRecoveredServer(ServerConfig{
			Shards: shards, MaxFlows: 16, Controller: microloopController, Journal: j,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Shutdown()
		j.Close()
		if rec != wantRec {
			t.Errorf("%d shards: recovery %+v, want %+v", shards, rec, wantRec)
		}
		if st := s.Stats(); st.FlowEvictions != 19 || st.Dupes != 0 {
			t.Errorf("%d shards: flow evictions %d dupes %d, want 19 and 0", shards, st.FlowEvictions, st.Dupes)
		}
		if got := s.ControllerStats(); got != wantCtrl {
			t.Errorf("%d shards: controller totals %#v, want %#v", shards, got, wantCtrl)
		}
	}
}

// BenchmarkSnapshotRotate measures one journal rotation of a collector
// holding 4 shards × 32768 flows, each with a one-entry dedup window:
// the barrier, the snapshot encode straight from the flow tables, and
// the new segment's write. Its allocations must not grow with the flow
// count: the exactly-sized snapshot buffer is the only one that scales.
func BenchmarkSnapshotRotate(b *testing.B) {
	j, err := OpenJournal(JournalConfig{Dir: b.TempDir(), SegmentBytes: 1 << 30, Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	srv, _, err := NewRecoveredServer(ServerConfig{Shards: 4, Controller: microloopController, Journal: j})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown()
	const flowsPerShard = 32768
	for i, sh := range srv.shards {
		for k := 0; k < flowsPerShard; k++ {
			entry := []dataplane.DedupEntry{{Reporter: detect.SwitchID(k%7 + 1), Hop: k % 24}}
			sh.flows.add(uint32(i*flowsPerShard + k)).Restore(entry)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.mu.Lock()
		srv.rotateWithSnapshotLocked(j)
		j.mu.Unlock()
	}
	b.StopTimer()
	if j.Failed() {
		b.Fatalf("journal failed during benchmark: %+v", j.Stats())
	}
}

// TestRecoverySizesFlowIndexOnce: applySnapshot sizes each shard's flow
// index for the snapshot's flows plus the staged records, so Commit,
// which adds the staged records' new flows, never grows it.
func TestRecoverySizesFlowIndexOnce(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncNever})
	srv := NewServer(ServerConfig{Shards: 2, MaxFlows: 1000, Controller: microloopController, Journal: j})
	seqs := func(first, last int) []int {
		var s []int
		for q := first; q <= last; q++ {
			s = append(s, q)
		}
		return s
	}
	ingestTestBatches(t, srv, seqs(1, 300))
	srv.ForceRotate()
	ingestTestBatches(t, srv, seqs(301, 500))
	srv.Shutdown()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	jr := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncNever})
	st, err := NewStagedRecoveredServer(ServerConfig{Shards: 2, MaxFlows: 1000, Controller: microloopController, Journal: jr})
	if err != nil {
		t.Fatal(err)
	}
	var sized []int
	for _, sh := range st.Server().shards {
		sized = append(sized, len(sh.flows.cells))
	}
	s, _, err := st.Commit(nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
	for i, sh := range s.shards {
		if n := sh.flows.len(); n < 200 || len(sh.flows.cells) != sized[i] {
			t.Errorf("shard %d: %d flows; index of %d cells after the snapshot, %d after Commit", i, n, sized[i], len(sh.flows.cells))
		}
	}
}
