package collectorsvc

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
)

// openTestJournal opens a journal in a fresh temp dir with small
// segments so rotation is easy to trigger.
func openTestJournal(t *testing.T, cfg JournalConfig) *Journal {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	j, err := OpenJournal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// appendReport appends a batch of one report and commits it, the way
// the server's ingest path does.
func appendReport(j *Journal, clientID, seq uint64, flow uint32, hop int) {
	it := item{seq: seq, flow: flow, reporter: flow + 1, hops: 3, node: 7, hop: uint32(hop), members: []detect.SwitchID{1, 2, 3}}
	j.mu.Lock()
	j.batchAppendLocked(clientID, &it)
	j.sealBatchLocked()
	j.commitLocked()
	j.mu.Unlock()
}

// jreport is client clientID's report payload for it, and jtick its
// tick payload for seq.
func jreport(clientID uint64, it item) []byte { return appendJournalItem(nil, clientID, &it) }
func jtick(clientID, seq uint64) []byte {
	return appendJournalItem(nil, clientID, &item{seq: seq, kind: itemTick})
}

// replayAll collects a copy of every replayed record, a batch frame's
// sub-records one by one, split by the reference's own reader.
func replayAll(t *testing.T, j *Journal) []*journalRecord {
	t.Helper()
	var out []*journalRecord
	if err := j.Replay(func(rec *journalRecord) error {
		if rec.kind != jrecBatch {
			out = append(out, copyRecord(rec))
			return nil
		}
		subs, err := refSubRecords(rec.batch)
		if err != nil {
			return err
		}
		for _, p := range subs {
			var sub journalRecord
			if err := decodeJournalPayload(p, &sub); err != nil {
				return err
			}
			sub.seg, sub.segNo, sub.off, sub.end, sub.n = rec.seg, rec.segNo, rec.off, rec.end, 1
			out = append(out, &sub)
		}
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

// copyRecord copies a record out of the one Replay reuses, with a
// snapshot's flow section, which a superseded segment's reused buffer
// does not keep.
func copyRecord(rec *journalRecord) *journalRecord {
	c := *rec
	c.it.members = append([]detect.SwitchID(nil), rec.it.members...)
	if rec.snap != nil {
		snap := *rec.snap
		snap.flows = bytes.Clone(snap.flows)
		c.snap = &snap
	}
	return &c
}

// testFlow is one flow's dedup window in a test snapshot's flow section.
type testFlow struct {
	flow    uint32
	entries []dataplane.DedupEntry
}

// withFlows gives s a flow section listing flows in order and returns s.
func withFlows(s *journalSnapshot, flows ...testFlow) *journalSnapshot {
	s.flows, s.nFlows = nil, len(flows)
	for _, f := range flows {
		s.flows = appendFlowRecord(s.flows, f.flow, f.entries)
	}
	return s
}

// snapshotFlows decodes a snapshot's flow section.
func snapshotFlows(s *journalSnapshot) []testFlow {
	var out []testFlow
	s.eachFlow(func(flow uint32, window []byte) error {
		out = append(out, testFlow{flow: flow, entries: appendDedupEntries(nil, window)})
		return nil
	})
	return out
}

// TestJournalRoundTrip: records appended before a close replay intact
// after a reopen, in order, behind the genesis snapshot.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncNever})
	appendReport(j, 10, 1, 0xAABB, 4)
	appendReport(j, 10, 2, 0xAABC, 5)
	j.mu.Lock()
	j.batchAppendLocked(10, &item{seq: 3, kind: itemTick})
	j.sealBatchLocked()
	j.commitLocked()
	j.mu.Unlock()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncNever})
	recs := replayAll(t, j2)
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4 (snapshot + 2 reports + tick)", len(recs))
	}
	if recs[0].kind != jrecSnapshot || recs[0].snap == nil {
		t.Fatalf("first record is kind %d, want genesis snapshot", recs[0].kind)
	}
	r := recs[1]
	if r.kind != jrecReport || r.clientID != 10 || r.it.seq != 1 || r.it.flow != 0xAABB || r.it.hop != 4 {
		t.Errorf("report 1 decoded as %+v", r)
	}
	if len(r.it.members) != 3 || r.it.members[2] != 3 {
		t.Errorf("report members decoded as %v", r.it.members)
	}
	if recs[3].kind != jrecTick || recs[3].it.seq != 3 {
		t.Errorf("tick decoded as %+v", recs[3])
	}
	if st := j2.Stats(); st.RecoveredRecords != 4 || st.RecoveredSnapshots != 1 {
		t.Errorf("stats after replay: %+v", st)
	}
}

// TestJournalRotationAndRetention: small segments rotate, every segment
// starts with a snapshot, and retention bounds the segment count while a
// reopened journal still replays cleanly from the oldest survivor.
func TestJournalRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, JournalConfig{Dir: dir, SegmentBytes: 512, MaxSegments: 3, Fsync: FsyncNever})
	snap := &journalSnapshot{Ingested: 0}
	for i := 0; i < 100; i++ {
		appendReport(j, 1, uint64(i+1), uint32(i), i%6)
		j.mu.Lock()
		if j.needsRotateLocked() {
			snap.Ingested = uint64(i + 1)
			j.rotateLocked(encodeSnapshot(beginRecord(nil), snap))
		}
		j.mu.Unlock()
	}
	st := j.Stats()
	if st.Rotations == 0 {
		t.Fatal("512-byte segments never rotated across 100 reports")
	}
	if st.Segments > 3 {
		t.Errorf("%d segments retained, want <= 3", st.Segments)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != st.Segments {
		t.Errorf("%d files on disk, stats say %d segments", len(entries), st.Segments)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// The oldest retained segment must be self-contained: replay begins
	// at its head snapshot, which carries the pre-truncation baseline.
	j2 := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncNever})
	recs := replayAll(t, j2)
	if len(recs) == 0 || recs[0].kind != jrecSnapshot {
		t.Fatal("replay of retained suffix does not start with a snapshot")
	}
	if recs[0].snap.Ingested == 0 {
		t.Error("oldest retained snapshot has a zero baseline; retention lost the cut state")
	}
	// Records after the snapshot must continue the sequence the baseline
	// accounts for.
	var first uint64
	for _, r := range recs[1:] {
		if r.kind == jrecReport {
			first = r.it.seq
			break
		}
	}
	if first != recs[0].snap.Ingested+1 {
		t.Errorf("first replayed seq %d does not follow snapshot baseline %d", first, recs[0].snap.Ingested)
	}
}

// TestJournalReplayReadsLastSegmentOnce: Replay replays the last
// segment from the bytes OpenJournal's torn-tail scan read, not from a
// second read of the file, and only once; after an append it reads the
// file afresh.
func TestJournalReplayReadsLastSegmentOnce(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncNever})
	appendReport(j, 7, 1, 100, 2)
	appendReport(j, 7, 2, 101, 3)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncNever})
	// Clobber the file after the open: the handed-off bytes still hold
	// the three records, a second read of the file holds none.
	path := filepath.Join(dir, segName(1))
	if err := os.WriteFile(path, []byte("clobbered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if recs := replayAll(t, j2); len(recs) != 3 {
		t.Fatalf("first replay saw %d records, want the 3 read at open", len(recs))
	}
	if recs := replayAll(t, j2); len(recs) != 0 {
		t.Fatalf("second replay saw %d records in a clobbered file: the journal kept the segment's bytes", len(recs))
	}

	// An append after the open makes the open's bytes stale.
	dir = t.TempDir()
	j = openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncNever})
	appendReport(j, 7, 1, 100, 2)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j3 := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncNever})
	appendReport(j3, 7, 2, 101, 3)
	if recs := replayAll(t, j3); len(recs) != 3 || recs[2].it.seq != 2 {
		t.Fatalf("replay after an append saw %d records, want 3 ending in the appended one", len(recs))
	}
}

// TestJournalTornTailTruncated: a partial record at the end of the last
// segment (the SIGKILL case) is truncated at open and replay sees only
// the valid prefix.
func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncNever})
	appendReport(j, 7, 1, 100, 2)
	appendReport(j, 7, 2, 101, 3)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn write: append half a record to the segment.
	path := filepath.Join(dir, segName(1))
	torn := appendJournalRecord(nil, jtick(7, 3))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2 := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncNever})
	if st := j2.Stats(); st.TruncatedBytes != int64(len(torn)-5) {
		t.Errorf("truncated %d bytes, want %d", st.TruncatedBytes, len(torn)-5)
	}
	recs := replayAll(t, j2)
	if len(recs) != 3 {
		t.Fatalf("replayed %d records after torn tail, want 3", len(recs))
	}
	// And the reopened journal must still append correctly at the cut.
	appendReport(j2, 7, 3, 102, 4)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3 := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncNever})
	recs = replayAll(t, j3)
	if len(recs) != 4 || recs[3].it.seq != 3 {
		t.Fatalf("append after truncation not replayable: %d records", len(recs))
	}
}

// TestJournalMidHistoryCorruptionFails: a CRC failure in any segment but
// the last is corruption at rest — Replay must refuse, not skip.
func TestJournalMidHistoryCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, JournalConfig{Dir: dir, SegmentBytes: 256, Fsync: FsyncNever})
	for i := 0; i < 20; i++ {
		appendReport(j, 1, uint64(i+1), uint32(i), 0)
		j.mu.Lock()
		if j.needsRotateLocked() {
			j.rotateLocked(encodeSnapshot(beginRecord(nil), emptySnapshot()))
		}
		j.mu.Unlock()
	}
	if j.Stats().Segments < 2 {
		t.Fatal("test needs at least two segments")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the FIRST segment, past its head snapshot.
	first := filepath.Join(dir, segName(jfirstSeg(t, dir)))
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncNever})
	err = j2.Replay(func(*journalRecord) error { return nil })
	if !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("replay of corrupt mid-history returned %v, want ErrJournalCorrupt", err)
	}
}

// jfirstSeg returns the lowest live segment index in dir.
func jfirstSeg(t *testing.T, dir string) uint64 {
	t.Helper()
	j := &Journal{cfg: JournalConfig{Dir: dir}}
	if err := j.scanSegments(); err != nil || len(j.segs) == 0 {
		t.Fatalf("scan: %v (%d segs)", err, len(j.segs))
	}
	return j.segs[0]
}

// TestJournalSnapshotRoundTrip: encode/decode is the identity on a
// populated snapshot.
func TestJournalSnapshotRoundTrip(t *testing.T) {
	s := &journalSnapshot{
		Conns: 3, Frames: 100, BadFrames: 1, Dupes: 2,
		Ingested: 90, Ticks: 8, QueueDropped: 4, FlowEvictions: 5,
		Delivered: 86, Accepted: 60, Deduped: 20, Quarantined: 6,
		Evicted: 7, Aged: 1, CtrlTick: 42,
		Clients: []clientSeqEntry{
			{ID: 1, Spans: []SeqSpan{{First: 1, Last: 30}, {First: 44, Last: 50}}},
			{ID: 9, Spans: []SeqSpan{{First: 1, Last: 40}}},
		},
	}
	withFlows(s,
		testFlow{flow: 0xDEAD, entries: []dataplane.DedupEntry{{Reporter: 4, Hop: 2}, {Reporter: 5, Hop: 3}}},
		testFlow{flow: 0xBEEF},
	)
	payload := encodeSnapshot(nil, s)
	if want := snapshotHeadLen(s) + flowRecordLen(2) + flowRecordLen(0); len(payload) != want {
		t.Fatalf("snapshot payload is %d bytes, the size functions say %d", len(payload), want)
	}
	var rec journalRecord
	if err := decodeJournalPayload(payload, &rec); err != nil {
		t.Fatal(err)
	}
	got := rec.snap
	if got == nil {
		t.Fatal("decoded record has no snapshot")
	}
	round := encodeSnapshot(nil, got)
	if !bytes.Equal(round, payload) {
		t.Fatal("snapshot encode/decode is not a fixed point")
	}
	if got.Ingested != 90 || got.CtrlTick != 42 || len(got.Clients) != 2 {
		t.Errorf("snapshot decoded as %+v", got)
	}
	if len(got.Clients[0].Spans) != 2 || got.Clients[0].Spans[1] != (SeqSpan{First: 44, Last: 50}) ||
		len(got.Clients[1].Spans) != 1 || got.Clients[1].Spans[0].Last != 40 {
		t.Errorf("client spans decoded as %+v", got.Clients)
	}
	if flows := snapshotFlows(got); len(flows) != 2 || len(flows[0].entries) != 2 || flows[0].entries[1].Hop != 3 {
		t.Errorf("flow windows decoded as %+v", flows)
	}
}

// TestJournalFsyncModes: all three policies accept appends and survive a
// close/reopen; interval mode's timer records a sync.
func TestJournalFsyncModes(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			j := openTestJournal(t, JournalConfig{Dir: dir, Fsync: p, FsyncEvery: 5 * time.Millisecond})
			appendReport(j, 1, 1, 1, 1)
			if p == FsyncInterval {
				deadline := time.Now().Add(2 * time.Second)
				for j.Stats().LastFsyncMS < 0 && time.Now().Before(deadline) {
					time.Sleep(2 * time.Millisecond)
				}
				if j.Stats().LastFsyncMS < 0 {
					t.Error("interval policy never synced")
				}
			}
			if p == FsyncAlways && j.Stats().LastFsyncMS < 0 {
				t.Error("always policy did not sync on commit")
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2 := openTestJournal(t, JournalConfig{Dir: dir, Fsync: p})
			if recs := replayAll(t, j2); len(recs) != 2 {
				t.Fatalf("replayed %d records, want 2", len(recs))
			}
		})
	}
}

// TestParseFsyncPolicy covers the flag surface.
func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"always": FsyncAlways, "interval": FsyncInterval, "never": FsyncNever, "": FsyncInterval,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bogus policy accepted")
	}
}

// FuzzJournalSegment: for arbitrary bytes, scanning a segment must not
// panic; every record the scanner accepts must decode or be refused;
// decoded records must re-encode to the identical payload (fixed point;
// a batch is re-encoded sub-record by sub-record, and a snapshot's flow
// section flow by flow from its iterator); and truncating the buffer
// anywhere must only ever shrink the valid record prefix (torn-tail
// tolerance).
func FuzzJournalSegment(f *testing.F) {
	f.Add(appendJournalRecord(nil, encodeSnapshot(nil, emptySnapshot())))
	f.Add(appendJournalRecord(nil, jtick(1, 2)))
	rep := appendJournalRecord(nil, jreport(3, item{seq: 4, flow: 5, reporter: 6, hops: 2, node: 1, hop: 1, members: []detect.SwitchID{8, 9}}))
	f.Add(rep)
	f.Add(append(append([]byte(nil), rep...), rep[:7]...)) // torn tail
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	batch := appendJournalRecord(nil, testBatch(
		jreport(3, item{seq: 5, flow: 5, reporter: 6, hops: 2, node: 1, hop: 2, members: []detect.SwitchID{8, 9, 10}}),
		jtick(3, 6),
		jreport(3, item{seq: 7, flow: 11, reporter: 4, hops: 3, hop: 0}),
	))
	f.Add(append(append([]byte(nil), rep...), batch...))                   // a record, then a mixed batch
	f.Add(append(append([]byte(nil), batch...), batch[:len(batch)-20]...)) // a batch, then a torn one
	f.Fuzz(func(t *testing.T, data []byte) {
		var payloads [][]byte
		end, _ := scanRecords(data, func(_ int, p []byte) error {
			payloads = append(payloads, append([]byte(nil), p...))
			return nil
		})
		if end > len(data) {
			t.Fatalf("scan ran past the buffer: %d > %d", end, len(data))
		}
		var rec journalRecord
		for _, p := range payloads {
			var round []byte
			if p[0] == jrecBatch {
				round = []byte{jrecBatch}
			}
			err := eachRecord(p, &rec, func() error {
				switch rec.kind {
				case jrecReport, jrecTick:
					round = appendJournalItem(round, rec.clientID, &rec.it)
				case jrecSnapshot:
					round = appendSnapshotHead(round, rec.snap, rec.snap.nFlows)
					for _, f := range snapshotFlows(rec.snap) {
						round = appendFlowRecord(round, f.flow, f.entries)
					}
				}
				return nil
			})
			if err != nil {
				if !errors.Is(err, errBadJournalRecord) {
					t.Fatalf("decoding a CRC-valid record: %v, want a malformed-record error", err)
				}
				continue // CRC-valid but semantically malformed is a decode error, not a panic
			}
			if !bytes.Equal(round, p) {
				t.Fatalf("decode/re-encode not a fixed point for kind %d", p[0])
			}
		}
		// Torn-tail property: any truncation yields a prefix of the
		// original record sequence, never new or different records.
		if len(data) > 0 {
			cut := data[:len(data)-1]
			n := 0
			scanRecords(cut, func(int, []byte) error { n++; return nil })
			if n > len(payloads) {
				t.Fatalf("truncated buffer parsed %d records, original only %d", n, len(payloads))
			}
		}
	})
}

// BenchmarkJournalAppend measures the per-record cost of the journaled
// ack path: encode a report into the batch frame under the journal
// lock, and per ack batch of 64 seal the frame and commit (flush to the
// OS) — what each accepted frame pays before its acknowledgement when
// ingest is journaled with the default (non-fsync-per-record) policy.
func BenchmarkJournalAppend(b *testing.B) {
	j, err := OpenJournal(JournalConfig{Dir: b.TempDir(), SegmentBytes: 1 << 30, Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	it := item{flow: 7, reporter: 3, hops: 12, node: 2, hop: 12, members: []detect.SwitchID{1, 2, 3, 4}}
	b.ReportAllocs()
	b.ResetTimer()
	const ackBatch = 64
	for i := 0; i < b.N; i++ {
		j.mu.Lock()
		it.seq = uint64(i) + 1
		j.batchAppendLocked(1, &it)
		if i%ackBatch == ackBatch-1 || i == b.N-1 {
			j.sealBatchLocked()
			j.commitLocked()
		}
		j.mu.Unlock()
	}
	b.StopTimer()
	b.SetBytes(int64(len(appendJournalItem(nil, 1, &it))))
	if j.Failed() {
		b.Fatalf("journal failed during benchmark: %+v", j.Stats())
	}
}

// testBatch returns a batch frame's payload holding subs, each a report
// or tick payload (or anything a test wants to plant there).
func testBatch(subs ...[]byte) []byte {
	p := []byte{jrecBatch}
	for _, sub := range subs {
		p = append(p, sub...)
	}
	return p
}

// ingestTestBatches streams batches through a journaled one-shard
// server's ingest path, committing after each as the connection reader
// does. Each batch lists sequence numbers from client 1: a negative one
// is a tick, and one already accounted is a retransmit; an even report
// carries members.
func ingestTestBatches(t *testing.T, srv *Server, batches ...[]int) {
	t.Helper()
	groups := make([][]item, len(srv.shards))
	cs := srv.clientState(1)
	for _, seqs := range batches {
		var batch []item
		for _, q := range seqs {
			if q < 0 {
				batch = append(batch, item{seq: uint64(-q), kind: itemTick})
				continue
			}
			ev := dataplane.LoopEvent{Flow: uint32(q), Node: 1}
			ev.Reporter, ev.Hops = 2, 3
			if q%2 == 0 {
				ev.Members = []detect.SwitchID{4, 5, detect.SwitchID(q)}
			}
			batch = append(batch, testItem(uint64(q), ev, q%7))
		}
		srv.ingestBatch(cs, 1, batch, groups)
		srv.journal.Commit()
	}
}

// replaySeqs returns the sequence numbers of every replayed report and
// tick, in journal order.
func replaySeqs(t *testing.T, j *Journal) []uint64 {
	t.Helper()
	var seqs []uint64
	for _, rec := range replayAll(t, j) {
		if rec.kind != jrecSnapshot {
			seqs = append(seqs, rec.it.seq)
		}
	}
	return seqs
}

// TestJournalBatchFrames: live ingest writes one frame per ack batch
// holding its new reports and ticks, none for a batch of retransmits;
// Appends, RecoveredRecords and Staged count reports, ticks and
// snapshots, not frames; and a truncation anywhere inside the last
// frame loses exactly that batch.
func TestJournalBatchFrames(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, JournalConfig{Dir: dir, Fsync: FsyncNever})
	srv := NewServer(ServerConfig{Shards: 1, Controller: microloopController, Journal: j})
	ingestTestBatches(t, srv, []int{1, 2, -3, 4}, []int{2, 4}, []int{5}, []int{6, -7, 8, 9})
	srv.Shutdown()
	if got := j.Stats().Appends; got != 1+9 {
		t.Errorf("Appends = %d, want 10: the genesis snapshot and 9 reports and ticks", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	var frames []int // each frame's offset
	var kinds []byte
	scanRecords(seg, func(off int, p []byte) error {
		frames, kinds = append(frames, off), append(kinds, p[0])
		return nil
	})
	if want := []byte{jrecSnapshot, jrecBatch, jrecBatch, jrecBatch}; !bytes.Equal(kinds, want) {
		t.Fatalf("segment holds frames of kinds %v, want %v: one batch frame per batch with a new record", kinds, want)
	}

	img := copyDir(t, dir)
	jr := openTestJournal(t, JournalConfig{Dir: img, Fsync: FsyncNever})
	st, err := NewStagedRecoveredServer(ServerConfig{Shards: 2, Controller: microloopController, Journal: jr})
	if err != nil {
		t.Fatal(err)
	}
	if st.Staged() != 9 {
		t.Errorf("Staged() = %d, want the 9 reports and ticks", st.Staged())
	}
	s, rs, err := st.Commit(nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
	if rs.Records != 10 || rs.Snapshots != 1 || rs.Ingested != 7 || rs.Ticks != 2 {
		t.Errorf("recovery stats %+v, want 10 records, 1 snapshot, 7 ingested, 2 ticks", rs)
	}

	last := frames[len(frames)-1]
	for cut := last + 1; cut < len(seg); cut++ {
		img := t.TempDir()
		if err := os.WriteFile(filepath.Join(img, segName(1)), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jr := openTestJournal(t, JournalConfig{Dir: img, Fsync: FsyncNever})
		if got := jr.Stats().TruncatedBytes; got != int64(cut-last) {
			t.Fatalf("cut at %d: truncated %d bytes, want the %d of the torn frame", cut, got, cut-last)
		}
		if got, want := replaySeqs(t, jr), []uint64{1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: replayed seqs %v, want %v: the last batch lost whole, no other", cut, got, want)
		}
	}
}

// TestJournalBadSubRecordCorrupt: a batch frame whose CRC holds but
// whose second sub-record does not decode is refused with
// ErrJournalCorrupt, by recovery and by the reference alike, whether it
// sits in a segment a later snapshot supersedes or at the tail of the
// last segment.
func TestJournalBadSubRecordCorrupt(t *testing.T) {
	good := jreport(1, item{seq: 1, flow: 9, reporter: 2, hops: 3, hop: 4, members: []detect.SwitchID{4}})
	bad := map[string][]byte{
		"unknown kind":        {9, 0, 0},
		"nested snapshot":     encodeSnapshot(nil, emptySnapshot()),
		"short tick":          jtick(1, 2)[:16],
		"report past the end": jreport(1, item{seq: 2, flow: 9, hop: 4, members: []detect.SwitchID{1, 2}})[:45],
		"members over cap": append(jreport(1, item{seq: 2, flow: 9, hop: 4})[:journalReportLen-2],
			byte((MaxMembers+1)>>8), byte(MaxMembers+1)),
	}
	genesis := appendJournalRecord(nil, encodeSnapshot(nil, emptySnapshot()))
	newest := appendJournalRecord(nil, encodeSnapshot(nil, &journalSnapshot{
		Ingested: 2, Clients: []clientSeqEntry{{ID: 1, Spans: []SeqSpan{{First: 1, Last: 2}}}},
	}))
	tail := appendJournalRecord(nil, jtick(1, 3))
	for name, sub := range bad {
		frame := appendJournalRecord(nil, testBatch(good, sub))
		for where, segs := range map[string][][]byte{
			"mid-history": {append(append([]byte(nil), genesis...), frame...), append(append([]byte(nil), newest...), tail...)},
			"at the tail": {append(append([]byte(nil), genesis...), frame...)},
		} {
			t.Run(name+" "+where, func(t *testing.T) {
				dir := t.TempDir()
				writeSegments(t, dir, segs)
				for _, reference := range []bool{false, true} {
					_, err := recoverImage(t, copyDir(t, dir), ServerConfig{Shards: 2, Controller: microloopController}, reference, nil)
					if !errors.Is(err, ErrJournalCorrupt) {
						t.Fatalf("reference=%v: recovery returned %v, want ErrJournalCorrupt", reference, err)
					}
				}
			})
		}
	}
}

// TestJournalRetentionKeepsUnremovableSegment: retention that cannot
// remove a segment keeps it listed, so the Segments gauge shows it, and
// removes it at a later rotation once it can.
func TestJournalRetentionKeepsUnremovableSegment(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, JournalConfig{Dir: dir, SegmentBytes: 1, MaxSegments: 2, Fsync: FsyncNever})
	rotate := func() {
		j.mu.Lock()
		j.rotateLocked(encodeSnapshot(beginRecord(nil), emptySnapshot()))
		j.mu.Unlock()
	}
	rotate() // segments 1 and 2
	// Segment 1 becomes a directory os.Remove cannot delete.
	oldest := filepath.Join(dir, segName(1))
	if err := os.Remove(oldest); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(oldest, "pinned"), 0o755); err != nil {
		t.Fatal(err)
	}
	rotate()
	rotate() // segments 1 to 4: 1 and 2 are due for removal
	if st := j.Stats(); st.Segments != 3 || j.Failed() {
		t.Fatalf("after the failed removals: %d segments, failed %v; want the stuck one and the newest 2", st.Segments, j.Failed())
	}
	if _, err := os.Stat(oldest); err != nil {
		t.Fatalf("the stuck segment is gone: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(2))); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("segment 2 survived retention: %v", err)
	}
	if err := os.RemoveAll(filepath.Join(oldest, "pinned")); err != nil {
		t.Fatal(err)
	}
	rotate()
	if st := j.Stats(); st.Segments != 2 {
		t.Fatalf("%d segments once the stuck one could go, want 2", st.Segments)
	}
	if _, err := os.Stat(oldest); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the stuck segment survived the retry: %v", err)
	}
}

// TestScanSegmentFileMatchesScanRecords: a segment read in pieces
// yields the frames, offsets and end that scanning it whole does —
// frames cut by a piece boundary, a frame longer than a piece, and a
// flipped byte, a tear or an overrunning length prefix included.
func TestScanSegmentFileMatchesScanRecords(t *testing.T) {
	var seg []byte
	for i := 0; len(seg) < 3*pieceBytes; i++ {
		it := item{seq: uint64(i), flow: uint32(i), reporter: 1, hops: 2, hop: 3, members: make([]detect.SwitchID, i%5)}
		seg = appendJournalRecord(seg, testBatch(jreport(1, it), jtick(1, uint64(i))))
		if i == 100 {
			seg = appendJournalRecord(seg, make([]byte, pieceBytes+pieceBytes/2)) // longer than a piece
		}
	}
	type frame struct {
		off int
		sum uint32
	}
	scan := func(data []byte) (int, []frame) {
		var frames []frame
		end, _ := scanRecords(data, func(off int, p []byte) error {
			frames = append(frames, frame{off, crc32.ChecksumIEEE(p)})
			return nil
		})
		return end, frames
	}
	flipped := bytes.Clone(seg)
	flipped[2*pieceBytes+17] ^= 0x40
	overrun := bytes.Clone(seg[:pieceBytes-3])
	overrun = append(overrun, 0x7F, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4, 5)
	var buf []byte
	for name, data := range map[string][]byte{
		"whole": seg, "flipped": flipped, "torn": seg[:len(seg)-5], "overrun": overrun, "empty": nil,
	} {
		path := filepath.Join(t.TempDir(), segName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got []frame
		end, size, b, err := scanSegmentFile(path, buf, func(off int, p []byte) error {
			got = append(got, frame{off, crc32.ChecksumIEEE(p)})
			return nil
		})
		buf = b
		wantEnd, want := scan(data)
		if err != nil || end != wantEnd || size != len(data) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d frames to byte %d of %d (%v), scanning whole %d frames to byte %d of %d",
				name, len(got), end, size, err, len(want), wantEnd, len(data))
		}
	}
}
