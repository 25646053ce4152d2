package collectorsvc

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/unroller/unroller/internal/dataplane"
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

// appendReport appends one report record and commits it, the way the
// server's ingest path does.
func appendReport(j *Journal, clientID, seq uint64, flow uint32, hop int) {
	ev := LoopEventRecord{Flow: flow, Reporter: flow + 1, Hops: 3, Node: 7, Members: []uint32{1, 2, 3}}
	j.mu.Lock()
	j.appendReportLocked(clientID, seq, ev, hop)
	j.commitLocked()
	j.mu.Unlock()
}

// replayAll collects a copy of every replayed record.
func replayAll(t *testing.T, j *Journal) []*journalRecord {
	t.Helper()
	var out []*journalRecord
	if err := j.Replay(func(rec *journalRecord) error {
		out = append(out, copyRecord(rec))
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

// copyRecord copies a record out of the one Replay reuses.
func copyRecord(rec *journalRecord) *journalRecord {
	c := *rec
	c.ev.Members = append([]uint32(nil), rec.ev.Members...)
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
	j.appendTickLocked(10, 3)
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
	if r.kind != jrecReport || r.clientID != 10 || r.seq != 1 || r.ev.Flow != 0xAABB || r.hop != 4 {
		t.Errorf("report 1 decoded as %+v", r)
	}
	if len(r.ev.Members) != 3 || r.ev.Members[2] != 3 {
		t.Errorf("report members decoded as %v", r.ev.Members)
	}
	if recs[3].kind != jrecTick || recs[3].seq != 3 {
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
			first = r.seq
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
	if recs := replayAll(t, j3); len(recs) != 3 || recs[2].seq != 2 {
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
	torn := appendJournalRecord(nil, appendJournalTick(nil, 7, 3))
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
	if len(recs) != 4 || recs[3].seq != 3 {
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
// panic; every record the scanner accepts must decode; decoded records
// must re-encode to the identical payload (fixed point; a snapshot's
// flow section is re-encoded flow by flow from its iterator); and
// truncating the buffer anywhere must only ever shrink the valid record
// prefix (torn-tail tolerance).
func FuzzJournalSegment(f *testing.F) {
	f.Add(appendJournalRecord(nil, encodeSnapshot(nil, emptySnapshot())))
	f.Add(appendJournalRecord(nil, appendJournalTick(nil, 1, 2)))
	rep := appendJournalRecord(nil, appendJournalReport(nil, 3, 4, LoopEventRecord{Flow: 5, Reporter: 6, Hops: 2, Node: 1, Members: []uint32{8, 9}}, 1))
	f.Add(rep)
	f.Add(append(append([]byte(nil), rep...), rep[:7]...)) // torn tail
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
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
			if err := decodeJournalPayload(p, &rec); err != nil {
				continue // CRC-valid but semantically malformed is a decode error, not a panic
			}
			var round []byte
			switch rec.kind {
			case jrecReport:
				round = appendJournalReport(nil, rec.clientID, rec.seq, rec.ev, rec.hop)
			case jrecTick:
				round = appendJournalTick(nil, rec.clientID, rec.seq)
			case jrecSnapshot:
				round = appendSnapshotHead(nil, rec.snap, rec.snap.nFlows)
				for _, f := range snapshotFlows(rec.snap) {
					round = appendFlowRecord(round, f.flow, f.entries)
				}
			}
			if !bytes.Equal(round, p) {
				t.Fatalf("decode/re-encode not a fixed point for kind %d", rec.kind)
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
// ack path: encode a report record, append it under the journal lock,
// and commit (flush to the OS) — exactly what each accepted frame pays
// before its acknowledgement when ingest is journaled with the default
// (non-fsync-per-record) policy.
func BenchmarkJournalAppend(b *testing.B) {
	j, err := OpenJournal(JournalConfig{Dir: b.TempDir(), SegmentBytes: 1 << 30, Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	ev := LoopEventRecord{Flow: 7, Reporter: 3, Hops: 12, Node: 2, Members: []uint32{1, 2, 3, 4}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.mu.Lock()
		j.appendReportLocked(1, uint64(i)+1, ev, 12)
		j.commitLocked()
		j.mu.Unlock()
	}
	b.StopTimer()
	b.SetBytes(int64(len(j.scratch)))
	if j.Failed() {
		b.Fatalf("journal failed during benchmark: %+v", j.Stats())
	}
}
