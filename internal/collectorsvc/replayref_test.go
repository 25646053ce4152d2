package collectorsvc

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
	"github.com/unroller/unroller/internal/xrand"
)

// refStaged is one post-snapshot record as the reference recovery
// stages it: a copy.
type refStaged struct {
	clientID uint64
	seq      uint64
	ev       dataplane.LoopEvent
	hop      int
	tick     bool
}

// refRecovery is the reference recovery: the straightforward replay the
// staged-by-reference one must agree with. It applies every snapshot in
// turn, stages a copy of every record after the latest, and delivers
// the staged reports one at a time.
type refRecovery struct {
	srv    *Server
	staged []refStaged
}

// referenceStage is the reference's NewStagedRecoveredServer.
func referenceStage(cfg ServerConfig) (*refRecovery, error) {
	s := buildServer(cfg)
	s.recovering = true
	st := &refRecovery{srv: s}
	stage := func(rec *journalRecord) {
		switch rec.kind {
		case jrecReport:
			st.staged = append(st.staged, refStaged{
				clientID: rec.clientID, seq: rec.seq,
				ev: recordToEvent(rec.ev), hop: rec.hop,
			})
		case jrecTick:
			st.staged = append(st.staged, refStaged{clientID: rec.clientID, seq: rec.seq, tick: true})
		}
	}
	err := cfg.Journal.Replay(func(rec *journalRecord) error {
		switch rec.kind {
		case jrecSnapshot:
			if err := s.applySnapshot(rec.snap, 0); err != nil {
				return err
			}
			st.staged = st.staged[:0]
		case jrecBatch:
			subs, err := refSubRecords(rec.batch)
			if err != nil {
				return err
			}
			for _, p := range subs {
				var sub journalRecord
				if err := decodeJournalPayload(p, &sub); err != nil {
					return fmt.Errorf("%w: %w", ErrJournalCorrupt, err)
				}
				stage(&sub)
			}
		default:
			stage(rec)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// refSubRecords is the reference's reading of a batch frame: it splits
// the sub-records, each a report or tick payload, by their kinds and
// member counts, and refuses a batch that holds none, a record of
// another kind or a last sub-record that does not fit, with
// ErrJournalCorrupt. The payloads it returns are left to
// decodeJournalPayload.
func refSubRecords(b []byte) ([][]byte, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: an empty batch", ErrJournalCorrupt)
	}
	var subs [][]byte
	for len(b) > 0 {
		var n int
		switch b[0] {
		case jrecTick:
			n = 17
		case jrecReport:
			if len(b) < 39 {
				return nil, fmt.Errorf("%w: a batch ends in %d bytes of a report", ErrJournalCorrupt, len(b))
			}
			n = 39 + 4*(int(b[37])<<8|int(b[38]))
		default:
			return nil, fmt.Errorf("%w: a batch holds a record of type %d", ErrJournalCorrupt, b[0])
		}
		if n > len(b) {
			return nil, fmt.Errorf("%w: a batch ends in %d bytes of a %d-byte record", ErrJournalCorrupt, len(b), n)
		}
		subs = append(subs, b[:n])
		b = b[n:]
	}
	return subs, nil
}

// commit is the reference's StagedRecovery.Commit.
func (st *refRecovery) commit(discard func(clientID, seq uint64) bool) (*Server, RecoveryStats, error) {
	s := st.srv
	for i := range st.staged {
		rec := &st.staged[i]
		if discard != nil && discard(rec.clientID, rec.seq) {
			s.crossDupes.Add(1)
			continue
		}
		if !s.clientState(rec.clientID).account(rec.seq) {
			return nil, RecoveryStats{}, fmt.Errorf("%w: replayed seq %d for client %d at or below high-water mark", ErrJournalCorrupt, rec.seq, rec.clientID)
		}
		if rec.tick {
			s.ticks.Add(1)
			for _, sh := range s.shards {
				sh.ctrl.Tick()
			}
			continue
		}
		s.ingested.Add(1)
		sh := s.shardFor(rec.ev.Flow)
		sh.ctrl.DeliverFlow(rec.ev, sh.window(rec.ev.Flow), rec.hop)
	}
	jst := s.journal.Stats()
	s.recoveryReport = RecoveryStats{
		Records:        jst.RecoveredRecords,
		Snapshots:      jst.RecoveredSnapshots,
		TruncatedBytes: jst.TruncatedBytes,
		Clients:        len(s.clients),
		Ingested:       s.ingested.Load(),
		Ticks:          s.ticks.Load(),
		CrossDupes:     s.crossDupes.Load(),
	}
	for _, sh := range s.shards {
		s.recoveryReport.Flows += sh.flows.len()
	}
	s.mu.Lock()
	s.recovering = false
	s.mu.Unlock()
	s.startWorkers()
	return s, s.recoveryReport, nil
}

// recovered is one recovery's outcome, read after Shutdown.
type recovered struct {
	rec    RecoveryStats
	staged int
	stats  ServerStats
	shards []dataplane.ControllerStats
	ctrl   dataplane.ControllerStats
	flows  [][]testFlow // per shard, in slot order
	spans  []ClientRange
	events []dataplane.LoopEvent
}

// recoverImage recovers a copy of the journal image in dir, through the
// reference or the staged-by-reference recovery.
func recoverImage(t *testing.T, dir string, cfg ServerConfig, reference bool, discard func(clientID, seq uint64) bool) (*recovered, error) {
	t.Helper()
	j, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cfg.Journal = j
	var (
		s      *Server
		rs     RecoveryStats
		staged int
	)
	if reference {
		st, err := referenceStage(cfg)
		if err != nil {
			return nil, err
		}
		staged = len(st.staged)
		if s, rs, err = st.commit(discard); err != nil {
			return nil, err
		}
	} else {
		st, err := NewStagedRecoveredServer(cfg)
		if err != nil {
			return nil, err
		}
		staged = st.Staged()
		if s, rs, err = st.Commit(discard); err != nil {
			return nil, err
		}
	}
	s.Shutdown()
	out := &recovered{
		rec: rs, staged: staged, stats: s.Stats(), shards: s.ShardStats(),
		ctrl: s.ControllerStats(), spans: s.ClientRanges(), events: s.Events(),
	}
	for _, sh := range s.shards {
		var fl []testFlow
		sh.flows.each(func(sl *flowSlot) {
			fl = append(fl, testFlow{flow: sl.flow, entries: sl.w.AppendEntries(nil)})
		})
		out.flows = append(out.flows, fl)
	}
	return out, nil
}

// compareRecoveries recovers dir both ways and fails t unless the two
// agree, or both refuse the journal as corrupt. It reports whether they
// recovered.
func compareRecoveries(t *testing.T, dir string, cfg ServerConfig, discard func(clientID, seq uint64) bool) bool {
	t.Helper()
	ref, refErr := recoverImage(t, copyDir(t, dir), cfg, true, discard)
	got, err := recoverImage(t, copyDir(t, dir), cfg, false, discard)
	if refErr != nil || err != nil {
		if !errors.Is(refErr, ErrJournalCorrupt) || !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("recovery returned %v, the reference %v; want both nil or both ErrJournalCorrupt", err, refErr)
		}
		return false
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("recovery differs from the reference:\ngot %+v\nref %+v", got, ref)
	}
	return true
}

// journalPlan shapes a journal writeTestJournal builds.
type journalPlan struct {
	seed     uint64
	segBytes int64
	retain   int
	maxFlows int
	batches  int
	tornHead bool // the newest segment's head snapshot is torn off at open, then appended to
	tornTail bool // a half-written record ends the newest segment
}

// testIngest streams seeded batches of reports and ticks from three
// clients through the server's own ingest path, committing the journal
// after each batch as the connection reader does. Some reports carry
// members, and some frames repeat an accounted sequence number.
func testIngest(srv *Server, r *xrand.Rand, next map[uint64]uint64, batches int) {
	groups := make([][]shardItem, len(srv.shards))
	for b := 0; b < batches; b++ {
		id := 1 + r.Uint64n(3)
		cs := srv.clientState(id)
		var batch []batchItem
		for k := 1 + r.Uint64n(12); k > 0; k-- {
			if next[id] > 0 && r.Uint64n(20) == 0 {
				batch = append(batch, batchItem{seq: next[id], tick: true}) // a retransmitted frame
				continue
			}
			next[id]++
			if r.Uint64n(25) == 0 {
				batch = append(batch, batchItem{seq: next[id], tick: true})
				continue
			}
			ev := dataplane.LoopEvent{
				Report: detect.Report{Reporter: detect.SwitchID(1 + r.Uint64n(5)), Hops: 3},
				Node:   int(r.Uint64n(9)),
				Flow:   uint32(r.Uint64n(48)),
			}
			if r.Uint64n(8) == 0 {
				for m := 2 + r.Uint64n(3); m > 0; m-- {
					ev.Members = append(ev.Members, detect.SwitchID(1+r.Uint64n(30)))
				}
			}
			batch = append(batch, batchItem{seq: next[id], ev: ev, hop: int(r.Uint64n(40))})
		}
		srv.ingestBatch(cs, id, batch, groups)
		srv.journal.Commit()
	}
}

// writeTestJournal builds a journal by live ingest into a journaled
// three-shard server and returns its directory.
func writeTestJournal(t *testing.T, p journalPlan) string {
	t.Helper()
	dir := t.TempDir()
	jcfg := JournalConfig{Dir: dir, SegmentBytes: p.segBytes, MaxSegments: p.retain, Fsync: FsyncNever}
	scfg := ServerConfig{Shards: 3, MaxFlows: p.maxFlows, Controller: microloopController}
	r := xrand.New(p.seed)
	next := make(map[uint64]uint64)
	run := func(batches int) {
		j, err := OpenJournal(jcfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg := scfg
		cfg.Journal = j
		srv, _, err := NewRecoveredServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		testIngest(srv, r, next, batches)
		srv.Shutdown()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	run(p.batches)
	if p.tornHead {
		// A crash mid-rotation: the next segment exists, but its head
		// snapshot was only partly written. Open truncates it to nothing
		// and the restarted server appends to it.
		last := jfirstSeg(t, dir)
		for {
			if _, err := os.Stat(filepath.Join(dir, segName(last+1))); err != nil {
				break
			}
			last++
		}
		head := appendJournalRecord(nil, encodeSnapshot(nil, emptySnapshot()))
		if err := os.WriteFile(filepath.Join(dir, segName(last+1)), head[:len(head)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		run(4)
	}
	if p.tornTail {
		j := &Journal{cfg: JournalConfig{Dir: dir}}
		if err := j.scanSegments(); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(filepath.Join(dir, segName(j.segs[len(j.segs)-1])), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		torn := appendJournalRecord(nil, appendJournalTick(nil, 1, next[1]+1))
		if _, err := f.Write(torn[:len(torn)-3]); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return dir
}

// TestRecoveryMatchesReference: on seeded journals with rotations under
// 2-4 segment retention, ticks, retransmits, reports with members,
// MaxFlows resets, torn tails and a newest segment that lost its head
// snapshot, recovery agrees with the reference recovery at 1, 3 and 7
// shards, with and without a staged-commit discard predicate: the same
// RecoveryStats, staged count, server and per-shard controller stats,
// per-shard flow tables in slot order, client spans and buffered
// events.
func TestRecoveryMatchesReference(t *testing.T) {
	plans := []journalPlan{
		{seed: 1, segBytes: 6144, retain: 2, maxFlows: 8, batches: 600, tornTail: true},
		{seed: 2, segBytes: 8192, retain: 3, maxFlows: 16, batches: 600, tornHead: true},
		{seed: 3, segBytes: 12288, retain: 4, maxFlows: 1000, batches: 600, tornHead: true, tornTail: true},
		{seed: 4, segBytes: 16384, retain: 2, maxFlows: 5, batches: 600},
	}
	discard := func(clientID, seq uint64) bool { return clientID == 2 && seq%4 == 0 }
	for _, p := range plans {
		dir := writeTestJournal(t, p)
		for _, shards := range []int{1, 3, 7} {
			cfg := ServerConfig{Shards: shards, MaxFlows: p.maxFlows, Controller: microloopController}
			for _, d := range []func(clientID, seq uint64) bool{nil, discard} {
				if !compareRecoveries(t, dir, cfg, d) {
					t.Fatalf("seed %d: a live-written journal was refused as corrupt", p.seed)
				}
			}
		}
		// The plan's features are really in the journal.
		got, err := recoverImage(t, copyDir(t, dir), ServerConfig{Shards: 3, MaxFlows: p.maxFlows, Controller: microloopController}, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.rec.Snapshots < 2 || got.staged == 0 || got.stats.Ticks == 0 || got.stats.Dupes == 0 {
			t.Errorf("seed %d: %d snapshots, %d staged, %d ticks, %d dupes: the journal lacks rotations, staged records, ticks or retransmits",
				p.seed, got.rec.Snapshots, got.staged, got.stats.Ticks, got.stats.Dupes)
		}
		if p.maxFlows < 48 && got.stats.FlowEvictions == 0 {
			t.Errorf("seed %d: no MaxFlows resets", p.seed)
		}
		if p.tornTail != (got.rec.TruncatedBytes > 0) {
			t.Errorf("seed %d: %d torn bytes truncated, torn tail planned %v", p.seed, got.rec.TruncatedBytes, p.tornTail)
		}
		j, err := OpenJournal(JournalConfig{Dir: copyDir(t, dir), Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		members := 0
		for _, rec := range replayAll(t, j) {
			if rec.kind == jrecReport && len(rec.ev.Members) > 0 {
				members++
			}
		}
		j.Close()
		if members == 0 {
			t.Errorf("seed %d: no journaled report carries members", p.seed)
		}
	}
}

// writeSegments writes segs as the journal's segment files 1, 2, ...
func writeSegments(t *testing.T, dir string, segs [][]byte) {
	t.Helper()
	for i, seg := range segs {
		if err := os.WriteFile(filepath.Join(dir, segName(uint64(i+1))), seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryRefusesCorruptSupersededHistory: recovery builds only the
// newest snapshot's state, but every check still covers the history it
// supersedes. Each journal below has a valid newest segment, and each
// is refused with ErrJournalCorrupt, by both recoveries.
func TestRecoveryRefusesCorruptSupersededHistory(t *testing.T) {
	genesis := appendJournalRecord(nil, encodeSnapshot(nil, emptySnapshot()))
	report := func(seq uint64) []byte {
		return appendJournalRecord(nil, appendJournalReport(nil, 1, seq, LoopEventRecord{Flow: 9, Reporter: 2, Hops: 3}, 4))
	}
	spans := func(last uint64) *journalSnapshot {
		return &journalSnapshot{Ingested: last, Clients: []clientSeqEntry{{ID: 1, Spans: []SeqSpan{{First: 1, Last: last}}}}}
	}
	cat := func(recs ...[]byte) []byte {
		var out []byte
		for _, r := range recs {
			out = append(out, r...)
		}
		return out
	}
	newest := appendJournalRecord(nil, encodeSnapshot(nil, withFlows(spans(2), testFlow{flow: 9})))
	cases := map[string][][]byte{
		"older segment's head snapshot lists a flow twice": {
			cat(appendJournalRecord(nil, encodeSnapshot(nil, withFlows(&journalSnapshot{},
				testFlow{flow: 7, entries: []dataplane.DedupEntry{{Reporter: 1, Hop: 2}}}, testFlow{flow: 8}, testFlow{flow: 7}))),
				report(1), report(2)),
			cat(newest, report(3)),
		},
		"older segment holds a record with a valid CRC that does not decode": {
			cat(genesis, report(1), appendJournalRecord(nil, []byte{jrecTick, 0, 1}), report(2)),
			cat(newest, report(3)),
		},
		"a staged sequence number at or below the snapshot's high-water mark": {
			cat(genesis, report(1), report(2)),
			cat(newest, report(3), report(3)),
		},
	}
	for name, segs := range cases {
		t.Run(name, func(t *testing.T) {
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
	// Without the corruption, each shape recovers: what is refused above
	// is the corruption, not the layout.
	dir := t.TempDir()
	writeSegments(t, dir, [][]byte{cat(genesis, report(1), report(2)), cat(newest, report(3))})
	if !compareRecoveries(t, dir, ServerConfig{Shards: 2, Controller: microloopController}, nil) {
		t.Fatal("a clean two-segment journal was refused")
	}
}

// writeFlatJournal writes a one-segment journal of n reports from one
// client, spread over 64 flows and 5 reporters, with no members, in
// batch frames of 256.
func writeFlatJournal(t *testing.T, dir string, n int) {
	t.Helper()
	j, err := OpenJournal(JournalConfig{Dir: dir, SegmentBytes: 1 << 30, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	for i := 0; i < n; i++ {
		j.batchReportLocked(1, uint64(i+1), LoopEventRecord{Flow: uint32(i % 64), Reporter: uint32(i%5 + 1), Hops: 3, Node: 1}, i%40)
		if i%256 == 255 {
			j.sealBatchLocked()
		}
	}
	j.sealBatchLocked()
	j.commitLocked()
	j.mu.Unlock()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// recoveryAllocs counts the heap allocations of a restart on the
// journal in dir: open, replay, commit.
func recoveryAllocs(t *testing.T, dir string) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	j, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := NewRecoveredServer(ServerConfig{Shards: 2, Controller: microloopController, Journal: j})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
	j.Close()
	return after.Mallocs - before.Mallocs
}

// TestRecoveryAllocationsFlat: recovery reuses one decoded record and
// stages records as byte ranges, so a journal ten times longer costs no
// more allocations to recover (reports without members allocate
// nothing).
func TestRecoveryAllocationsFlat(t *testing.T) {
	small, large := t.TempDir(), t.TempDir()
	writeFlatJournal(t, small, 20000)
	writeFlatJournal(t, large, 200000)
	a, b := recoveryAllocs(t, copyDir(t, small)), recoveryAllocs(t, copyDir(t, large))
	t.Logf("recovery allocations: %d for 20k reports, %d for 200k", a, b)
	const slack = 200
	if b > a+slack {
		t.Fatalf("recovering 200k reports took %d allocations, 20k took %d: more than %d apart", b, a, slack)
	}
}

// FuzzRecoverReference: a journal built from the input — reports,
// ticks, retransmits, snapshots with arbitrary windows and possibly
// duplicate flows, segments with and without head snapshots, records
// standalone and in batch frames, undecodable records and flipped
// bytes — recovers the same way through both recoveries, or both refuse
// it with ErrJournalCorrupt.
func FuzzRecoverReference(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2})
	f.Add([]byte{6, 8, 1, 0, 5, 1, 4, 2, 1, 3, 0, 0, 9, 12, 5, 0, 8, 3, 0, 0, 1, 7})
	f.Add([]byte{2, 1, 0, 4, 0, 4, 1, 3, 7, 7, 0, 7, 0, 1, 0, 9, 1, 0, 6, 0})
	f.Add([]byte{1, 2, 0, 0, 0, 0, 4, 1, 2, 0, 0, 0, 5, 0, 0, 1, 0, 7, 200, 0})
	f.Add([]byte{3, 9, 128, 0, 1, 1, 0, 3, 0, 131, 1, 129, 1, 2, 3, 5, 9, 0, 4, 1, 3, 0, 1, 128, 2, 1, 0, 2, 1, 2, 131, 0, 1, 3, 0, 2, 1, 0, 3})
	f.Add([]byte{4, 5, 128, 1, 1, 0, 2, 1, 3, 1, 1, 134, 2, 17, 130, 2, 1, 2, 0, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 512 {
			return
		}
		dir := t.TempDir()
		cfg := ServerConfig{Shards: 1 + int(data[0]%7), MaxFlows: 1 + int(data[1]%12), Controller: microloopController}
		var discard func(clientID, seq uint64) bool
		if data[0]&0x80 != 0 {
			discard = func(clientID, seq uint64) bool { return clientID == 2 && seq%3 == 0 }
		}
		writeSegments(t, dir, fuzzJournal(data[2:]))
		compareRecoveries(t, dir, cfg, discard)
	})
}

// fuzzJournal interprets data as a program that writes journal
// segments; see FuzzRecoverReference.
func fuzzJournal(data []byte) [][]byte {
	take := func() uint32 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return uint32(b)
	}
	next := map[uint64]uint64{}
	snapshot := func() []byte {
		s := &journalSnapshot{Ingested: uint64(take()), Delivered: uint64(take()), CtrlTick: uint64(take() % 4)}
		for id := uint64(1); id <= 3; id++ {
			if next[id] > 0 {
				s.Clients = append(s.Clients, clientSeqEntry{ID: id, Spans: []SeqSpan{{First: 1, Last: next[id]}}})
			}
		}
		var flows []testFlow
		for n := take() % 6; n > 0; n-- {
			fl := testFlow{flow: take() % 20}
			for k := take() % 10; k > 0; k-- {
				fl.entries = append(fl.entries, dataplane.DedupEntry{Reporter: detect.SwitchID(1 + take()%4), Hop: int(take())})
			}
			flows = append(flows, fl)
		}
		return appendJournalRecord(nil, encodeSnapshot(nil, withFlows(s, flows...)))
	}
	segs := [][]byte{appendJournalRecord(nil, encodeSnapshot(nil, emptySnapshot()))}
	// An op of 128 or more puts its report, tick or undecodable record
	// into the open batch frame; any other op first seals it at the end
	// of the current segment.
	var batch []byte
	seal := func() {
		if batch != nil {
			segs[len(segs)-1] = appendJournalRecord(segs[len(segs)-1], batch)
			batch = nil
		}
	}
	for len(data) > 0 {
		op := take()
		inBatch := op >= 128 && op%8 != 4 && op%8 != 5 && op%8 != 7
		if !inBatch {
			seal()
		}
		cur := &segs[len(segs)-1]
		write := func(payload []byte) {
			if !inBatch {
				*cur = appendJournalRecord(*cur, payload)
				return
			}
			if batch == nil {
				batch = []byte{jrecBatch}
			}
			batch = append(batch, payload...)
		}
		switch op % 8 {
		case 0, 1, 2:
			id := uint64(1 + take()%3)
			if take()%16 != 0 {
				next[id]++
			}
			ev := LoopEventRecord{Flow: take() % 20, Reporter: 1 + take()%4, Hops: 3, Node: 1}
			for m := take() % 4; m > 1; m-- {
				ev.Members = append(ev.Members, m)
			}
			write(appendJournalReport(nil, id, next[id], ev, int(take()%32)))
		case 3:
			id := uint64(1 + take()%3)
			next[id]++
			write(appendJournalTick(nil, id, next[id]))
		case 4:
			if take()%2 == 0 {
				segs = append(segs, snapshot())
			} else {
				*cur = append(*cur, snapshot()...)
			}
		case 5:
			segs = append(segs, nil) // a segment whose head snapshot was lost
		case 6:
			write([]byte{byte(take()), byte(take())})
		case 7:
			if len(*cur) > 0 {
				(*cur)[int(take())*7%len(*cur)] ^= 0x5A
			}
		}
	}
	seal()
	return segs
}

// BenchmarkRecover measures one restart on a fixed journal: 60000
// reports and 600 ticks from four clients, a tenth with members, over
// 8192 flows, in 1 MiB segments, so the replay checks several rotation
// snapshots and applies only the newest. It reports records/op, the
// records replayed per restart.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	j, err := OpenJournal(JournalConfig{Dir: dir, SegmentBytes: 1 << 20, MaxSegments: 8, Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	live, _, err := NewRecoveredServer(ServerConfig{Shards: 4, Controller: microloopController, Journal: j})
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(7)
	groups := make([][]shardItem, len(live.shards))
	var seq [4]uint64
	for i := 0; i < 600; i++ {
		id := uint64(i % 4)
		batch := make([]batchItem, 0, 101)
		for k := 0; k < 100; k++ {
			seq[id]++
			ev := dataplane.LoopEvent{
				Report: detect.Report{Reporter: detect.SwitchID(1 + r.Uint64n(4)), Hops: 3},
				Flow:   uint32(r.Uint64n(8192)),
			}
			if r.Uint64n(10) == 0 {
				ev.Members = []detect.SwitchID{1, 2, 3}
			}
			batch = append(batch, batchItem{seq: seq[id], ev: ev, hop: int(r.Uint64n(40))})
		}
		seq[id]++
		batch = append(batch, batchItem{seq: seq[id], tick: true})
		live.ingestBatch(live.clientState(id+1), id+1, batch, groups)
		j.Commit()
	}
	live.Shutdown()
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	var records uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jr, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
		if err != nil {
			b.Fatal(err)
		}
		s, rec, err := NewRecoveredServer(ServerConfig{Shards: 4, Controller: microloopController, Journal: jr})
		if err != nil {
			b.Fatal(err)
		}
		records = rec.Records
		b.StopTimer()
		s.Shutdown()
		jr.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(records), "records/op")
}
