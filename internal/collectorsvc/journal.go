package collectorsvc

// The write-ahead journal: what makes collectord's exactly-once promise
// survive a SIGKILL of the *process*, not just a kill of a connection.
//
// Layout: a directory of fixed-prefix segment files
// (journal-00000001.wal, journal-00000002.wal, ...). Every record is
//
//	[payload len u32][crc32(payload) u32][payload]
//
// big-endian, CRC-32 (IEEE) over the payload bytes. Payloads are typed:
//
//	jrecReport   [type u8][client u64][seq u64][hop u32][flow u32]
//	             [reporter u32][hops u32][node u32][count u16][members u32×n]
//	jrecTick     [type u8][client u64][seq u64]
//	jrecSnapshot [type u8][ver u8][server counters][controller baseline]
//	             [client seq table][per-flow dedup windows]
//
// A snapshot's flow section lists every flow's dedup window keyed by
// flow, not by shard, so any shard count can recover it. A rotation
// writes it straight from the shard flow tables: shard by shard, each
// shard's flows in first-seen order. Replay routes every flow through
// the recovering server's own shard hash, so the order carries no
// meaning (journals that list flows ascending recover the same way);
// a flow listed twice is corruption.
//
// Every segment *starts* with a snapshot record, so any suffix of the
// segment list is self-contained: what any snapshot records is also in
// every later one. Recovery therefore checks every record but applies
// only the newest snapshot and re-delivers the records after it. That
// is what makes bounded retention safe — dropping the oldest segments
// never orphans the records that remain.
//
// Torn tails: a crash can leave a half-written record at the end of the
// last segment. Replay stops at the first record whose length prefix
// overruns the file or whose CRC mismatches, and Open truncates the file
// back to the last valid boundary before appending. A tear anywhere but
// the final segment means the journal was corrupted at rest (not by a
// crash mid-append) and is surfaced as an error instead of silently
// skipped.
//
// Durability model: records are buffered in userspace and always flushed
// to the OS before the server acknowledges a frame (Commit), so a
// process kill — SIGKILL included — loses nothing that was acked. What
// fsync policy buys is *machine*-crash durability: FsyncAlways syncs
// before every ack, FsyncInterval (default) syncs on a timer, FsyncNever
// leaves it to the OS entirely.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
)

// FsyncPolicy selects when the journal calls File.Sync.
type FsyncPolicy int

const (
	// FsyncInterval syncs on a background timer (FsyncEvery): bounded
	// data-at-risk on machine crash, near-zero per-ack latency. The
	// default.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs before every acknowledgement: no acked record is
	// ever lost, even to a power cut, at the cost of one fsync per ack
	// batch.
	FsyncAlways
	// FsyncNever never syncs explicitly: process kills still lose
	// nothing (the OS has every acked byte), machine crashes may.
	FsyncNever
)

// ParseFsyncPolicy maps the -fsync flag values to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "interval", "":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("collectorsvc: unknown fsync policy %q (want always, interval, or never)", s)
}

// String renders the policy as its flag value.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "interval"
	}
}

// JournalConfig tunes the write-ahead journal. Zero values select the
// defaults noted per field.
type JournalConfig struct {
	// Dir is the journal directory, created if absent. Required.
	Dir string
	// SegmentBytes rotates the active segment once it exceeds this size.
	// Rotation writes a fresh snapshot, so larger segments mean longer
	// replays and smaller ones mean more frequent snapshot barriers.
	// <= 0 selects DefaultSegmentBytes.
	SegmentBytes int64
	// MaxSegments bounds retention: after a rotation, only the newest
	// MaxSegments segments (including the new active one) are kept.
	// Every segment starts with a snapshot, so dropping old segments
	// never loses accounting — it only trims how far back the replayable
	// event history reaches. <= 0 selects DefaultMaxSegments.
	MaxSegments int
	// Fsync selects the sync policy (see FsyncPolicy).
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval timer period. <= 0 selects
	// DefaultFsyncEvery.
	FsyncEvery time.Duration
}

// Defaults for JournalConfig's knobs.
const (
	DefaultSegmentBytes = 8 << 20
	DefaultMaxSegments  = 8
	DefaultFsyncEvery   = 100 * time.Millisecond
)

// Journal record types.
const (
	jrecSnapshot = 1
	jrecReport   = 2
	jrecTick     = 3
)

// journalRecHeader is [len u32][crc u32].
const journalRecHeader = 8

// snapshotVersion versions the snapshot payload layout. v2 widened the
// client table from a single high-water mark per client to the full
// accounted span list (plus the CrossDupes baseline) — the state the
// cluster recovery handoff serves to rejoining peers.
const snapshotVersion = 2

// ErrJournalCorrupt marks a tear or CRC failure outside the final
// segment's tail — corruption at rest, which recovery refuses to paper
// over.
var ErrJournalCorrupt = errors.New("collectorsvc: journal corrupt")

// JournalStats is a snapshot of the journal gauges served on /statsz.
type JournalStats struct {
	// Segments and Bytes size the on-disk journal right now.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// LastFsyncMS is the age of the last fsync in milliseconds (-1
	// before the first).
	LastFsyncMS int64 `json:"last_fsync_ms"`
	// Appends counts records written; AppendErrors counts failed writes
	// (durability degraded, never in-process delivery).
	Appends      uint64 `json:"appends"`
	AppendErrors uint64 `json:"append_errors"`
	// Rotations counts segment rotations (each writes a snapshot).
	Rotations uint64 `json:"rotations"`
	// RecoveredRecords / RecoveredSnapshots count what Replay applied;
	// TruncatedBytes is the torn tail discarded at open.
	RecoveredRecords   uint64 `json:"recovered_records"`
	RecoveredSnapshots uint64 `json:"recovered_snapshots"`
	TruncatedBytes     int64  `json:"truncated_bytes"`
}

// Journal is a segmented, CRC-checksummed write-ahead log. The zero
// value is not usable; OpenJournal both creates and recovers one.
//
// Locking: mu serializes appends, rotation, and sync. The server's
// ingest path holds mu across its account-append-enqueue sequence so a
// rotation snapshot always sees a consistent cut (see Server.handle).
type Journal struct {
	cfg JournalConfig

	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	segIndex uint64   // active segment number
	segSize  int64    // bytes in the active segment
	segs     []uint64 // live segment numbers, ascending (includes active)
	dirty    bool     // bytes flushed to OS since the last sync
	failed   bool     // an append or sync failed; durability degraded
	scratch  []byte   // reusable record-encode buffer (header + payload) for batch appends

	lastSync     time.Time
	appends      uint64
	appendErrs   uint64
	rotations    uint64
	replayedRecs uint64
	replayedSnap uint64
	truncated    int64
	// tail is the last segment's valid records as OpenJournal's torn-tail
	// scan read them, kept for Replay so the segment is read once. Replay
	// and rotation drop it.
	tail []byte

	closeOnce sync.Once
	stopSync  chan struct{}
	syncDone  chan struct{}
}

// segName renders a segment file name; indices are 1-based.
func segName(idx uint64) string { return fmt.Sprintf("journal-%08d.wal", idx) }

// OpenJournal opens (creating if needed) the journal in cfg.Dir and
// positions it for appending: existing segments are scanned, the final
// segment's torn tail (if any) is truncated to the last valid record
// boundary, and the background fsync timer starts for FsyncInterval.
// The caller replays history with Replay before appending new records.
func OpenJournal(cfg JournalConfig) (*Journal, error) {
	if cfg.Dir == "" {
		return nil, errors.New("collectorsvc: journal dir is required")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if cfg.MaxSegments <= 0 {
		cfg.MaxSegments = DefaultMaxSegments
	}
	if cfg.FsyncEvery <= 0 {
		cfg.FsyncEvery = DefaultFsyncEvery
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("collectorsvc: journal dir: %w", err)
	}
	j := &Journal{cfg: cfg, stopSync: make(chan struct{}), syncDone: make(chan struct{})}
	if err := j.scanSegments(); err != nil {
		return nil, err
	}
	if len(j.segs) == 0 {
		// Genesis: segment 1 opens with an empty-state snapshot so the
		// self-contained-suffix invariant holds from the first byte.
		if err := j.openSegmentLocked(1, encodeSnapshot(beginRecord(nil), emptySnapshot())); err != nil {
			return nil, err
		}
	} else {
		last := j.segs[len(j.segs)-1]
		path := filepath.Join(cfg.Dir, segName(last))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("collectorsvc: reading journal segment: %w", err)
		}
		valid, _ := scanRecords(data, nil)
		if valid < len(data) {
			if err := os.Truncate(path, int64(valid)); err != nil {
				return nil, fmt.Errorf("collectorsvc: truncating torn journal tail: %w", err)
			}
			j.truncated = int64(len(data) - valid)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("collectorsvc: reopening journal segment: %w", err)
		}
		j.f = f
		j.bw = bufio.NewWriterSize(f, 1<<16)
		j.segIndex = last
		j.segSize = int64(valid)
		j.tail = data[:valid:valid]
	}
	go j.syncLoop()
	return j, nil
}

// scanSegments lists the live segment numbers in ascending order.
func (j *Journal) scanSegments() error {
	entries, err := os.ReadDir(j.cfg.Dir)
	if err != nil {
		return fmt.Errorf("collectorsvc: scanning journal dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "journal-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		var idx uint64
		if _, err := fmt.Sscanf(name, "journal-%d.wal", &idx); err != nil || idx == 0 {
			continue
		}
		j.segs = append(j.segs, idx)
	}
	sort.Slice(j.segs, func(a, b int) bool { return j.segs[a] < j.segs[b] })
	return nil
}

// scanRecords walks buf record by record, calling fn (when non-nil) with
// each valid record's offset and payload, and returns the byte offset of
// the first invalid record (== len(buf) when every byte parses). It
// stops early at the first error fn returns, and returns that record's
// offset and the error.
func scanRecords(buf []byte, fn func(off int, payload []byte) error) (int, error) {
	off := 0
	for {
		rest := buf[off:]
		if len(rest) < journalRecHeader {
			return off, nil
		}
		n := int(binary.BigEndian.Uint32(rest))
		if n < 1 || n > len(rest)-journalRecHeader {
			return off, nil
		}
		payload := rest[journalRecHeader : journalRecHeader+n]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(rest[4:]) {
			return off, nil
		}
		if fn != nil {
			if err := fn(off, payload); err != nil {
				return off, err
			}
		}
		off += journalRecHeader + n
	}
}

// nextPayload splits the first record off buf, whose records scanRecords
// has already checked: it returns that record's payload and the rest.
func nextPayload(buf []byte) (payload, rest []byte) {
	end := journalRecHeader + int(binary.BigEndian.Uint32(buf))
	return buf[journalRecHeader:end], buf[end:]
}

// openSegmentLocked creates segment idx, writes headSnapshot (a
// snapshot record begun with beginRecord) into it, and makes it the
// active segment.
func (j *Journal) openSegmentLocked(idx uint64, headSnapshot []byte) error {
	path := filepath.Join(j.cfg.Dir, segName(idx))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("collectorsvc: creating journal segment: %w", err)
	}
	j.f = f
	j.bw = bufio.NewWriterSize(f, 1<<16)
	j.segIndex = idx
	j.segSize = 0
	j.segs = append(j.segs, idx)
	j.tail = nil
	j.appendLocked(headSnapshot)
	if err := j.bw.Flush(); err != nil {
		return fmt.Errorf("collectorsvc: writing segment snapshot: %w", err)
	}
	return nil
}

// beginRecord starts a record at the end of dst: it reserves the
// journalRecHeader bytes that sealRecord fills in once the payload has
// been appended behind them. Header and payload then share one buffer
// and reach the segment in one Write.
func beginRecord(dst []byte) []byte {
	return append(dst, make([]byte, journalRecHeader)...)
}

// sealRecord fills in the header of rec, a whole record begun with
// beginRecord: the payload's length and CRC.
func sealRecord(rec []byte) {
	payload := rec[journalRecHeader:]
	binary.BigEndian.PutUint32(rec, uint32(len(payload)))
	binary.BigEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(payload))
}

// appendLocked seals and writes one record, begun with beginRecord, in a
// single Write. Errors mark the journal failed and are counted, not
// returned: a disk failure degrades durability but must never block
// in-process delivery (the caller still enqueues the event; /healthz
// turns unready).
func (j *Journal) appendLocked(rec []byte) {
	sealRecord(rec)
	j.appends++
	if _, err := j.bw.Write(rec); err != nil {
		j.appendErrs++
		j.failed = true
		return
	}
	j.segSize += int64(len(rec))
	j.dirty = true
}

// appendReportLocked encodes and appends one report record through the
// journal's reusable scratch buffer — the batch-append API: the
// server's ingest loop calls it once per new frame while holding mu
// across the whole batch, so a batch costs zero allocations and one
// Commit (one flush, and under FsyncAlways one fsync) covers every
// record in it.
func (j *Journal) appendReportLocked(clientID, seq uint64, ev LoopEventRecord, hop int) {
	j.scratch = appendJournalReport(beginRecord(j.scratch[:0]), clientID, seq, ev, hop)
	j.appendLocked(j.scratch)
}

// appendTickLocked encodes and appends one tick record through the
// shared scratch; see appendReportLocked.
func (j *Journal) appendTickLocked(clientID, seq uint64) {
	j.scratch = appendJournalTick(beginRecord(j.scratch[:0]), clientID, seq)
	j.appendLocked(j.scratch)
}

// needsRotateLocked reports whether the active segment is over size.
func (j *Journal) needsRotateLocked() bool {
	return j.segSize >= j.cfg.SegmentBytes
}

// rotateLocked finishes the active segment, opens the next one with
// snapshot (a record begun with beginRecord) at its head, and enforces
// retention. The caller (the server's ingest path) is responsible for
// quiescing the shards so snapshot is a consistent cut.
func (j *Journal) rotateLocked(snapshot []byte) {
	if err := j.bw.Flush(); err != nil {
		j.failed = true
	}
	if j.cfg.Fsync != FsyncNever {
		if err := j.f.Sync(); err != nil {
			j.failed = true
		}
		j.lastSync = time.Now()
	}
	j.f.Close()
	if err := j.openSegmentLocked(j.segIndex+1, snapshot); err != nil {
		j.failed = true
		j.appendErrs++
		return
	}
	j.rotations++
	j.dirty = false
	// Retention: every segment starts with a snapshot, so the newest
	// MaxSegments are always self-contained.
	for len(j.segs) > j.cfg.MaxSegments {
		os.Remove(filepath.Join(j.cfg.Dir, segName(j.segs[0])))
		j.segs = j.segs[1:]
	}
}

// commitLocked makes everything appended so far crash-safe per policy:
// flush to the OS always, fsync when the policy says so. Called before
// each acknowledgement batch.
func (j *Journal) commitLocked() {
	if !j.dirty {
		return
	}
	if err := j.bw.Flush(); err != nil {
		j.failed = true
		j.appendErrs++
		return
	}
	if j.cfg.Fsync == FsyncAlways {
		if err := j.f.Sync(); err != nil {
			j.failed = true
			return
		}
		j.lastSync = time.Now()
	}
	j.dirty = false
}

// Commit makes everything appended so far crash-safe per policy — the
// server calls it before flushing an acknowledgement batch. It is the
// commit step of the commit-before-ack protocol (DESIGN §9): the
// commitorder analyzer requires a call to it on every path that reaches
// the ack write.
//
//unroller:commitpoint
func (j *Journal) Commit() {
	j.mu.Lock()
	j.commitLocked()
	j.mu.Unlock()
}

// syncLoop is the FsyncInterval timer: flush + sync whenever appends
// happened since the last pass.
func (j *Journal) syncLoop() {
	defer close(j.syncDone)
	if j.cfg.Fsync != FsyncInterval {
		<-j.stopSync
		return
	}
	t := time.NewTicker(j.cfg.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-j.stopSync:
			return
		case <-t.C:
			j.mu.Lock()
			if j.bw != nil {
				if err := j.bw.Flush(); err != nil {
					j.failed = true
					//unroller:allow lockscope -- interval fsync must serialize with appends; j.mu is the append lock and ingest tolerates the pause (FsyncInterval trades it for batched durability)
				} else if err := j.f.Sync(); err != nil {
					j.failed = true
				} else {
					j.lastSync = time.Now()
				}
			}
			j.mu.Unlock()
		}
	}
}

// journalRecord is one replayed record, decoded. Only the fields of its
// kind are set: clientID and seq for a tick, those plus hop and ev for a
// report, snap for a snapshot.
type journalRecord struct {
	kind     uint8
	clientID uint64
	seq      uint64
	hop      int
	ev       LoopEventRecord
	snap     *journalSnapshot
	// seg is the buffer of the segment the record was read from, segNo
	// that segment's position in the replay (0 for the oldest), and
	// seg[off:end] the whole record, header included.
	seg      []byte
	segNo    int
	off, end int
}

// LoopEventRecord mirrors dataplane.LoopEvent's journaled fields.
// (Defined locally so the journal codec is self-contained for fuzzing.)
type LoopEventRecord struct {
	Flow     uint32
	Reporter uint32
	Hops     int
	Node     int
	Members  []uint32
}

// Replay iterates every retained segment in order, decoding each record
// and passing it to apply; it stops at the first error apply returns
// and returns it. A record that does not decode, or a tear anywhere but
// at the end of the last segment, returns ErrJournalCorrupt; the torn
// tail of the final segment was already truncated at open.
//
// Every record is decoded into the same journalRecord, so apply must
// copy what it keeps of rec, Members included. Two things outlive the
// call: rec.snap, decoded afresh for each snapshot, and rec.seg, a
// segment buffer Replay never reuses or writes (rec.snap's flow section
// points into it).
//
// Each segment is read once: the last from the bytes OpenJournal's
// torn-tail scan read, unless records were appended since. The journal
// keeps no segment bytes once Replay returns.
func (j *Journal) Replay(apply func(rec *journalRecord) error) error {
	j.mu.Lock()
	segs := append([]uint64(nil), j.segs...)
	tail := j.tail
	if int64(len(tail)) != j.segSize {
		tail = nil // appended to since OpenJournal: read it afresh
	}
	j.tail = nil
	j.mu.Unlock()
	var rec journalRecord
	for i, idx := range segs {
		data := tail
		if i < len(segs)-1 || data == nil {
			var err error
			if data, err = os.ReadFile(filepath.Join(j.cfg.Dir, segName(idx))); err != nil {
				return fmt.Errorf("collectorsvc: replaying journal: %w", err)
			}
		}
		rec.seg, rec.segNo = data, i
		var recs, snaps uint64
		end, err := scanRecords(data, func(off int, payload []byte) error {
			if err := decodeJournalPayload(payload, &rec); err != nil {
				return fmt.Errorf("%w: segment %s, record at byte %d: %w", ErrJournalCorrupt, segName(idx), off, err)
			}
			rec.off, rec.end = off, off+journalRecHeader+len(payload)
			recs++
			if rec.kind == jrecSnapshot {
				snaps++
			}
			return apply(&rec)
		})
		j.mu.Lock()
		j.replayedRecs += recs
		j.replayedSnap += snaps
		j.mu.Unlock()
		if err != nil {
			return err
		}
		if end != len(data) && i != len(segs)-1 {
			return fmt.Errorf("%w: segment %s torn at byte %d of %d", ErrJournalCorrupt, segName(idx), end, len(data))
		}
	}
	return nil
}

// Close flushes, syncs, and stops the background timer. Idempotent;
// the journal is unusable afterwards.
func (j *Journal) Close() error {
	j.closeOnce.Do(func() { close(j.stopSync) })
	<-j.syncDone
	j.mu.Lock()
	defer j.mu.Unlock()
	var err error
	if j.bw != nil {
		err = j.bw.Flush()
		if j.cfg.Fsync != FsyncNever {
			//unroller:allow lockscope -- shutdown-only final sync; the sync loop has already stopped and no ingest path can contend for j.mu after closeOnce fires
			if serr := j.f.Sync(); err == nil {
				err = serr
			}
		}
		if cerr := j.f.Close(); err == nil {
			err = cerr
		}
		j.bw, j.f = nil, nil
	}
	j.tail = nil
	if err != nil {
		return fmt.Errorf("collectorsvc: closing journal: %w", err)
	}
	return nil
}

// Failed reports whether an append or sync has failed (durability
// degraded); /healthz turns unready on it.
func (j *Journal) Failed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.failed
}

// Stats snapshots the journal gauges.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JournalStats{
		Segments:           len(j.segs),
		Appends:            j.appends,
		AppendErrors:       j.appendErrs,
		Rotations:          j.rotations,
		RecoveredRecords:   j.replayedRecs,
		RecoveredSnapshots: j.replayedSnap,
		TruncatedBytes:     j.truncated,
		LastFsyncMS:        -1,
	}
	if !j.lastSync.IsZero() {
		st.LastFsyncMS = time.Since(j.lastSync).Milliseconds()
	}
	// The active segment size is tracked exactly; closed segments
	// rotated at ~SegmentBytes, so the gauge avoids a stat() per scrape.
	if n := len(j.segs); n > 0 {
		st.Bytes = int64(n-1)*j.cfg.SegmentBytes + j.segSize
	}
	return st
}

// --- record payload codecs ---

// appendJournalReport encodes a report record payload.
func appendJournalReport(dst []byte, clientID, seq uint64, ev LoopEventRecord, hop int) []byte {
	dst = append(dst, jrecReport)
	dst = binary.BigEndian.AppendUint64(dst, clientID)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(hop))
	dst = binary.BigEndian.AppendUint32(dst, ev.Flow)
	dst = binary.BigEndian.AppendUint32(dst, ev.Reporter)
	dst = binary.BigEndian.AppendUint32(dst, uint32(ev.Hops))
	dst = binary.BigEndian.AppendUint32(dst, uint32(ev.Node))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(ev.Members)))
	for _, m := range ev.Members {
		dst = binary.BigEndian.AppendUint32(dst, m)
	}
	return dst
}

// appendJournalTick encodes a tick record payload.
func appendJournalTick(dst []byte, clientID, seq uint64) []byte {
	dst = append(dst, jrecTick)
	dst = binary.BigEndian.AppendUint64(dst, clientID)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	return dst
}

// journalSnapshot is the decoded snapshot payload: the consistent cut a
// recovery resumes from. Counter baselines are cumulative totals at the
// cut; client seqs are the exactly-once high-water marks; dedup windows
// are the per-flow admission context, stored flat (flow-keyed) so the
// snapshot is valid for any shard count. The windows stay encoded: a
// decoded snapshot holds its flow section as the validated bytes and
// eachFlow walks them. A live rotation never builds a flow section
// here: it encodes the head from a journalSnapshot and the flow records
// straight from the shard flow tables (see Server.snapshotRecordLocked).
type journalSnapshot struct {
	// Server counter baselines, in ServerStats order.
	Conns, Frames, BadFrames, Dupes uint64
	CrossDupes                      uint64
	Ingested, Ticks                 uint64
	QueueDropped, FlowEvictions     uint64
	// Aggregate controller baseline. Buffered is always folded into
	// Evicted at capture (a crash discards the buffered ring, so the
	// snapshot accounts those events as evicted-by-recovery).
	Delivered, Accepted, Deduped         uint64
	Quarantined, Evicted, Aged, CtrlTick uint64
	// Client exactly-once state, ascending by ID: the full accounted
	// span list per client (the high-water mark is the last span's
	// Last).
	Clients []clientSeqEntry
	// The flow section: nFlows flow records as appendFlowRecord writes
	// them, per shard in first-seen order as a rotation writes them, in
	// any order as replay reads them, each flow at most once.
	flows  []byte
	nFlows int
}

type clientSeqEntry struct {
	ID    uint64
	Spans []SeqSpan
}

// emptySnapshot is the genesis state.
func emptySnapshot() *journalSnapshot { return &journalSnapshot{} }

// encodeSnapshot appends the payload of s, its flow section included:
// the genesis snapshot and the codec's tests. A live rotation writes the
// same layout through the same appendSnapshotHead and appendFlowRecord,
// taking the flows from the shard flow tables.
func encodeSnapshot(dst []byte, s *journalSnapshot) []byte {
	return append(appendSnapshotHead(dst, s, s.nFlows), s.flows...)
}

// snapshotCounters is the number of u64 counters in a snapshot head.
const snapshotCounters = 16

// snapshotHeadLen returns the encoded length of s's head, the part
// appendSnapshotHead writes.
func snapshotHeadLen(s *journalSnapshot) int {
	n := 2 + snapshotCounters*8 + 4
	for _, c := range s.Clients {
		n += 12 + 16*len(c.Spans)
	}
	return n + 4
}

// appendSnapshotHead appends a snapshot payload up to its flow section:
// type, version, counters, the client table, and nFlows, the number of
// flow records appendFlowRecord appends after it. s's own flow section
// is ignored.
func appendSnapshotHead(dst []byte, s *journalSnapshot, nFlows int) []byte {
	dst = append(dst, jrecSnapshot, snapshotVersion)
	for _, v := range [snapshotCounters]uint64{
		s.Conns, s.Frames, s.BadFrames, s.Dupes, s.CrossDupes,
		s.Ingested, s.Ticks,
		s.QueueDropped, s.FlowEvictions,
		s.Delivered, s.Accepted, s.Deduped, s.Quarantined, s.Evicted,
		s.Aged, s.CtrlTick,
	} {
		dst = binary.BigEndian.AppendUint64(dst, v)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s.Clients)))
	for _, c := range s.Clients {
		dst = binary.BigEndian.AppendUint64(dst, c.ID)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(c.Spans)))
		for _, sp := range c.Spans {
			dst = binary.BigEndian.AppendUint64(dst, sp.First)
			dst = binary.BigEndian.AppendUint64(dst, sp.Last)
		}
	}
	return binary.BigEndian.AppendUint32(dst, uint32(nFlows))
}

// flowRecordLen returns the encoded length of a flow record holding n
// window entries.
func flowRecordLen(n int) int { return 5 + 8*n }

// appendFlowRecord appends one flow's record to a snapshot's flow
// section: the flow, its entry count, and its window entries.
func appendFlowRecord(dst []byte, flow uint32, entries []dataplane.DedupEntry) []byte {
	dst = binary.BigEndian.AppendUint32(dst, flow)
	dst = append(dst, byte(len(entries)))
	for _, e := range entries {
		dst = binary.BigEndian.AppendUint32(dst, uint32(e.Reporter))
		dst = binary.BigEndian.AppendUint32(dst, uint32(e.Hop))
	}
	return dst
}

// eachFlow calls fn for every record of the snapshot's flow section, in
// order, with the flow and its window entries still encoded (8 bytes
// each, as appendFlowRecord writes them; appendDedupEntries reads
// them). It stops at the first error fn returns and returns it.
func (s *journalSnapshot) eachFlow(fn func(flow uint32, window []byte) error) error {
	b := s.flows
	for range s.nFlows {
		n := flowRecordLen(int(b[4]))
		if err := fn(binary.BigEndian.Uint32(b), b[5:n]); err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}

// appendDedupEntries appends the entries of an encoded window to dst.
func appendDedupEntries(dst []dataplane.DedupEntry, window []byte) []dataplane.DedupEntry {
	for ; len(window) >= 8; window = window[8:] {
		dst = append(dst, dataplane.DedupEntry{
			Reporter: detect.SwitchID(binary.BigEndian.Uint32(window)),
			Hop:      int(binary.BigEndian.Uint32(window[4:])),
		})
	}
	return dst
}

// errBadJournalRecord mirrors ErrBadFrame for the journal codec.
var errBadJournalRecord = errors.New("collectorsvc: malformed journal record")

// decodeJournalPayload parses one record payload (CRC already checked)
// into rec, reusing rec's Members buffer. A snapshot is decoded into a
// fresh journalSnapshot whose flow section points into p.
func decodeJournalPayload(p []byte, rec *journalRecord) error {
	if len(p) < 1 {
		return fmt.Errorf("%w: empty payload", errBadJournalRecord)
	}
	rec.kind, rec.snap = p[0], nil
	body := p[1:]
	switch rec.kind {
	case jrecReport:
		const fixed = 8 + 8 + 4 + 4 + 4 + 4 + 4 + 2
		if len(body) < fixed {
			return fmt.Errorf("%w: report record of %d bytes, want at least %d", errBadJournalRecord, len(body), fixed)
		}
		rec.clientID = binary.BigEndian.Uint64(body)
		rec.seq = binary.BigEndian.Uint64(body[8:])
		rec.hop = int(binary.BigEndian.Uint32(body[16:]))
		rec.ev.Flow = binary.BigEndian.Uint32(body[20:])
		rec.ev.Reporter = binary.BigEndian.Uint32(body[24:])
		rec.ev.Hops = int(binary.BigEndian.Uint32(body[28:]))
		rec.ev.Node = int(binary.BigEndian.Uint32(body[32:]))
		count := int(binary.BigEndian.Uint16(body[36:]))
		if count > MaxMembers {
			return fmt.Errorf("%w: %d members exceeds cap %d", errBadJournalRecord, count, MaxMembers)
		}
		if len(body) != fixed+4*count {
			return fmt.Errorf("%w: report record of %d bytes for %d members", errBadJournalRecord, len(body), count)
		}
		rec.ev.Members = rec.ev.Members[:0]
		for i := 0; i < count; i++ {
			rec.ev.Members = append(rec.ev.Members, binary.BigEndian.Uint32(body[fixed+4*i:]))
		}
	case jrecTick:
		if len(body) != 16 {
			return fmt.Errorf("%w: tick record of %d bytes, want 16", errBadJournalRecord, len(body))
		}
		rec.clientID = binary.BigEndian.Uint64(body)
		rec.seq = binary.BigEndian.Uint64(body[8:])
	case jrecSnapshot:
		snap, err := decodeSnapshot(body)
		if err != nil {
			return err
		}
		rec.snap = snap
	default:
		return fmt.Errorf("%w: unknown record type %d", errBadJournalRecord, rec.kind)
	}
	return nil
}

// decodeSnapshot parses a snapshot payload body (after the type byte).
func decodeSnapshot(body []byte) (*journalSnapshot, error) {
	if len(body) < 1 || body[0] != snapshotVersion {
		return nil, fmt.Errorf("%w: unknown snapshot version", errBadJournalRecord)
	}
	body = body[1:]
	if len(body) < snapshotCounters*8+8 {
		return nil, fmt.Errorf("%w: snapshot of %d bytes too short", errBadJournalRecord, len(body))
	}
	s := &journalSnapshot{}
	for i, dst := range [snapshotCounters]*uint64{
		&s.Conns, &s.Frames, &s.BadFrames, &s.Dupes, &s.CrossDupes,
		&s.Ingested, &s.Ticks,
		&s.QueueDropped, &s.FlowEvictions,
		&s.Delivered, &s.Accepted, &s.Deduped, &s.Quarantined, &s.Evicted,
		&s.Aged, &s.CtrlTick,
	} {
		*dst = binary.BigEndian.Uint64(body[8*i:])
	}
	body = body[snapshotCounters*8:]
	nClients := int(binary.BigEndian.Uint32(body))
	body = body[4:]
	if nClients > 0 {
		s.Clients = make([]clientSeqEntry, 0, min(nClients, 1<<16))
		for i := 0; i < nClients; i++ {
			if len(body) < 12 {
				return nil, fmt.Errorf("%w: snapshot client table overruns payload", errBadJournalRecord)
			}
			ce := clientSeqEntry{ID: binary.BigEndian.Uint64(body)}
			nSpans := int(binary.BigEndian.Uint32(body[8:]))
			body = body[12:]
			if len(body) < nSpans*16 {
				return nil, fmt.Errorf("%w: snapshot span list overruns payload", errBadJournalRecord)
			}
			if nSpans > 0 {
				ce.Spans = make([]SeqSpan, nSpans)
				for k := range ce.Spans {
					ce.Spans[k].First = binary.BigEndian.Uint64(body[16*k:])
					ce.Spans[k].Last = binary.BigEndian.Uint64(body[16*k+8:])
				}
			}
			body = body[nSpans*16:]
			s.Clients = append(s.Clients, ce)
		}
	}
	if len(body) < 4 {
		return nil, fmt.Errorf("%w: snapshot flow table missing", errBadJournalRecord)
	}
	nFlows := int(binary.BigEndian.Uint32(body))
	body = body[4:]
	// The flow section is checked record by record and kept encoded.
	// Every flow record is at least flowRecordLen(0) bytes, which bounds
	// the walk by the payload's size.
	if nFlows > len(body)/flowRecordLen(0) {
		return nil, fmt.Errorf("%w: snapshot flow table overruns payload", errBadJournalRecord)
	}
	s.flows, s.nFlows = body, nFlows
	for range nFlows {
		if len(body) < flowRecordLen(0) {
			return nil, fmt.Errorf("%w: snapshot flow entry overruns payload", errBadJournalRecord)
		}
		n := flowRecordLen(int(body[4]))
		if len(body) < n {
			return nil, fmt.Errorf("%w: snapshot window overruns payload", errBadJournalRecord)
		}
		body = body[n:]
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing snapshot bytes", errBadJournalRecord, len(body))
	}
	return s, nil
}

// appendJournalRecord appends a full record (header + payload) to dst —
// the framing appendLocked writes, exposed for tests and fuzzing.
func appendJournalRecord(dst, payload []byte) []byte {
	start := len(dst)
	dst = append(beginRecord(dst), payload...)
	sealRecord(dst[start:])
	return dst
}
