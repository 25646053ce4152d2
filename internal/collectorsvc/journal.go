package collectorsvc

// The write-ahead journal: what makes collectord's exactly-once promise
// survive a SIGKILL of the *process*, not just a kill of a connection.
//
// Layout: a directory of fixed-prefix segment files
// (journal-00000001.wal, journal-00000002.wal, ...). Every frame is
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
//	jrecBatch    [type u8][sub-record]...
//
// A batch is what live ingest writes: one frame per ack batch (one
// Server.ingestBatch call), holding the batch's newly accounted reports
// and ticks in order, each sub-record a jrecReport or jrecTick payload
// verbatim. Sub-records carry no length or CRC of their own: each
// delimits itself by its type byte and, for a report, its member count,
// and the frame's one CRC covers them all. A batch holds at least one
// sub-record; a batch of duplicates writes no frame. Standalone report
// and tick records are the older layout, and still replay.
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
// Torn tails: a crash can leave a half-written frame at the end of the
// last segment. Replay stops at the first frame whose length prefix
// overruns the file or whose CRC mismatches, and Open truncates the file
// back to the last valid boundary before appending. A torn batch is lost
// whole: it is the unit the server commits and acknowledges together, so
// nothing in it was acked. A tear anywhere but the final segment means
// the journal was corrupted at rest (not by a crash mid-append) and is
// surfaced as an error instead of silently skipped.
//
// Durability model: records are buffered in userspace and always flushed
// to the OS before the server acknowledges a frame (Commit), so a
// process kill — SIGKILL included — loses nothing that was acked. What
// fsync policy buys is *machine*-crash durability: FsyncAlways syncs
// before every ack, FsyncInterval (default) syncs on a timer, FsyncNever
// leaves it to the OS entirely. Under the first two, a new segment's
// head snapshot and its directory entry are synced before it takes
// appends, and so before retention unlinks the segments it supersedes.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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
	jrecBatch    = 4
)

// journalReportLen is the length of a report payload without members; its
// last two bytes are the member count.
const journalReportLen = 1 + 8 + 8 + 4 + 4 + 4 + 4 + 4 + 2

// journalTickLen is the length of a tick payload.
const journalTickLen = 1 + 8 + 8

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
	// Appends counts records written: reports, ticks and snapshots, a
	// batch frame counting as the records it holds. AppendErrors counts
	// failed writes (durability degraded, never in-process delivery).
	Appends      uint64 `json:"appends"`
	AppendErrors uint64 `json:"append_errors"`
	// Rotations counts segment rotations (each writes a snapshot).
	Rotations uint64 `json:"rotations"`
	// RecoveredRecords / RecoveredSnapshots count what Replay applied,
	// records counted as Appends counts them; TruncatedBytes is the torn
	// tail discarded at open.
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
	// batch is the open batch frame, begun with beginRecord, and batchN
	// the sub-records in it; the buffer is reused from batch to batch.
	batch  []byte
	batchN int

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
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("collectorsvc: reopening journal segment: %w", err)
		}
		if valid < len(data) {
			// The cut is synced before anything is appended after it, so a
			// power cut cannot bring the torn bytes back behind new records.
			err := f.Truncate(int64(valid))
			if err == nil && cfg.Fsync != FsyncNever {
				err = f.Sync()
			}
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("collectorsvc: truncating torn journal tail: %w", err)
			}
			j.truncated = int64(len(data) - valid)
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
// active segment. Unless the policy is FsyncNever, it then syncs the
// segment and the directory, so the segment and its head snapshot
// survive a power cut before any record is appended to it or any older
// segment is removed.
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
	j.appendLocked(headSnapshot, 1)
	if err := j.bw.Flush(); err != nil {
		return fmt.Errorf("collectorsvc: writing segment snapshot: %w", err)
	}
	if j.cfg.Fsync == FsyncNever {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("collectorsvc: syncing segment snapshot: %w", err)
	}
	j.lastSync = time.Now()
	if err := syncDir(j.cfg.Dir); err != nil {
		return fmt.Errorf("collectorsvc: syncing journal dir: %w", err)
	}
	return nil
}

// syncDir fsyncs directory dir, which makes the entries created in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
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

// appendLocked seals and writes one frame, begun with beginRecord, in a
// single Write, and counts it as recs records. Errors mark the journal
// failed and are counted, not returned: a disk failure degrades
// durability but must never block in-process delivery (the caller still
// enqueues the event; /healthz turns unready).
func (j *Journal) appendLocked(rec []byte, recs int) {
	sealRecord(rec)
	j.appends += uint64(recs)
	if _, err := j.bw.Write(rec); err != nil {
		j.appendErrs++
		j.failed = true
		return
	}
	j.segSize += int64(len(rec))
	j.dirty = true
}

// batchAppendLocked adds one report or tick to the open batch frame,
// opening one if none is — the batch-append API: the server's ingest
// loop calls it once per newly accounted frame while holding mu across
// the whole batch, and then sealBatchLocked writes the batch as one
// frame. A batch costs zero allocations and one CRC, and one Commit (one
// flush, and under FsyncAlways one fsync) covers it.
func (j *Journal) batchAppendLocked(clientID uint64, it *item) {
	j.batch = appendJournalItem(j.openBatchLocked(), clientID, it)
	j.batchN++
}

// openBatchLocked returns the open batch frame, beginning one in the
// reused buffer if none is open.
func (j *Journal) openBatchLocked() []byte {
	if j.batchN == 0 {
		j.batch = append(beginRecord(j.batch[:0]), jrecBatch)
	}
	return j.batch
}

// sealBatchLocked writes the open batch frame, if one holds any
// sub-record. Whoever opens a batch seals it before releasing mu and
// before checking for rotation, so a frame never spans segments.
func (j *Journal) sealBatchLocked() {
	if j.batchN > 0 {
		j.appendLocked(j.batch, j.batchN)
		j.batchN = 0
	}
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
	// MaxSegments are always self-contained. A segment that cannot be
	// removed stays listed: the Segments gauge shows it, and the next
	// rotation tries again.
	excess := len(j.segs) - j.cfg.MaxSegments
	kept := j.segs[:0]
	for i, idx := range j.segs {
		if i < excess {
			err := os.Remove(filepath.Join(j.cfg.Dir, segName(idx)))
			if err == nil || errors.Is(err, os.ErrNotExist) {
				continue
			}
		}
		kept = append(kept, idx)
	}
	j.segs = kept
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

// journalRecord is one replayed frame, or one record of it, decoded.
// Only the fields of its kind are set: clientID and it for a report or
// a tick, snap for a snapshot, batch for a batch frame.
type journalRecord struct {
	kind     uint8
	clientID uint64
	it       item
	snap     *journalSnapshot
	// batch is a batch frame's sub-records, and n the records the frame
	// holds: a batch's sub-records, else 1.
	batch []byte
	n     int
	// seg is the buffer of the segment the frame was read from, segNo
	// that segment's position in the replay (0 for the oldest), and
	// seg[off:end] the whole frame, header included. superseded marks a
	// frame a later segment's head snapshot supersedes; see Replay.
	seg        []byte
	segNo      int
	off, end   int
	superseded bool
}

// Replay iterates every retained segment in order, decoding each frame
// and passing it to apply; it stops at the first error apply returns
// and returns it. A batch frame is passed whole, as rec.batch, once
// every sub-record in it has decoded. A frame or sub-record that does
// not decode, or a tear anywhere but at the end of the last segment,
// returns ErrJournalCorrupt; the torn tail of the final segment was
// already truncated at open.
//
// Every frame is decoded into the same journalRecord, so apply must
// copy what it keeps of rec, the members of rec.it included. When the
// last segment begins with a snapshot, that snapshot supersedes every
// earlier segment: Replay marks their frames rec.superseded and reads
// them in pieces through one reused buffer, so their bytes, rec.snap's
// flow section among them, are valid only until apply returns, and
// rec.seg is nil. Otherwise three things outlive the call: rec.snap,
// decoded afresh for each snapshot, and rec.seg and rec.batch, a
// segment buffer Replay never reuses or writes (rec.snap's flow section
// points into it too).
//
// The last segment is read once: from the bytes OpenJournal's torn-tail
// scan read, unless records were appended since. The journal keeps no
// segment bytes once Replay returns.
func (j *Journal) Replay(apply func(rec *journalRecord) error) error {
	j.mu.Lock()
	segs := append([]uint64(nil), j.segs...)
	tail := j.tail
	if int64(len(tail)) != j.segSize {
		tail = nil // appended to since OpenJournal: read it afresh
	}
	j.tail = nil
	j.mu.Unlock()
	if len(segs) == 0 {
		return nil
	}
	last := len(segs) - 1
	if tail == nil {
		var err error
		if tail, err = os.ReadFile(filepath.Join(j.cfg.Dir, segName(segs[last]))); err != nil {
			return fmt.Errorf("collectorsvc: replaying journal: %w", err)
		}
	}
	superseded := headIsSnapshot(tail)
	var (
		rec   journalRecord
		piece []byte // the buffer superseded segments are read through
	)
	for i, idx := range segs {
		var recs, snaps uint64
		visit := func(off int, payload []byte) error {
			if err := decodeFrame(payload, &rec); err != nil {
				return fmt.Errorf("%w: segment %s, record at byte %d: %w", ErrJournalCorrupt, segName(idx), off, err)
			}
			rec.off, rec.end = off, off+journalRecHeader+len(payload)
			recs += uint64(rec.n)
			if rec.kind == jrecSnapshot {
				snaps++
			}
			return apply(&rec)
		}
		rec.segNo, rec.superseded = i, i < last && superseded
		var end, size int
		var err error
		switch {
		case i == last:
			rec.seg, size = tail, len(tail)
			end, err = scanRecords(tail, visit)
		case rec.superseded:
			rec.seg = nil
			end, size, piece, err = scanSegmentFile(filepath.Join(j.cfg.Dir, segName(idx)), piece, visit)
		default:
			if rec.seg, err = os.ReadFile(filepath.Join(j.cfg.Dir, segName(idx))); err != nil {
				return fmt.Errorf("collectorsvc: replaying journal: %w", err)
			}
			size = len(rec.seg)
			end, err = scanRecords(rec.seg, visit)
		}
		j.mu.Lock()
		j.replayedRecs += recs
		j.replayedSnap += snaps
		j.mu.Unlock()
		if err != nil {
			return err
		}
		if end != size && i != last {
			return fmt.Errorf("%w: segment %s torn at byte %d of %d", ErrJournalCorrupt, segName(idx), end, size)
		}
	}
	return nil
}

// headIsSnapshot reports whether seg begins with a whole, CRC-valid
// snapshot record.
func headIsSnapshot(seg []byte) bool {
	is := false
	scanRecords(seg, func(_ int, payload []byte) error {
		is = payload[0] == jrecSnapshot
		return errStopScan
	})
	return is
}

// errStopScan ends a scanRecords walk early.
var errStopScan = errors.New("collectorsvc: stop scan")

// scanSegmentFile is scanRecords over the segment file at path, read in
// pieces through buf rather than whole, so a payload passed to fn is
// valid only until fn returns. It returns the offset of the first
// invalid frame (the file's size when there is none), the file's size,
// and buf, grown to the larger of pieceBytes and the longest frame.
func scanSegmentFile(path string, buf []byte, fn func(off int, payload []byte) error) (end, size int, _ []byte, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, buf, fmt.Errorf("collectorsvc: replaying journal: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, buf, fmt.Errorf("collectorsvc: replaying journal: %w", err)
	}
	size = int(fi.Size())
	if len(buf) < pieceBytes {
		buf = make([]byte, pieceBytes)
	}
	base, n := 0, 0 // buf[:n] holds the file's bytes from offset base on
	for {
		m, err := io.ReadFull(f, buf[n:min(len(buf), size-base)])
		n += m
		if err != nil {
			return base, size, buf, fmt.Errorf("collectorsvc: replaying journal: %w", err)
		}
		v, err := scanRecords(buf[:n], func(off int, payload []byte) error { return fn(base+off, payload) })
		if err != nil || base+n == size {
			return base + v, size, buf, err
		}
		// buf[v:n] begins with a frame the piece cut off, unless that
		// frame is invalid: whole in the piece, or overrunning the file.
		rest := buf[v:n]
		if len(rest) >= journalRecHeader {
			need := journalRecHeader + int(binary.BigEndian.Uint32(rest))
			if need <= len(rest) || base+v+need > size {
				return base + v, size, buf, nil
			}
			if need > len(buf) {
				buf = make([]byte, need)
			}
		}
		n = copy(buf, rest)
		base += v
	}
}

// pieceBytes is the size of the pieces superseded segments are read in.
const pieceBytes = 1 << 20

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

// appendJournalItem encodes client clientID's report or tick it as a
// record payload: a jrecReport or a jrecTick.
func appendJournalItem(dst []byte, clientID uint64, it *item) []byte {
	if it.kind == itemTick {
		dst = append(dst, jrecTick)
		dst = binary.BigEndian.AppendUint64(dst, clientID)
		return binary.BigEndian.AppendUint64(dst, it.seq)
	}
	dst = append(dst, jrecReport)
	dst = binary.BigEndian.AppendUint64(dst, clientID)
	dst = binary.BigEndian.AppendUint64(dst, it.seq)
	dst = binary.BigEndian.AppendUint32(dst, it.hop)
	dst = binary.BigEndian.AppendUint32(dst, it.flow)
	dst = binary.BigEndian.AppendUint32(dst, it.reporter)
	dst = binary.BigEndian.AppendUint32(dst, it.hops)
	dst = binary.BigEndian.AppendUint32(dst, it.node)
	return appendMembers(dst, it.members)
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
// into rec. A report's members go into the storage of rec.it.members
// when it has room (set it to nil to have them in a slice of their
// own). A snapshot is decoded into a fresh journalSnapshot whose flow
// section points into p.
func decodeJournalPayload(p []byte, rec *journalRecord) error {
	if len(p) < 1 {
		return fmt.Errorf("%w: empty payload", errBadJournalRecord)
	}
	rec.kind, rec.snap = p[0], nil
	body := p[1:]
	switch rec.kind {
	case jrecReport:
		const fixed = journalReportLen - 1
		if len(body) < fixed {
			return fmt.Errorf("%w: report record of %d bytes, want at least %d", errBadJournalRecord, len(body), fixed)
		}
		count := int(binary.BigEndian.Uint16(body[36:]))
		if count > MaxMembers {
			return fmt.Errorf("%w: %d members exceeds cap %d", errBadJournalRecord, count, MaxMembers)
		}
		if len(body) != fixed+4*count {
			return fmt.Errorf("%w: report record of %d bytes for %d members", errBadJournalRecord, len(body), count)
		}
		// Field by field: rec is on the heap, and a whole-item store
		// costs a copy with write barriers.
		it := &rec.it
		rec.clientID = binary.BigEndian.Uint64(body)
		it.seq = binary.BigEndian.Uint64(body[8:])
		it.hop = binary.BigEndian.Uint32(body[16:])
		it.flow = binary.BigEndian.Uint32(body[20:])
		it.reporter = binary.BigEndian.Uint32(body[24:])
		it.hops = binary.BigEndian.Uint32(body[28:])
		it.node = binary.BigEndian.Uint32(body[32:])
		it.kind = itemReport
		it.members = decodeMembers(it.members, body[fixed:], count)
	case jrecTick:
		if len(body) != journalTickLen-1 {
			return fmt.Errorf("%w: tick record of %d bytes, want %d", errBadJournalRecord, len(body), journalTickLen-1)
		}
		rec.clientID = binary.BigEndian.Uint64(body)
		rec.it.seq, rec.it.kind = binary.BigEndian.Uint64(body[8:]), itemTick
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

// eachRecord decodes into rec, one at a time, the records a frame's
// payload p (CRC already checked) carries and calls fn after each: the
// payload itself when it is a report, tick or snapshot, or each
// sub-record of a batch in order. Only a report or tick can be a
// sub-record, and it decodes through decodeJournalPayload as a record
// does; a batch without one is malformed. eachRecord stops at the first
// error and returns it.
func eachRecord(p []byte, rec *journalRecord, fn func() error) error {
	if len(p) == 0 || p[0] != jrecBatch {
		if err := decodeJournalPayload(p, rec); err != nil {
			return err
		}
		return fn()
	}
	b := p[1:]
	if len(b) == 0 {
		return fmt.Errorf("%w: empty batch", errBadJournalRecord)
	}
	for len(b) > 0 {
		var sub []byte
		switch b[0] {
		case jrecTick:
			sub = b[:min(journalTickLen, len(b))]
		case jrecReport:
			n := len(b)
			if n >= journalReportLen {
				n = min(n, journalReportLen+4*int(binary.BigEndian.Uint16(b[journalReportLen-2:])))
			}
			sub = b[:n]
		default:
			return fmt.Errorf("%w: batch holds a record of type %d", errBadJournalRecord, b[0])
		}
		b = b[len(sub):]
		if err := decodeJournalPayload(sub, rec); err != nil {
			return err
		}
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// decodeFrame decodes one frame's payload (CRC already checked) into
// rec and sets rec.n. A record decodes as decodeJournalPayload decodes
// it; a batch is checked by decoding every sub-record, and leaves rec
// with kind jrecBatch, its sub-records in rec.batch and their count in
// rec.n.
func decodeFrame(p []byte, rec *journalRecord) error {
	n := 0
	if err := eachRecord(p, rec, func() error { n++; return nil }); err != nil {
		return err
	}
	rec.n, rec.batch = n, nil
	if p[0] == jrecBatch {
		rec.kind, rec.batch = jrecBatch, p[1:]
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
