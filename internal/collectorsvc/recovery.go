package collectorsvc

// Snapshot capture and journal replay: the two halves of crash
// recovery. Capture runs at segment rotation and freezes a consistent
// cut of the server (counters, per-client sequence high-water marks,
// per-flow dedup windows, aggregate controller totals); replay checks
// every journaled record, rebuilds the newest cut at boot and then
// re-delivers every record journaled after it. Both sides are
// deliberately single-threaded and shard-count agnostic: the snapshot
// keys dedup state by flow, not by shard, and replay re-routes each
// flow through shardFor, so a recovered server may run a different
// -shards value than the one that crashed.

import (
	"errors"
	"fmt"
	"sort"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
	"github.com/unroller/unroller/internal/xhash"
)

// eventToRecord converts a live event to its journal representation.
func eventToRecord(ev dataplane.LoopEvent) LoopEventRecord {
	rec := LoopEventRecord{
		Flow:     ev.Flow,
		Reporter: uint32(ev.Reporter),
		Hops:     ev.Hops,
		Node:     ev.Node,
	}
	if len(ev.Members) > 0 {
		rec.Members = make([]uint32, len(ev.Members))
		for i, m := range ev.Members {
			rec.Members[i] = uint32(m)
		}
	}
	return rec
}

// recordToEvent is the inverse of eventToRecord.
func recordToEvent(rec LoopEventRecord) dataplane.LoopEvent {
	var ev dataplane.LoopEvent
	ev.Flow = rec.Flow
	ev.Reporter = detect.SwitchID(rec.Reporter)
	ev.Hops = rec.Hops
	ev.Node = rec.Node
	if len(rec.Members) > 0 {
		ev.Members = make([]detect.SwitchID, len(rec.Members))
		for i, m := range rec.Members {
			ev.Members[i] = detect.SwitchID(m)
		}
	}
	return ev
}

// rotateWithSnapshotLocked rotates the journal segment with a
// consistent snapshot at the new segment's head. Called from the ingest
// path with j.mu held, which blocks every other account/append/enqueue;
// it then quiesces the shard workers with barrier items so the queues
// drain and the flow maps and controller stats stop moving. Lock order
// is j.mu → s.mu → sh.mu, the same everywhere.
func (s *Server) rotateWithSnapshotLocked(j *Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Shutdown sets closed before it stops the workers, but it cannot
	// stop them until this connection's reader returns (connWG), so the
	// barrier below is always drained. The closed check only skips
	// pointless rotations once shutdown has begun.
	if s.closed {
		return
	}
	b := &shardBarrier{
		reached: make(chan struct{}, len(s.shards)),
		resume:  make(chan struct{}),
	}
	for _, sh := range s.shards {
		sh.pushBatch([]shardItem{{barrier: b}})
	}
	for range s.shards {
		//unroller:allow lockscope -- the barrier receive under s.mu IS the quiescence protocol: workers always drain it (Shutdown cannot stop them before this reader returns), and holding s.mu is what freezes the snapshot
		<-b.reached
	}
	j.rotateLocked(s.snapshotRecordLocked())
	close(b.resume)
}

// snapshotRecordLocked encodes the server's snapshot record, begun with
// beginRecord, into one buffer of exactly its size: the head from
// captureSnapshotLocked, then the flow section straight from the shard
// flow tables, shard by shard and slot by slot in first-seen order. The
// buffer is the rotation's only allocation that grows with the flow
// count, and the journal does not keep it. Preconditions are
// captureSnapshotLocked's.
func (s *Server) snapshotRecordLocked() []byte {
	head := s.captureSnapshotLocked()
	var buf [8]dataplane.DedupEntry // a window's capacity: reads never allocate
	size, nFlows := journalRecHeader+snapshotHeadLen(head), 0
	for _, sh := range s.shards {
		nFlows += sh.flows.len()
		sh.flows.each(func(sl *flowSlot) {
			size += flowRecordLen(len(sl.w.AppendEntries(buf[:0])))
		})
	}
	rec := appendSnapshotHead(beginRecord(make([]byte, 0, size)), head, nFlows)
	for _, sh := range s.shards {
		sh.flows.each(func(sl *flowSlot) {
			rec = appendFlowRecord(rec, sl.flow, sl.w.AppendEntries(buf[:0]))
		})
	}
	return rec
}

// captureSnapshotLocked freezes the server state but the per-flow dedup
// windows, which snapshotRecordLocked encodes in place. Preconditions:
// j.mu and s.mu held, every shard worker parked on a barrier (so
// sh.flows and sh.ctrl are quiescent).
func (s *Server) captureSnapshotLocked() *journalSnapshot {
	snap := &journalSnapshot{
		Conns:         s.conns64.Load(),
		Frames:        s.frames.Load(),
		BadFrames:     s.badFrames.Load(),
		Dupes:         s.dupes.Load(),
		Ingested:      s.ingested.Load(),
		Ticks:         s.ticks.Load(),
		QueueDropped:  s.queueDropBase,
		FlowEvictions: s.flowEvictBase,
	}
	for _, sh := range s.shards {
		snap.FlowEvictions += sh.evictions.Load()
	}
	// Aggregate controller totals, cumulative across prior recoveries.
	// Buffered folds into Evicted: a crash discards the in-memory event
	// rings, so the snapshot accounts their contents as evicted — the
	// admission identity (accepted = buffered + evicted + aged) then
	// holds exactly in the recovered process.
	agg := dataplane.MergeControllerStats(s.ShardStats()...)
	snap.Delivered = s.ctrlBase.Delivered + agg.Delivered
	snap.Accepted = s.ctrlBase.Accepted + agg.Accepted
	snap.Deduped = s.ctrlBase.Deduped + agg.Deduped
	snap.Quarantined = s.ctrlBase.Quarantined + agg.Quarantined
	snap.Evicted = s.ctrlBase.Evicted + agg.Evicted + uint64(agg.Buffered)
	snap.Aged = s.ctrlBase.Aged + agg.Aged
	snap.CtrlTick = s.ctrlBase.Tick + agg.Tick

	snap.CrossDupes = s.crossDupes.Load()
	snap.Clients = make([]clientSeqEntry, 0, len(s.clients))
	for id, cs := range s.clients {
		snap.Clients = append(snap.Clients, clientSeqEntry{ID: id, Spans: cs.snapshotSpans()})
	}
	sort.Slice(snap.Clients, func(a, b int) bool { return snap.Clients[a].ID < snap.Clients[b].ID })
	return snap
}

// stagedRange is a run of whole journal frames parked between replay
// and commit: seg[off:end] of the buffer of segment segNo of the replay
// (see journalRecord). Replay has checked every record in it.
type stagedRange struct {
	seg      []byte
	segNo    int
	off, end int
}

// StagedRecovery is a journal replay paused at the reconciliation
// point: the latest snapshot's cut is applied to the server, every
// record journaled after it is staged in order, and nothing has reached
// a controller or advanced a sequence mark yet. The cluster recovery
// path asks its live peers which sequence ranges they already ingested
// (Server.ClientRanges over the membership port) and then Commits with
// a discard predicate covering that overlap — the cross-node dedup that
// keeps the cluster-wide exactly-once identity exact after a failover
// replayed this node's committed-but-unacked frames to a takeover
// owner. The dedup window is everything journaled since the last
// snapshot: records a rotation has folded into the snapshot's counters
// can no longer be discarded record-by-record (see DESIGN §13 for the
// sizing rule this implies).
//
// Staged records stay in the segment buffers Replay read, as about one
// byte range of whole frames per segment, and are decoded once more, by
// Commit, which walks each batch frame sub-record by sub-record.
type StagedRecovery struct {
	srv    *Server
	ranges []stagedRange
	staged int
}

// NewStagedRecoveredServer builds a server, applies the journal's
// snapshot cut, and stages the post-snapshot records for Commit.
// cfg.Journal must be set.
//
// Replay decodes, and so checks, every record, but only the state that
// survives is built. A snapshot supersedes everything before it, so
// when a newer one arrives the older gets only its check for a flow
// listed twice (see checkFlows). Only the newest is applied to the
// shard flow tables, once the staged count that sizes them is known.
func NewStagedRecoveredServer(cfg ServerConfig) (*StagedRecovery, error) {
	if cfg.Journal == nil {
		return nil, errors.New("collectorsvc: staged recovery requires a journal")
	}
	s := buildServer(cfg)
	s.recovering = true
	st := &StagedRecovery{srv: s}
	var newest *journalSnapshot
	var scratch []uint32 // for superseded snapshots' duplicate check
	err := cfg.Journal.Replay(func(rec *journalRecord) error {
		if rec.superseded {
			// Its bytes do not outlive this call, and a later snapshot
			// supersedes it: check it now, keep nothing.
			if rec.kind == jrecSnapshot {
				return rec.snap.checkFlows(&scratch)
			}
			return nil
		}
		if rec.kind == jrecSnapshot {
			if newest != nil {
				if err := newest.checkFlows(&scratch); err != nil {
					return err
				}
			}
			// The snapshot's cut supersedes everything staged before it.
			newest = rec.snap
			st.ranges, st.staged = st.ranges[:0], 0
			return nil
		}
		st.staged += rec.n
		if k := len(st.ranges) - 1; k >= 0 && st.ranges[k].segNo == rec.segNo {
			st.ranges[k].end = rec.end
			return nil
		}
		st.ranges = append(st.ranges, stagedRange{seg: rec.seg, segNo: rec.segNo, off: rec.off, end: rec.end})
		return nil
	})
	if err == nil && newest != nil {
		err = s.applySnapshot(newest, st.staged)
	}
	if err != nil {
		return nil, err
	}
	return st, nil
}

// Server exposes the recovering server's admin/health surface (it
// reports HealthRecovering until Commit). Do not serve ingest on it
// before Commit returns.
func (st *StagedRecovery) Server() *Server { return st.srv }

// Staged returns the number of reports and ticks parked for Commit —
// the size of this recovery's cross-node dedup window.
func (st *StagedRecovery) Staged() int { return st.staged }

// Commit finishes the recovery. Every staged record either commits —
// accounted, counted, and delivered single-threaded in journal order
// through the same per-flow dedup path as live ingest — or, when
// discard reports a peer already ingested it, is dropped and counted in
// CrossDupes. A discarded record's sequence number deliberately stays
// un-accounted (neither the high-water mark nor the span list moves),
// so this node's own ClientRanges never claim frames a peer ingested;
// that is safe because a failover overlap is always a contiguous
// per-client suffix of the journal tail, and the client's next
// sequence numbers are beyond it. discard may be nil (no peers — the
// single-node path commits everything). Workers start and the server
// leaves the recovering health state before returning.
//
// Delivery is batched per shard as the live shard worker batches it:
// reports queue per shard for DeliverFlowBatch, and every shard is
// flushed before a tick reaches the controllers, so each shard sees the
// journal's order and every admission decision is unchanged.
func (st *StagedRecovery) Commit(discard func(clientID, seq uint64) bool) (*Server, RecoveryStats, error) {
	s := st.srv
	batches := make([][]dataplane.FlowDelivery, len(s.shards))
	flush := func(i int) {
		if len(batches[i]) > 0 {
			s.shards[i].ctrl.DeliverFlowBatch(batches[i])
			batches[i] = batches[i][:0]
		}
	}
	var rec journalRecord
	deliver := func() error {
		if discard != nil && discard(rec.clientID, rec.seq) {
			s.crossDupes.Add(1)
			return nil
		}
		cs := s.clientState(rec.clientID)
		if !cs.account(rec.seq) {
			// Records are only appended for newly accounted frames, so a
			// replayed duplicate means the journal and the snapshot
			// disagree — refuse rather than double-count.
			return fmt.Errorf("%w: replayed seq %d for client %d at or below high-water mark", ErrJournalCorrupt, rec.seq, rec.clientID)
		}
		if rec.kind == jrecTick {
			s.ticks.Add(1)
			for i, sh := range s.shards {
				flush(i)
				sh.ctrl.Tick()
			}
			return nil
		}
		s.ingested.Add(1)
		i := s.shardIndex(rec.ev.Flow)
		batches[i] = append(batches[i], dataplane.FlowDelivery{
			Ev: recordToEvent(rec.ev), W: s.shards[i].window(rec.ev.Flow), Hop: rec.hop,
		})
		if len(batches[i]) == shardDrainBatch {
			flush(i)
		}
		return nil
	}
	for _, r := range st.ranges {
		for buf := r.seg[r.off:r.end]; len(buf) > 0; {
			var payload []byte
			payload, buf = nextPayload(buf)
			if err := eachRecord(payload, &rec, deliver); err != nil {
				if errors.Is(err, errBadJournalRecord) {
					err = fmt.Errorf("%w: staged record: %w", ErrJournalCorrupt, err)
				}
				return nil, RecoveryStats{}, err
			}
		}
	}
	for i := range batches {
		flush(i)
	}
	st.ranges = nil
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

// ClientRanges snapshots every known client's accounted sequence spans,
// ascending by client ID (clients with nothing accounted are skipped).
// This is what a node serves to a rejoining peer's recovery handoff.
func (s *Server) ClientRanges() []ClientRange {
	s.mu.Lock()
	clients := make(map[uint64]*clientSeq, len(s.clients))
	for id, cs := range s.clients {
		clients[id] = cs
	}
	s.mu.Unlock()
	out := make([]ClientRange, 0, len(clients))
	for id, cs := range clients {
		spans := cs.snapshotSpans()
		if len(spans) == 0 {
			continue
		}
		out = append(out, ClientRange{ID: id, Spans: spans})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// ForceRotate rotates the journal segment with a fresh snapshot now.
// The cluster recovery path calls it right after a staged Commit so the
// reconciled cut — with the discounted overlap excluded — becomes the
// new segment-head snapshot: a second crash re-recovers from that
// snapshot instead of re-staging (and re-judging) the same records.
func (s *Server) ForceRotate() {
	j := s.journal
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	s.rotateWithSnapshotLocked(j)
}

// applySnapshot resets the server to a snapshot's cut. Each snapshot in
// the replay stream supersedes everything before it (its baselines are
// cumulative), so state rebuilt from earlier records is discarded:
// shard controllers restart fresh and the snapshot's aggregate totals
// become the baseline. A snapshot that lists a flow twice is refused
// with ErrJournalCorrupt: no rotation writes one.
//
// staged is the number of records to be committed after the snapshot.
// Each shard's flow index is sized once for the snapshot's flows in that
// shard plus one new flow per staged record, capped at MaxFlows, so
// neither the snapshot nor the commit grows it.
func (s *Server) applySnapshot(snap *journalSnapshot, staged int) error {
	s.conns64.Store(snap.Conns)
	s.frames.Store(snap.Frames)
	s.badFrames.Store(snap.BadFrames)
	s.dupes.Store(snap.Dupes)
	s.ingested.Store(snap.Ingested)
	s.ticks.Store(snap.Ticks)
	s.queueDropBase = snap.QueueDropped
	s.flowEvictBase = snap.FlowEvictions
	s.ctrlBase = dataplane.ControllerStats{
		Delivered:   snap.Delivered,
		Accepted:    snap.Accepted,
		Deduped:     snap.Deduped,
		Quarantined: snap.Quarantined,
		Evicted:     snap.Evicted,
		Aged:        snap.Aged,
		Tick:        snap.CtrlTick,
	}
	s.crossDupes.Store(snap.CrossDupes)
	s.clients = make(map[uint64]*clientSeq, len(snap.Clients))
	for _, c := range snap.Clients {
		cs := &clientSeq{}
		cs.restoreSpans(c.Spans)
		s.clients[c.ID] = cs
	}
	perShard := make([]int, len(s.shards))
	snap.eachFlow(func(flow uint32, _ []byte) error {
		perShard[s.shardIndex(flow)]++
		return nil
	})
	for i, sh := range s.shards {
		sh.ctrl = dataplane.NewControllerWithConfig(s.cfg.Controller)
		n := perShard[i] + staged
		if n > s.cfg.MaxFlows {
			n = max(s.cfg.MaxFlows, perShard[i])
		}
		sh.flows.resetFor(n)
		sh.evictions.Store(0)
	}
	var buf [8]dataplane.DedupEntry // a window's capacity: decoding a window a rotation wrote never allocates
	return snap.eachFlow(func(flow uint32, window []byte) error {
		sh := s.shardFor(flow)
		if sh.flows.find(flow) >= 0 {
			return errDuplicateFlow(flow)
		}
		sh.flows.add(flow).Restore(appendDedupEntries(buf[:0], window))
		return nil
	})
}

// checkFlows refuses, with ErrJournalCorrupt, a snapshot that lists a
// flow twice — applySnapshot's check, for a snapshot a later one
// supersedes, which builds no flow table. It deals the flows' Mix32
// hashes (a bijection: equal hashes are equal flows) into 256 buckets by
// their top byte, then looks for a repeat in each bucket through one
// small table that stays in cache, where an index sized for the whole
// snapshot would miss the cache on nearly every probe. scratch is
// reused from snapshot to snapshot and sized once, from the flow count
// and the widest bucket.
func (snap *journalSnapshot) checkFlows(scratch *[]uint32) error {
	var at [257]int // bucket d is hashes[at[d]:at[d+1]]
	snap.eachFlow(func(flow uint32, _ []byte) error {
		at[xhash.Mix32(flow)>>24+1]++
		return nil
	})
	widest := 0
	for d := 1; d < len(at); d++ {
		widest = max(widest, at[d])
		at[d] += at[d-1]
	}
	size := 16 // table cells, a power of two at most 3/4 full
	for 3*size < 4*widest {
		size *= 2
	}
	n := snap.nFlows
	if cap(*scratch) < n+2*size {
		*scratch = make([]uint32, n+2*size)
	}
	buf := (*scratch)[:n+2*size]
	hashes, cells, used := buf[:n], buf[n:n+size], buf[n+size:]
	next := at
	snap.eachFlow(func(flow uint32, _ []byte) error {
		h := xhash.Mix32(flow)
		hashes[next[h>>24]] = h
		next[h>>24]++
		return nil
	})
	mask := uint32(size - 1)
	for d := range 256 {
		bucket := hashes[at[d]:at[d+1]]
		if len(bucket) == 0 {
			continue
		}
		clear(used)
		for _, h := range bucket {
			c := h & mask
			for ; used[c] != 0; c = (c + 1) & mask {
				if cells[c] == h {
					return snap.errDuplicateHash(h)
				}
			}
			used[c], cells[c] = 1, h
		}
	}
	return nil
}

// errDuplicateHash returns errDuplicateFlow for the flow whose Mix32 is
// h.
func (snap *journalSnapshot) errDuplicateHash(h uint32) error {
	var dup error
	snap.eachFlow(func(flow uint32, _ []byte) error {
		if xhash.Mix32(flow) == h {
			dup = errDuplicateFlow(flow)
		}
		return dup
	})
	return dup
}

// errDuplicateFlow reports a snapshot that lists flow twice, which no
// rotation writes.
func errDuplicateFlow(flow uint32) error {
	return fmt.Errorf("%w: snapshot lists flow %d twice", ErrJournalCorrupt, flow)
}
