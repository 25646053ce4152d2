package collectorsvc

// Snapshot capture and journal replay: the two halves of crash
// recovery. Capture runs at segment rotation and freezes a consistent
// cut of the server (counters, per-client sequence high-water marks,
// per-flow dedup windows, aggregate controller totals); replay rebuilds
// that cut at boot and then re-delivers every record journaled after
// it. Both sides are deliberately single-threaded and shard-count
// agnostic: the snapshot keys dedup state by flow, not by shard, and
// replay re-routes each flow through shardFor, so a recovered server
// may run a different -shards value than the one that crashed.

import (
	"errors"
	"fmt"
	"sort"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
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
		sh.push(shardItem{barrier: b})
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
		sh.mu.Lock()
		snap.QueueDropped += sh.dropped
		sh.mu.Unlock()
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

// stagedRecord is one post-snapshot journal record parked between
// replay and commit.
type stagedRecord struct {
	clientID uint64
	seq      uint64
	ev       dataplane.LoopEvent
	hop      int
	tick     bool
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
type StagedRecovery struct {
	srv    *Server
	staged []stagedRecord
}

// NewStagedRecoveredServer builds a server, applies the journal's
// snapshot cut, and stages the post-snapshot records for Commit.
// cfg.Journal must be set.
func NewStagedRecoveredServer(cfg ServerConfig) (*StagedRecovery, error) {
	if cfg.Journal == nil {
		return nil, errors.New("collectorsvc: staged recovery requires a journal")
	}
	s := buildServer(cfg)
	s.recovering = true
	st := &StagedRecovery{srv: s}
	err := cfg.Journal.Replay(func(rec *journalRecord) error {
		switch rec.kind {
		case jrecSnapshot:
			if err := s.applySnapshot(rec.snap); err != nil {
				return err
			}
			// The snapshot's cut supersedes everything staged before it.
			st.staged = st.staged[:0]
		case jrecReport:
			st.staged = append(st.staged, stagedRecord{
				clientID: rec.clientID, seq: rec.seq,
				ev: recordToEvent(rec.ev), hop: rec.hop,
			})
		case jrecTick:
			st.staged = append(st.staged, stagedRecord{clientID: rec.clientID, seq: rec.seq, tick: true})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// Server exposes the recovering server's admin/health surface (it
// reports HealthRecovering until Commit). Do not serve ingest on it
// before Commit returns.
func (st *StagedRecovery) Server() *Server { return st.srv }

// Staged returns the number of records parked for Commit — the size of
// this recovery's cross-node dedup window.
func (st *StagedRecovery) Staged() int { return len(st.staged) }

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
func (st *StagedRecovery) Commit(discard func(clientID, seq uint64) bool) (*Server, RecoveryStats, error) {
	s := st.srv
	for i := range st.staged {
		rec := &st.staged[i]
		if discard != nil && discard(rec.clientID, rec.seq) {
			s.crossDupes.Add(1)
			continue
		}
		cs := s.clientState(rec.clientID)
		if !cs.account(rec.seq) {
			// Records are only appended for newly accounted frames, so a
			// replayed duplicate means the journal and the snapshot
			// disagree — refuse rather than double-count.
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
		s.shardFor(rec.ev.Flow).deliver(rec.ev, rec.hop)
	}
	st.staged = nil
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
func (s *Server) applySnapshot(snap *journalSnapshot) error {
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
	for _, sh := range s.shards {
		sh.ctrl = dataplane.NewControllerWithConfig(s.cfg.Controller)
		sh.flows.reset()
		sh.evictions.Store(0)
	}
	for _, fe := range snap.Flows {
		sh := s.shardFor(fe.Flow)
		if sh.flows.find(fe.Flow) >= 0 {
			return fmt.Errorf("%w: snapshot lists flow %d twice", ErrJournalCorrupt, fe.Flow)
		}
		sh.flows.add(fe.Flow).Restore(fe.Entries)
	}
	return nil
}
