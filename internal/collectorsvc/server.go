package collectorsvc

import (
	"bufio"
	"errors"
	"fmt"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/xhash"
)

// ServerConfig tunes the collector service. Zero values select the
// defaults noted per field.
type ServerConfig struct {
	// Shards is the number of independent ingest shards, each with its
	// own queue, lock, dataplane.Controller, dedup state, and quarantine
	// state. Events are routed by flow hash, so one flow's reports always
	// land on one shard and its dedup window sees the complete, ordered
	// hop history. <= 0 selects DefaultShards.
	Shards int
	// Controller configures each shard's controller. The per-shard
	// configs are identical, so merged stats preserve the admission
	// identities exactly.
	Controller dataplane.ControllerConfig
	// MaxFlows bounds each shard's per-flow dedup table. When the bound
	// is hit the table starts over empty (counted in
	// ServerStats.FlowEvictions): a
	// report for an evicted flow may then be accepted where a single
	// unbounded controller would have deduplicated it — bounded memory
	// is bought with (counted) duplicate admissions, never with loss.
	// Size it from the bytes per tracked flow: a 72-byte slot, plus
	// index cells of 8 bytes, a power of two of them at most 3/4 full,
	// sized once for MaxFlows flows (11 to 22 bytes a flow; 16 at the
	// default). A full shard at the default holds 4.5 MiB of slots and
	// 1 MiB of index. <= 0 selects DefaultMaxFlows.
	MaxFlows int
	// AckEvery acknowledges after this many accounted frames even if the
	// connection stays busy; an ack is always flushed when the reader
	// goes idle at a batch boundary. <= 0 selects DefaultAckEvery.
	AckEvery int
	// Batch caps the frames a connection reader ingests as one unit: one
	// read coalesces every complete frame already buffered on the socket
	// (up to this cap), and the whole batch is accounted, journaled, and
	// handed to the shard queues under a single journal-lock acquisition
	// with one queue push per touched shard. Larger batches amortize
	// locks and syscalls; smaller ones bound ack latency under sustained
	// load. <= 0 selects DefaultBatch; a value above the shard queue
	// depth (1024) is capped at it, because a reader waits for room for
	// its whole batch before ingesting it.
	Batch int
	// Journal, when non-nil, makes ingest crash-safe: every accounted
	// frame is appended (and flushed to the OS before it is
	// acknowledged), and segment rotation writes a consistent snapshot
	// of the sequence/dedup state. Open the journal with OpenJournal and
	// build the server with NewRecoveredServer so prior history replays;
	// the caller closes the journal after Shutdown.
	Journal *Journal
	// ReadTimeout bounds the silence between frames on a connection.
	// A peer that sends nothing — not even a heartbeat — for this long
	// is reaped, which is both dead-peer detection and idle-connection
	// reaping (healthy idle clients heartbeat well inside it). <= 0
	// selects DefaultReadTimeout.
	ReadTimeout time.Duration
	// WriteTimeout bounds each acknowledgement flush; a peer that stops
	// reading cannot park the reader goroutine forever. <= 0 selects
	// DefaultWriteTimeout.
	WriteTimeout time.Duration
	// MaxConns caps concurrent connections. Per-connection buffers are
	// bounded (read 32 KiB, write 1 KiB, frame bodies MaxFrameBody), so
	// this cap bounds total connection memory. Excess connections are
	// closed at accept and counted. <= 0 selects DefaultMaxConns.
	MaxConns int
}

// Defaults for ServerConfig's knobs.
const (
	DefaultShards       = 4
	DefaultMaxFlows     = 1 << 16
	DefaultAckEvery     = 64
	DefaultBatch        = 256
	DefaultReadTimeout  = 30 * time.Second
	DefaultWriteTimeout = 10 * time.Second
	DefaultMaxConns     = 256
)

// ServerStats is a snapshot of the service-level counters (the
// controller-level counters live in the per-shard ControllerStats).
// Accounting identity, once queues are drained: Ingested = sum over
// shards of controller Delivered.
type ServerStats struct {
	// Conns counts connections accepted over the server's lifetime;
	// ActiveConns is the current count.
	Conns       uint64 `json:"conns"`
	ActiveConns int    `json:"active_conns"`
	// Frames counts every well-formed frame read; BadFrames counts
	// protocol violations — malformed or oversize frames, wrong
	// versions, unexpected frame types (each kills its connection).
	// Peers that vanish mid-frame or before their hello are connection
	// failures, not violations, and are not counted here.
	Frames    uint64 `json:"frames"`
	BadFrames uint64 `json:"bad_frames"`
	// Dupes counts transport duplicates: frames whose sequence number
	// was already accounted for this client (retransmissions after a
	// connection kill). They are acknowledged but not re-ingested.
	Dupes uint64 `json:"dupes"`
	// Ingested counts unique report frames accepted into shard queues;
	// Ticks counts unique tick frames applied.
	Ingested uint64 `json:"ingested"`
	Ticks    uint64 `json:"ticks"`
	// CrossDupes counts journal records discarded during a staged
	// recovery because a cluster peer's accounted ranges showed another
	// node had already ingested them — the cross-node analogue of Dupes.
	// It only moves on the recovery path, never during live ingest.
	CrossDupes uint64 `json:"cross_dupes"`
	// FlowEvictions counts the dedup-map clears. Shard queues drop
	// nothing (a full one makes the reader wait): QueueDropped and
	// SheddedTicks keep their /statsz keys, SheddedTicks reads 0, and
	// QueueDropped only carries a total recovered from an older
	// collectord's snapshot.
	QueueDropped  uint64 `json:"queue_dropped"`
	SheddedTicks  uint64 `json:"shedded_ticks"`
	FlowEvictions uint64 `json:"flow_evictions"`
	// ConnsRejected counts connections closed at accept because
	// MaxConns was reached.
	ConnsRejected uint64 `json:"conns_rejected"`
}

// Server is the collector service: an accept loop, one reader goroutine
// per connection, and one worker goroutine per shard draining that
// shard's queue into its controller.
type Server struct {
	cfg ServerConfig

	shards []*shard

	mu            sync.Mutex
	ln            net.Listener
	conns         map[net.Conn]struct{}
	clients       map[uint64]*clientSeq
	closed        bool
	recovering    bool // staged recovery not yet committed
	healthOverlay func(Health) Health

	connWG  sync.WaitGroup
	shardWG sync.WaitGroup

	conns64       atomic.Uint64
	connsRejected atomic.Uint64
	crossDupes    atomic.Uint64
	frames        atomic.Uint64
	badFrames     atomic.Uint64
	dupes         atomic.Uint64
	ingested      atomic.Uint64
	ticks         atomic.Uint64
	disconnects   atomic.Uint64 // DisconnectAll calls
	serveErr      error
	serveEnded    chan struct{}

	// Recovery baselines: cumulative totals carried over from the last
	// journal snapshot for the counters that live in shard state (which
	// is rebuilt fresh on recovery). The service counters above are
	// Store()d directly from the snapshot instead.
	journal        *Journal
	queueDropBase  uint64
	flowEvictBase  uint64
	ctrlBase       dataplane.ControllerStats
	recoveryReport RecoveryStats
}

// RecoveryStats summarizes what a journal replay restored — what
// collectord prints at boot after a crash.
type RecoveryStats struct {
	// Records and Snapshots are the journal records applied.
	Records   uint64 `json:"records"`
	Snapshots uint64 `json:"snapshots"`
	// TruncatedBytes is the torn tail discarded from the final segment.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// Clients and Flows size the restored exactly-once and dedup state.
	Clients int `json:"clients"`
	Flows   int `json:"flows"`
	// Ingested and Ticks are the recovered cumulative totals.
	Ingested uint64 `json:"ingested"`
	Ticks    uint64 `json:"ticks"`
	// CrossDupes counts staged records discarded at Commit because a
	// cluster peer's accounted ranges already covered them.
	CrossDupes uint64 `json:"cross_dupes"`
}

// SeqSpan is one contiguous run of accounted sequence numbers,
// inclusive on both ends.
type SeqSpan struct {
	First uint64 `json:"first"`
	Last  uint64 `json:"last"`
}

// ClientRange is one client identity's accounted sequence ranges — what
// this node's exactly-once state actually covers, span by span. The
// cluster recovery handoff exchanges these so a rejoining node can
// discount journal records a live peer already ingested.
type ClientRange struct {
	ID    uint64    `json:"id"`
	Spans []SeqSpan `json:"spans"`
}

// clientSeq is the per-client exactly-once state. The high-water mark
// survives reconnects (keyed by the hello's client id) and is atomic
// because a killed connection's reader can linger briefly while the
// replacement connection is already streaming. Alongside it, spans
// records exactly which sequence numbers were accounted: a live stream
// is consecutive, so the list stays at one span per ownership stint and
// only fragments when a stream resumes past a gap — frames the client
// streamed to another cluster node in between, precisely the ranges a
// recovery handoff must not claim as this node's.
type clientSeq struct {
	last atomic.Uint64

	mu    sync.Mutex
	spans []SeqSpan
}

// account returns whether seq is new for this client, advancing the
// high-water mark (and the span list) when it is.
func (cs *clientSeq) account(seq uint64) bool {
	for {
		cur := cs.last.Load()
		if seq <= cur {
			return false
		}
		if cs.last.CompareAndSwap(cur, seq) {
			cs.noteSpan(seq)
			return true
		}
	}
}

// noteSpan folds one accounted sequence number into the sorted,
// non-adjacent span list. Concurrent winners of the account CAS can
// arrive here out of order, so the fold is a general sorted insert with
// neighbour merging rather than a tail append.
func (cs *clientSeq) noteSpan(seq uint64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	spans := cs.spans
	// Walk from the tail: seq is almost always the new maximum.
	i := len(spans)
	for i > 0 && spans[i-1].First > seq {
		i--
	}
	if i > 0 && seq <= spans[i-1].Last {
		return // already covered
	}
	left := i > 0 && spans[i-1].Last+1 == seq
	right := i < len(spans) && spans[i].First == seq+1
	switch {
	case left && right:
		spans[i-1].Last = spans[i].Last
		cs.spans = append(spans[:i], spans[i+1:]...)
	case left:
		spans[i-1].Last = seq
	case right:
		spans[i].First = seq
	default:
		cs.spans = append(spans, SeqSpan{})
		copy(cs.spans[i+1:], cs.spans[i:])
		cs.spans[i] = SeqSpan{First: seq, Last: seq}
	}
}

// snapshotSpans copies the span list for a ranges reply or a journal
// snapshot.
func (cs *clientSeq) snapshotSpans() []SeqSpan {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return append([]SeqSpan(nil), cs.spans...)
}

// restoreSpans installs a recovered span list wholesale (replay is
// single-threaded; no concurrent accounts exist yet).
func (cs *clientSeq) restoreSpans(spans []SeqSpan) {
	cs.mu.Lock()
	cs.spans = append(cs.spans[:0], spans...)
	if n := len(cs.spans); n > 0 {
		cs.last.Store(cs.spans[n-1].Last)
	} else {
		cs.last.Store(0)
	}
	cs.mu.Unlock()
}

// shardBarrier quiesces the shard workers for a snapshot: each worker
// acks on reached when it dequeues a barrier item (its queue prefix
// fully delivered) and then parks until resume closes. While every
// worker is parked, shard flow tables and controller stats are a
// consistent cut. Barriers are only pushed while the journal mutex
// serializes all ingest, so nothing is queued behind one until the
// snapshot is taken, and a shard holds one barrier at a time.
type shardBarrier struct {
	reached chan struct{}
	resume  chan struct{}
}

// queueDepth is the ring size each shard starts with.
const queueDepth = 1024

// shard is one independent ingest lane: ring queue, controller, and
// per-flow dedup windows. The queue is guarded by mu; the flow table is
// touched only by the shard's worker goroutine. The ring holds items by
// value, reports and ticks and barriers alike; the barrier a barrier
// item parks the worker on is the shard's barrier field, set with the
// item.
//
// A full ring pushes back on the connection: readers wait in waitRoom
// before they take the journal lock. A push runs under that lock or in a
// rotation's barrier, so it never waits or drops; if it finds the ring
// full (readers passed waitRoom together, or a barrier followed a batch
// that filled it) the ring grows.
type shard struct {
	mu      sync.Mutex
	cond    *sync.Cond // signalled when items arrive or the shard closes
	room    *sync.Cond // broadcast when the worker frees slots, or on DisconnectAll
	ring    []item
	head, n int
	waiters int           // readers parked in waitRoom
	barrier *shardBarrier // what a queued barrier item parks the worker on
	closed  bool

	ctrl      *dataplane.Controller
	flows     flowTable
	maxFlows  int
	evictions atomic.Uint64
}

func newShard(ctrlCfg dataplane.ControllerConfig, depth, maxFlows int) *shard {
	sh := &shard{
		ring:     make([]item, depth),
		ctrl:     dataplane.NewControllerWithConfig(ctrlCfg),
		maxFlows: maxFlows,
	}
	sh.cond = sync.NewCond(&sh.mu)
	sh.room = sync.NewCond(&sh.mu)
	return sh
}

// waitRoom blocks until the ring can take need more items without
// growing, and reports true; or reports false once gone does.
func (sh *shard) waitRoom(need int, gone func() bool) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for len(sh.ring)-sh.n < need {
		if gone() {
			return false
		}
		sh.waiters++
		sh.room.Wait()
		sh.waiters--
	}
	return true
}

// pushBatch enqueues a slice of items with one lock acquisition and one
// worker wakeup — the batched hand-off the connection readers use so
// queue-lock traffic scales with batches, not frames. A full ring
// doubles, keeping the queue order.
func (sh *shard) pushBatch(items []item) {
	if len(items) == 0 {
		return
	}
	sh.mu.Lock()
	for i := range items {
		if sh.n == len(sh.ring) {
			ring := make([]item, 2*len(sh.ring))
			k := copy(ring, sh.ring[sh.head:])
			copy(ring[k:], sh.ring[:sh.head])
			sh.ring, sh.head = ring, 0
		}
		sh.ring[(sh.head+sh.n)%len(sh.ring)] = items[i]
		sh.n++
	}
	sh.mu.Unlock()
	sh.cond.Signal()
}

// pushBarrier makes b the shard's barrier and queues the item that parks
// the worker on it. The caller pushes the next barrier only once b's
// resume is closed.
func (sh *shard) pushBarrier(b *shardBarrier) {
	sh.mu.Lock()
	sh.barrier = b
	sh.mu.Unlock()
	sh.pushBatch([]item{{kind: itemBarrier}})
}

// popBatch dequeues up to cap(dst)-len(dst) items into dst with one
// lock acquisition, blocking until at least one arrives or the shard is
// closed and drained (ok=false).
func (sh *shard) popBatch(dst []item) ([]item, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for sh.n == 0 {
		if sh.closed {
			return dst, false
		}
		sh.cond.Wait()
	}
	for len(dst) < cap(dst) && sh.n > 0 {
		dst = append(dst, sh.ring[sh.head])
		sh.ring[sh.head] = item{}
		sh.head = (sh.head + 1) % len(sh.ring)
		sh.n--
	}
	if sh.waiters > 0 {
		sh.room.Broadcast()
	}
	return dst, true
}

// shardDrainBatch caps the items a worker drains per queue-lock
// acquisition (and per controller-lock acquisition for a report run).
const shardDrainBatch = 256

// run is the shard worker: it drains the queue into the controller,
// replaying each report through the same per-flow dedup path the
// in-process data plane uses, so the admission totals match a single
// local controller exactly (for quarantine-free configs; see DESIGN §8
// for why per-reporter quarantine is a per-shard property). Draining is
// batched end to end: one queue-lock acquisition pops up to
// shardDrainBatch items, and each run of consecutive reports between
// ticks/barriers is delivered under one controller-lock acquisition.
// Delivery order — and therefore every admission decision — is
// identical to popping one item at a time.
func (sh *shard) run() {
	buf := make([]item, 0, shardDrainBatch)
	fds := make([]dataplane.FlowDelivery, 0, shardDrainBatch)
	for {
		var ok bool
		buf, ok = sh.popBatch(buf[:0])
		if !ok {
			return
		}
		fds = fds[:0]
		flush := func() {
			if len(fds) > 0 {
				sh.ctrl.DeliverFlowBatch(fds)
				fds = fds[:0]
			}
		}
		for i := range buf {
			switch it := &buf[i]; it.kind {
			case itemBarrier:
				flush()
				// Set under mu before the item was queued, and not set
				// again until this barrier's resume is closed.
				b := sh.barrier
				b.reached <- struct{}{}
				<-b.resume
			case itemTick:
				flush()
				sh.ctrl.Tick()
			default:
				fds = sh.appendDelivery(fds, it)
				it.members = nil // the delivered event holds them now
			}
		}
		flush()
	}
}

// appendDelivery appends the delivery of report it to the shard
// controller: its event, which takes over the item's members, and its
// flow's dedup window. The shard worker and recovery's Commit both
// deliver through it.
func (sh *shard) appendDelivery(fds []dataplane.FlowDelivery, it *item) []dataplane.FlowDelivery {
	return append(fds, dataplane.FlowDelivery{Ev: it.event(), W: sh.window(it.flow), Hop: int(it.hop)})
}

// window returns (creating if needed) the flow's dedup window, applying
// the bounded-table eviction policy: a full table starts over empty on
// fresh pages, never on its old ones, so windows an undelivered batch
// still points at stay valid.
func (sh *shard) window(flow uint32) *dataplane.DedupWindow {
	if i := sh.flows.find(flow); i >= 0 {
		return &sh.flows.slot(i).w
	}
	if sh.flows.len() >= sh.maxFlows {
		sh.flows.reset()
		sh.evictions.Add(1)
	}
	return sh.flows.add(flow)
}

// flowPageSlots is the slot count of one flow-table page: a shard
// allocates one page per this many new flows.
const flowPageSlots = 1024

// flowSlot is one flow's dedup state in a flow table: 72 bytes.
type flowSlot struct {
	flow uint32
	w    dataplane.DedupWindow
}

// flowTable is a shard's dense per-flow dedup state: a flowIndex from
// flow to slot number over fixed-size pages of slots, filled in
// first-seen order. Neither the index nor a page holds a pointer, so
// the garbage collector scans one small page list instead of a window
// per flow.
//
// The index grows by doubling while a shard fills its first MaxFlows
// flows (recovery sizes it once instead) and is only cleared at later
// resets, so it never grows again.
// Pages are not reused: a reset drops them and later flows land on
// fresh ones, which keeps every *DedupWindow handed out stable for as
// long as it is held and lets the old pages be collected.
type flowTable struct {
	flowIndex
	pages []*[flowPageSlots]flowSlot
}

// flowIndex maps flows to slot numbers, handed out in insertion order.
// It is one array of cells, each a flow and its slot number side by
// side so a probe touches one cache line, probed linearly from the high
// bits of a mixed flow ID and kept at most 3/4 full. A flowTable keeps
// its windows on pages beside one.
type flowIndex struct {
	cells []flowCell
	shift uint8 // 32 - log2(len(cells))
	n     int32
}

// flowCell is one index cell: a flow and its slot number plus one (0
// marks an empty cell).
type flowCell struct {
	flow uint32
	slot int32
}

// flowIndexMin is the cell count of a flow index's first allocation.
const flowIndexMin = 64

// len returns the number of flows in the index.
func (x *flowIndex) len() int { return int(x.n) }

// slot returns slot i.
func (t *flowTable) slot(i int32) *flowSlot {
	return &t.pages[i/flowPageSlots][i%flowPageSlots]
}

// home returns flow's first probe cell: the high bits of xhash.Mix32.
// Its low bits would not do, because they pick the shard (Mix32 modulo
// the shard count), so all of one shard's flows share them. A full
// mixer rather than one multiply, because flow IDs are packed fields
// (epoch, source, journey in the scenarios) that a Fibonacci multiply
// clusters; Mix32 spreads them like random keys.
func (x *flowIndex) home(flow uint32) int {
	return int(xhash.Mix32(flow) >> x.shift)
}

// find returns flow's slot number, or -1 if the index does not hold it.
//
//unroller:hotpath
func (x *flowIndex) find(flow uint32) int32 {
	if x.n == 0 {
		return -1
	}
	mask := len(x.cells) - 1
	for c := x.home(flow); ; c = (c + 1) & mask {
		cl := x.cells[c]
		if cl.slot == 0 {
			return -1
		}
		if cl.flow == flow {
			return cl.slot - 1
		}
	}
}

// add indexes a flow the index does not hold under the next slot
// number, which it returns.
func (x *flowIndex) add(flow uint32) int32 {
	if 4*(int(x.n)+1) > 3*len(x.cells) {
		x.grow()
	}
	i := x.n
	x.insert(flow, i+1)
	x.n++
	return i
}

// add appends a slot for a flow the table does not hold and returns its
// (empty) window.
func (t *flowTable) add(flow uint32) *dataplane.DedupWindow {
	i := t.flowIndex.add(flow)
	if int(i) == len(t.pages)*flowPageSlots {
		t.pages = append(t.pages, new([flowPageSlots]flowSlot))
	}
	sl := t.slot(i)
	sl.flow = flow
	return &sl.w
}

// insert puts flow with slot value s (slot number plus one) into the
// first empty cell of its probe sequence.
func (x *flowIndex) insert(flow uint32, s int32) {
	mask := len(x.cells) - 1
	c := x.home(flow)
	for x.cells[c].slot != 0 {
		c = (c + 1) & mask
	}
	x.cells[c] = flowCell{flow: flow, slot: s}
}

// grow doubles the index (or allocates its first flowIndexMin cells)
// and reinserts every flow.
func (x *flowIndex) grow() {
	cells := x.cells
	x.alloc(max(2*len(cells), flowIndexMin))
	for _, cl := range cells {
		if cl.slot != 0 {
			x.insert(cl.flow, cl.slot)
		}
	}
}

// alloc gives the index n empty cells, n a power of two.
func (x *flowIndex) alloc(n int) {
	x.cells = make([]flowCell, n)
	x.shift = uint8(32 - bits.TrailingZeros(uint(n)))
}

// resetFor empties the index and sizes it to hold n flows: to the size
// doubling would reach for them, unless it is larger already, in which
// case it is cleared in place. Adding up to n flows then never grows it.
func (x *flowIndex) resetFor(n int) {
	c := flowIndexMin
	for 3*c < 4*n {
		c *= 2
	}
	if c > len(x.cells) {
		x.alloc(c)
	} else {
		clear(x.cells)
	}
	x.n = 0
}

// reset empties the table in place: the index is cleared and the pages
// are dropped for fresh ones.
func (t *flowTable) reset() {
	t.resetFor(0)
}

// resetFor empties the table as reset does, sizing its index for n
// flows.
func (t *flowTable) resetFor(n int) {
	t.flowIndex.resetFor(n)
	clear(t.pages)
	t.pages = t.pages[:0]
}

// each calls fn for every slot in first-seen order.
func (t *flowTable) each(fn func(*flowSlot)) {
	n := t.len()
	for _, pg := range t.pages {
		for k := range pg[:min(n, flowPageSlots)] {
			fn(&pg[k])
		}
		n -= flowPageSlots
	}
}

// NewServer returns an idle server; call Serve or Start to run it.
// When cfg.Journal is set, new ingest is journaled but prior history is
// NOT replayed — use NewRecoveredServer for crash recovery.
func NewServer(cfg ServerConfig) *Server {
	s := buildServer(cfg)
	s.startWorkers()
	return s
}

// NewRecoveredServer builds a server and replays cfg.Journal into it
// before any worker or connection exists, so recovery is deterministic
// and worker-count invariant: records apply single-threaded, in journal
// order, through the same per-flow dedup path as live delivery. It
// returns what was restored; cfg.Journal must be set. It is the
// single-node form of NewStagedRecoveredServer: stage, then commit with
// no cross-node discard.
func NewRecoveredServer(cfg ServerConfig) (*Server, RecoveryStats, error) {
	st, err := NewStagedRecoveredServer(cfg)
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	return st.Commit(nil)
}

func buildServer(cfg ServerConfig) *Server {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.MaxFlows <= 0 {
		cfg.MaxFlows = DefaultMaxFlows
	}
	if cfg.AckEvery <= 0 {
		cfg.AckEvery = DefaultAckEvery
	}
	if cfg.Batch <= 0 {
		cfg.Batch = DefaultBatch
	}
	// A reader waits for room for its whole batch, which a larger batch
	// than the queue would never find.
	cfg.Batch = min(cfg.Batch, queueDepth)
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = DefaultReadTimeout
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = DefaultMaxConns
	}
	s := &Server{
		cfg:        cfg,
		journal:    cfg.Journal,
		conns:      make(map[net.Conn]struct{}),
		clients:    make(map[uint64]*clientSeq),
		serveEnded: make(chan struct{}),
	}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, newShard(cfg.Controller, queueDepth, cfg.MaxFlows))
	}
	return s
}

func (s *Server) startWorkers() {
	for _, sh := range s.shards {
		sh := sh
		s.shardWG.Add(1)
		go func() { defer s.shardWG.Done(); sh.run() }()
	}
}

// Start listens on addr and serves in the background, returning the
// bound address (useful with ":0").
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("collectorsvc: listen %s: %w", addr, err)
	}
	go s.serve(ln)
	return ln.Addr(), nil
}

// Serve accepts connections on ln until Shutdown (or a fatal listener
// error) and blocks until the accept loop ends. Shard draining is
// completed by Shutdown, not Serve.
func (s *Server) Serve(ln net.Listener) error {
	s.serve(ln)
	return s.serveErr
}

func (s *Server) serve(ln net.Listener) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		close(s.serveEnded)
		return
	}
	s.ln = ln
	s.mu.Unlock()
	defer close(s.serveEnded)
	for {
		conn, err := ln.Accept()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				s.serveErr = fmt.Errorf("collectorsvc: accept: %w", err)
			}
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			conn.Close()
			s.connsRejected.Add(1)
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.conns64.Add(1)
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.handle(conn)
		}()
	}
}

// shardIndex routes a flow to its shard index. The hash is keyed so
// that flow IDs with structure (the scenarios pack epoch/src/k into
// them) still spread evenly.
func (s *Server) shardIndex(flow uint32) int {
	return int(xhash.Mix32(flow) % uint32(len(s.shards)))
}

// shardFor routes a flow to its shard.
func (s *Server) shardFor(flow uint32) *shard {
	return s.shards[s.shardIndex(flow)]
}

// handle is the per-connection reader: hello, then a stream of report
// and tick frames, acknowledged in batches. Any decode error kills the
// connection (the client reconnects and retransmits unacknowledged
// frames; sequence accounting absorbs the overlap). Every read and
// write is deadline-armed: a peer that goes silent for ReadTimeout or
// stops reading acks for WriteTimeout is reaped instead of parking this
// goroutine and its buffers forever.
//
// Reads are coalesced: one blocking read is followed by a drain of
// every complete frame the socket already delivered (frames are decoded
// in place from the 32 KiB read buffer, never copied out), so the
// syscall count scales with batches. The decoded batch is then
// accounted, journaled, and handed to the shard queues as one unit by
// ingestBatch, and one ack — covered by one journal Commit — closes it.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 1<<15)
	bw := bufio.NewWriterSize(conn, 1<<10)
	ackBuf := make([]byte, 0, lenPrefixSize+frameOverhead+seqBodyLen)

	// A peer that connects and disappears before its hello is read —
	// a port probe, a half-open casualty, or a clean client racing
	// Shutdown — is not a protocol violation; only malformed bytes or
	// a well-formed non-hello frame count against badFrames, the same
	// policy the mid-stream loop applies.
	conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	f, err := ReadFrameBuffered(br)
	if err != nil {
		if isWireError(err) {
			s.badFrames.Add(1)
		}
		return
	}
	if f.Type != FrameHello {
		s.badFrames.Add(1)
		return
	}
	cs := s.clientState(f.ClientID)
	clientID := f.ClientID
	gen := s.disconnects.Load()
	gone := func() bool { return s.disconnects.Load() != gen } // DisconnectAll ran

	var lastSeen, lastAcked uint64
	pending := 0
	force := false
	flushAck := func() bool {
		if pending == 0 && lastSeen == lastAcked && !force {
			return true
		}
		// Nothing is acknowledged before the journal has flushed it to
		// the OS (and synced it, under FsyncAlways) — the ack is the
		// client's licence to forget, so it must not outrun durability.
		if s.journal != nil {
			s.journal.Commit()
			if s.journal.Failed() {
				// The commit could not make the batch durable: withhold
				// the ack and kill the connection, so the client keeps
				// retransmitting instead of forgetting frames that never
				// reached the journal. /healthz turns unready on the same
				// flag (Server.Healthy), which is the operator's signal.
				return false
			}
		}
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		var err error
		if ackBuf, err = writeAck(bw, ackBuf, lastSeen); err != nil {
			return false
		}
		lastAcked = lastSeen
		pending = 0
		force = false
		return true
	}

	batch := make([]item, 0, s.cfg.Batch)
	groups := make([][]item, len(s.shards))
	// ingest first waits, before any lock, until every shard has room
	// for the batch: n frames add at most n items to a shard (a tick
	// adds one to each). It reports false if the reader gave up waiting
	// (gone): the batch is not accounted, and must not be acknowledged.
	ingest := func() bool {
		if len(batch) == 0 {
			return true
		}
		for _, sh := range s.shards {
			if !sh.waitRoom(len(batch), gone) {
				return false
			}
		}
		s.ingestBatch(cs, clientID, batch, groups)
		batch = batch[:0]
		return true
	}

	for {
		// The deadline re-arms per blocking read, so it bounds
		// inter-frame silence, not connection lifetime; the drained
		// frames below are already buffered and never touch the socket.
		conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		f, err = ReadFrameBuffered(br)
		if err != nil {
			if isWireError(err) {
				s.badFrames.Add(1)
			}
			flushAck()
			return
		}
		frames := uint64(1)
	drain:
		for {
			switch f.Type {
			case FrameReport, FrameTick:
				if f.seq > lastSeen {
					lastSeen = f.seq
				}
				batch = append(batch, f.item)
				pending++
			case FrameHeartbeat:
				// Not sequence-accounted; answer with the current
				// high-water mark so an idle session has ack traffic
				// inside the client's staleness window.
				force = true
			case FrameHello:
				// A repeated hello with the same identity is a harmless
				// keep of the binding. A *different* identity rebinds the
				// connection: the old client's frames are ingested and
				// acknowledged first, then the ack state resets — lastSeen
				// and lastAcked are per-client sequence numbers, and
				// carrying them across the rebind would acknowledge
				// sequences the new client never sent.
				if f.ClientID != clientID {
					if !ingest() || !flushAck() {
						s.frames.Add(frames)
						return
					}
					cs = s.clientState(f.ClientID)
					clientID = f.ClientID
					lastSeen, lastAcked, pending = 0, 0, 0
				}
			default:
				s.badFrames.Add(1)
				s.frames.Add(frames)
				if ingest() {
					flushAck()
				}
				return
			}
			if len(batch) >= s.cfg.Batch || !frameBuffered(br) {
				break drain
			}
			if f, err = ReadFrameBuffered(br); err != nil {
				// The frame was fully buffered, so this is a frame-format
				// error, not a transport one.
				s.badFrames.Add(1)
				s.frames.Add(frames)
				if ingest() {
					flushAck()
				}
				return
			}
			frames++
		}
		s.frames.Add(frames)
		if !ingest() {
			return
		}
		// Acknowledge at batch boundaries (socket idle) or once at least
		// AckEvery frames are pending, whichever comes first.
		if pending >= s.cfg.AckEvery || br.Buffered() == 0 {
			if !flushAck() {
				return
			}
		}
	}
}

// writeAck flushes one acknowledgement frame for seq to the peer. The
// ack is the client's licence to forget the acknowledged frames, so the
// commit-before-ack rule (DESIGN §9) requires a Journal.Commit on every
// path into this function — the commitorder analyzer enforces that
// statically at each call site.
//
//unroller:ackpoint
func writeAck(bw *bufio.Writer, ackBuf []byte, seq uint64) ([]byte, error) {
	ackBuf = AppendAck(ackBuf[:0], seq)
	if _, err := bw.Write(ackBuf); err != nil {
		return ackBuf, err
	}
	return ackBuf, bw.Flush()
}

// ingestBatch accounts a batch of report/tick frames and, for the new
// ones, journals them and hands them to the shard queues. With a
// journal, the whole batch's account+append+enqueue runs under one
// journal-mutex acquisition: a rotation snapshot therefore always sees
// either none or all three effects of each frame (the §9 consistent-cut
// argument, now at batch grain — rotation is checked once per batch, so
// a segment may overshoot SegmentBytes by at most one batch of
// records). The batch's new reports and ticks are journaled as one batch
// frame, encoded in the journal's reused buffer and sealed before the
// rotation check, so a batch appends without per-report allocations,
// with one CRC, and the caller's single Commit (in flushAck) makes all
// of it durable at once.
//
// groups is the caller's reusable per-shard staging area: new reports
// are bucketed by shard, a tick is appended to every shard's group, and
// each group is pushed as one slice (pushBatch copies it, so the
// backing arrays are reused), so queue locks and worker wakeups are per
// batch, not per report. Each shard's queue sees reports and ticks in
// arrival order, and a journal replay (which applies records one at a
// time, in order) reproduces the exact same delivery sequence. The
// caller has waited in waitRoom first; no push here waits or drops.
func (s *Server) ingestBatch(cs *clientSeq, clientID uint64, batch []item, groups [][]item) {
	j := s.journal
	if j != nil {
		j.mu.Lock()
		defer j.mu.Unlock()
	}
	var ingested, ticks, dupes uint64
	for i := range batch {
		it := &batch[i]
		if !cs.account(it.seq) {
			dupes++
			continue
		}
		if j != nil {
			j.batchAppendLocked(clientID, it)
		}
		if it.kind == itemTick {
			ticks++
			for i := range groups {
				groups[i] = append(groups[i], *it)
			}
			continue
		}
		ingested++
		idx := s.shardIndex(it.flow)
		groups[idx] = append(groups[idx], *it)
	}
	for i, g := range groups {
		s.shards[i].pushBatch(g)
		groups[i] = g[:0]
	}
	if dupes > 0 {
		s.dupes.Add(dupes)
	}
	if ingested > 0 {
		s.ingested.Add(ingested)
	}
	if ticks > 0 {
		s.ticks.Add(ticks)
	}
	if j != nil {
		j.sealBatchLocked()
		if j.needsRotateLocked() {
			s.rotateWithSnapshotLocked(j)
		}
	}
}

// isWireError reports whether err is a frame-format error (as opposed
// to a transport error like EOF or a closed socket).
func isWireError(err error) bool {
	return errors.Is(err, ErrBadFrame) || errors.Is(err, ErrBadVersion) || errors.Is(err, ErrOversizeFrame)
}

// clientState returns (creating on first sight) the exactly-once state
// for a client identity.
func (s *Server) clientState(id uint64) *clientSeq {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := s.clients[id]
	if cs == nil {
		cs = &clientSeq{}
		s.clients[id] = cs
	}
	return cs
}

// DisconnectAll closes every active connection — the fault-injection
// surface the reconnect tests (and chaos drills) use. Clients are
// expected to reconnect and retransmit; sequence accounting keeps the
// ingest exactly-once across the kill. A reader waiting for shard room
// gives its batch up unacknowledged and returns.
func (s *Server) DisconnectAll() {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.disconnects.Add(1)
	for _, c := range conns {
		c.Close()
	}
	for _, sh := range s.shards {
		sh.mu.Lock() // orders the wake after a waiter's check
		sh.room.Broadcast()
		sh.mu.Unlock()
	}
}

// Shutdown drains the server gracefully: stop accepting, close active
// connections, wait for their readers, then flush every shard queue
// into its controller and stop the workers. After Shutdown returns, the
// stats are final and the accounting identities hold exactly.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.serveEnded
		s.connWG.Wait()
		s.shardWG.Wait()
		return
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
		<-s.serveEnded
	}
	s.DisconnectAll()
	s.connWG.Wait()
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.closed = true
		sh.mu.Unlock()
		sh.cond.Broadcast()
	}
	s.shardWG.Wait()
}

// Stats snapshots the service-level counters. After a recovery, the
// shard-resident counters (flow evictions, and the queue drops of an
// older collectord) include the baselines carried over from the journal
// snapshot.
func (s *Server) Stats() ServerStats {
	var st ServerStats
	st.Conns = s.conns64.Load()
	st.ConnsRejected = s.connsRejected.Load()
	st.Frames = s.frames.Load()
	st.BadFrames = s.badFrames.Load()
	st.Dupes = s.dupes.Load()
	st.CrossDupes = s.crossDupes.Load()
	st.Ingested = s.ingested.Load()
	st.Ticks = s.ticks.Load()
	s.mu.Lock()
	st.ActiveConns = len(s.conns)
	st.QueueDropped = s.queueDropBase
	st.FlowEvictions = s.flowEvictBase
	s.mu.Unlock()
	for _, sh := range s.shards {
		st.FlowEvictions += sh.evictions.Load()
	}
	return st
}

// ShardQueueStats is one shard's live queue gauge set for /statsz.
// Dropped and SheddedTicks keep their /statsz keys but always read 0:
// a full queue makes the connection reader wait instead of dropping.
type ShardQueueStats struct {
	Depth        int    `json:"depth"`
	Dropped      uint64 `json:"dropped"`
	SheddedTicks uint64 `json:"shedded_ticks"`
}

// QueueStats snapshots each shard's queue gauges, in shard order.
func (s *Server) QueueStats() []ShardQueueStats {
	out := make([]ShardQueueStats, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		out[i] = ShardQueueStats{Depth: sh.n}
		sh.mu.Unlock()
	}
	return out
}

// Health is the three-state /healthz readiness value.
type Health int

const (
	// HealthReady: accepting, and (when journaled) durability intact.
	HealthReady Health = iota
	// HealthRecovering: a staged journal replay has not yet committed —
	// the cluster handoff (peer range reconciliation) is still running
	// and nothing has reached a controller.
	HealthRecovering
	// HealthDegraded: shut down, durability lost (a journal append or
	// sync failed), or the installed overlay reports the node impaired
	// (the cluster node folds membership suspect-of-self in here).
	HealthDegraded
)

// String renders the /healthz body for each state.
func (h Health) String() string {
	switch h {
	case HealthReady:
		return "ready"
	case HealthRecovering:
		return "recovering"
	default:
		return "degraded"
	}
}

// SetHealthOverlay installs fn over the server's own health value; the
// cluster node uses it to fold membership state (self-suspicion while
// isolated) into /healthz. fn must be safe for concurrent use and
// should only escalate (ready → degraded), never mask a degraded or
// recovering server.
func (s *Server) SetHealthOverlay(fn func(Health) Health) {
	s.mu.Lock()
	s.healthOverlay = fn
	s.mu.Unlock()
}

// Health returns the three-state readiness: recovering until a staged
// recovery commits, degraded once closed or durability is lost, ready
// otherwise — filtered through the overlay when one is installed.
// Degraded outranks recovering: a node that lost its journal mid-replay
// must not advertise the transient state.
func (s *Server) Health() Health {
	s.mu.Lock()
	closed, recovering, overlay := s.closed, s.recovering, s.healthOverlay
	s.mu.Unlock()
	h := HealthReady
	if recovering {
		h = HealthRecovering
	}
	if closed || (s.journal != nil && s.journal.Failed()) {
		h = HealthDegraded
	}
	if overlay != nil {
		h = overlay(h)
	}
	return h
}

// Healthy is the binary readiness predicate: Health is HealthReady.
func (s *Server) Healthy() bool {
	return s.Health() == HealthReady
}

// Recovering reports whether a staged recovery has yet to commit. The
// cluster handoff checks this (not Health, which an overlay may have
// escalated) before serving its accounted ranges to a rejoining peer:
// a node that has not committed must answer "not ready" so two
// simultaneous recoveries never discount against each other's staged,
// uncommitted state.
func (s *Server) Recovering() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovering
}

// Journal returns the attached journal (nil when ingest is not
// journaled) — the admin endpoint reads its gauges from here.
func (s *Server) Journal() *Journal { return s.journal }

// Recovery returns what the journal replay restored (zero without one).
func (s *Server) Recovery() RecoveryStats { return s.recoveryReport }

// ShardStats snapshots each shard controller, in shard order.
func (s *Server) ShardStats() []dataplane.ControllerStats {
	out := make([]dataplane.ControllerStats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.ctrl.Stats()
	}
	return out
}

// ControllerStats merges the shard controllers into one aggregate
// snapshot; the admission identities survive the merge exactly (see
// dataplane.MergeControllerStats). After a recovery it includes the
// aggregate baseline from the journal snapshot: live shard controllers
// restart from zero, and the baseline restores the cumulative totals
// (with the crash-discarded buffered ring folded into Evicted, and
// Tick as baseline + live since replay re-ticks from zero).
func (s *Server) ControllerStats() dataplane.ControllerStats {
	m := dataplane.MergeControllerStats(s.ShardStats()...)
	s.mu.Lock()
	base := s.ctrlBase
	s.mu.Unlock()
	m.Delivered += base.Delivered
	m.Accepted += base.Accepted
	m.Deduped += base.Deduped
	m.Quarantined += base.Quarantined
	m.Evicted += base.Evicted
	m.Aged += base.Aged
	m.Tick += base.Tick
	return m
}

// Events returns the buffered events of every shard, shard order then
// ring order — the admin endpoint's recent-events view. (There is
// deliberately no merged TopReporters: sharding is by flow, so one
// reporter's accept counts scatter across shards and a global ranking
// would need cross-shard count merging the buffered rings can't
// support; rank the aggregate from Events or a downstream store.)
func (s *Server) Events() []dataplane.LoopEvent {
	var out []dataplane.LoopEvent
	for _, sh := range s.shards {
		out = append(out, sh.ctrl.Events()...)
	}
	return out
}
