package dataplane

import (
	"fmt"
	"sort"
	"sync"

	"github.com/unroller/unroller/internal/detect"
)

// Controller is the control-plane sink for loop reports. Real deployments
// would push these over a southbound channel; the emulator delivers them
// synchronously but the sink is safe for concurrent use so parallel
// benchmarks can share one.
//
// A production controller under churn must degrade gracefully: a
// million-flow batch traversing a flapping network can raise a report per
// flow, and an unbounded in-memory log is a self-inflicted outage. The
// controller therefore keeps a *bounded* ring of recent events (oldest
// evicted first), ages buffered events out on its logical clock, and
// applies a per-reporter quarantine so a flapping switch cannot dominate
// the buffer. All suppression is counted, never silent — see
// ControllerStats.
//
// Every admission rule is deliberately order-invariant so aggregate
// counts do not depend on worker scheduling: per-flow dedup state rides
// with the packet (a flow's journey is sequential), quarantine caps the
// *number* of events accepted per reporter per tick window (min(quota,
// arrivals) regardless of interleaving), and the clock only advances via
// Tick() while traffic is quiesced.
type Controller struct {
	mu  sync.Mutex
	cfg ControllerConfig

	// tick is the logical clock; it advances only through Tick(), which
	// the churn driver calls at quiesced epoch boundaries.
	tick uint64

	// ring is a circular buffer of the most recent accepted events:
	// ring[(head+i)%MaxEvents] for i in [0,n) is oldest→newest.
	ring []timedEvent
	head int
	n    int

	// Monotonic totals; delivered = accepted + deduped + quarantined.
	delivered   uint64
	accepted    uint64
	deduped     uint64
	quarantined uint64
	evicted     uint64
	aged        uint64

	// reporters tracks per-reporter accept totals (for TopReporters) and
	// quarantine state; bounded by the number of switches.
	reporters map[detect.SwitchID]*reporterState
}

// timedEvent stamps an event with the logical tick it was accepted at,
// so aging needs no wall clock.
type timedEvent struct {
	ev   LoopEvent
	tick uint64
}

// reporterState is the controller's per-reporter bookkeeping.
type reporterState struct {
	// total counts accepted events across the controller's lifetime.
	total uint64
	// window counts events accepted in the current tick window; Tick
	// resets it.
	window uint64
	// mutedUntil quarantines the reporter: events are suppressed while
	// tick < mutedUntil.
	mutedUntil uint64
}

// ControllerConfig tunes the hardening knobs. The zero value of each
// field disables that mechanism, except MaxEvents which falls back to
// DefaultMaxEvents (a controller with a truly unbounded log is never the
// right default under heavy traffic).
type ControllerConfig struct {
	// MaxEvents bounds the in-memory event ring; once full, accepting a
	// new event evicts the oldest. <= 0 selects DefaultMaxEvents.
	MaxEvents int
	// DedupWindow, in hops of the reporting packet's journey, suppresses
	// repeat reports from the same reporter for the same flow: a second
	// report within DedupWindow hops of the previously accepted one is
	// counted as deduped and not buffered. 0 disables dedup.
	DedupWindow int
	// QuarantineAfter caps the events accepted from one reporter within
	// a tick window; the reporter is then muted until the window rolls
	// over (plus QuarantineTicks). 0 disables quarantine.
	QuarantineAfter int
	// QuarantineTicks extends a triggered quarantine beyond the current
	// window: a flapping reporter that keeps tripping the cap stays
	// muted for this many additional ticks per trip.
	QuarantineTicks int
	// MaxAgeTicks evicts buffered events older than this many ticks at
	// each Tick (report aging). 0 disables aging.
	MaxAgeTicks int
}

// DefaultMaxEvents bounds the event ring when the config does not.
const DefaultMaxEvents = 4096

// LoopEvent is a controller-side record of one report.
type LoopEvent struct {
	detect.Report
	// Node is the topology node of the reporting switch.
	Node int
	// Flow is the flow whose packet raised the report (0 when unknown —
	// e.g. reports delivered through the bare Deliver API).
	Flow uint32
	// Members is the full loop membership when the report closed a
	// §3.5 collection lap; nil for plain detection reports.
	Members []detect.SwitchID
}

// ControllerStats is a snapshot of the controller's counters. All totals
// are monotonic since the last Reset; delivered = accepted + deduped +
// quarantined, and accepted = buffered + evicted + aged.
type ControllerStats struct {
	Delivered   uint64
	Accepted    uint64
	Deduped     uint64
	Quarantined uint64
	Evicted     uint64
	Aged        uint64
	Buffered    int
	Tick        uint64
}

// String renders the snapshot as a stable single line for event logs.
func (s ControllerStats) String() string {
	return fmt.Sprintf("delivered=%d accepted=%d deduped=%d quarantined=%d evicted=%d aged=%d buffered=%d",
		s.Delivered, s.Accepted, s.Deduped, s.Quarantined, s.Evicted, s.Aged, s.Buffered)
}

// NewController returns a controller with default hardening: a bounded
// ring of DefaultMaxEvents and no dedup/quarantine/aging.
func NewController() *Controller { return NewControllerWithConfig(ControllerConfig{}) }

// NewControllerWithConfig returns a controller with explicit hardening
// knobs.
func NewControllerWithConfig(cfg ControllerConfig) *Controller {
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = DefaultMaxEvents
	}
	return &Controller{
		cfg:       cfg,
		reporters: make(map[detect.SwitchID]*reporterState),
	}
}

// Config returns the controller's hardening configuration.
func (c *Controller) Config() ControllerConfig { return c.cfg }

// Deliver records a plain detection report.
func (c *Controller) Deliver(r detect.Report, node int) {
	c.DeliverEvent(LoopEvent{Report: r, Node: node})
}

// DeliverEvent records a full event (e.g. with loop membership), subject
// to quarantine and the ring bound but not to per-flow dedup (dedup
// needs the flow's journey context — see deliverFlow).
func (c *Controller) DeliverEvent(ev LoopEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.admitLocked(ev)
}

// dedupEntries is the capacity of a per-flow dedup window: the distinct
// reporters a single journey can realistically alternate between inside
// one window (reports are rare — at most one per detection, and a
// detection resets the in-band state).
const dedupEntries = 8

// DedupWindow is the per-flow dedup window. In the emulator it lives in
// the sender's scratch (one packet's journey is sequential), so it needs
// no locking, its memory is bounded per in-flight packet rather than per
// flow ever seen, and its decisions depend only on the flow's own
// history — the property that keeps controller aggregates
// worker-count-invariant. A networked collector (internal/collectorsvc)
// keeps one per flow on the ingesting shard and reproduces the same
// decisions from the hop counts carried on the wire.
type DedupWindow struct {
	n int
	e [dedupEntries]struct {
		reporter detect.SwitchID
		hop      int
	}
}

// Reset clears the window for a new flow.
func (d *DedupWindow) Reset() { d.n = 0 }

// DedupEntry is one externally-visible window slot — the serialization
// surface the collector's write-ahead journal snapshots through.
type DedupEntry struct {
	Reporter detect.SwitchID
	Hop      int
}

// AppendEntries appends the window's live slots to dst in insertion
// order and returns the extended slice. It allocates only when dst is
// short of capacity: a caller with a stack array of the window's
// capacity (8 slots) reads a window for free.
func (d *DedupWindow) AppendEntries(dst []DedupEntry) []DedupEntry {
	for i := 0; i < d.n; i++ {
		dst = append(dst, DedupEntry{Reporter: d.e[i].reporter, Hop: d.e[i].hop})
	}
	return dst
}

// Restore rebuilds the window from previously captured entries,
// truncating to capacity. AppendEntries then Restore is the identity
// for any window the controller can produce.
func (d *DedupWindow) Restore(entries []DedupEntry) {
	d.n = 0
	for _, e := range entries {
		if d.n == len(d.e) {
			return
		}
		d.e[d.n].reporter = e.Reporter
		d.e[d.n].hop = e.Hop
		d.n++
	}
}

// DeliverFlow is the data-plane delivery path: per-flow dedup against w,
// then the shared admission pipeline. hop is the reporting packet's hop
// count when the report fired. Returns whether the event was accepted.
func (c *Controller) DeliverFlow(ev LoopEvent, w *DedupWindow, hop int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deliverFlowLocked(ev, w, hop)
}

// FlowDelivery is one unit of a batched delivery: an event with its
// flow's dedup window and the reporting packet's hop count.
type FlowDelivery struct {
	Ev  LoopEvent
	W   *DedupWindow
	Hop int
}

// DeliverFlowBatch runs a batch through the same per-flow dedup and
// admission pipeline as DeliverFlow, in order, under one lock
// acquisition — the collector's shard workers use it so the controller
// mutex is taken per drained batch rather than per report. Entries may
// share a window (consecutive reports of one flow); decisions are
// identical to delivering them one at a time. Returns the number
// accepted.
func (c *Controller) DeliverFlowBatch(batch []FlowDelivery) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, d := range batch {
		if c.deliverFlowLocked(d.Ev, d.W, d.Hop) {
			n++
		}
	}
	return n
}

// deliverFlowLocked is DeliverFlow's body. Caller holds mu.
func (c *Controller) deliverFlowLocked(ev LoopEvent, w *DedupWindow, hop int) bool {
	if c.cfg.DedupWindow > 0 {
		for i := 0; i < w.n; i++ {
			if w.e[i].reporter == ev.Reporter && hop-w.e[i].hop < c.cfg.DedupWindow {
				c.delivered++
				c.deduped++
				return false
			}
		}
		// Record the accepted-report anchor: update the reporter's
		// entry, or take a free slot, or overwrite the stalest entry.
		slot := -1
		for i := 0; i < w.n; i++ {
			if w.e[i].reporter == ev.Reporter {
				slot = i
				break
			}
		}
		if slot < 0 {
			if w.n < dedupEntries {
				slot = w.n
				w.n++
			} else {
				slot = 0
				for i := 1; i < dedupEntries; i++ {
					if w.e[i].hop < w.e[slot].hop {
						slot = i
					}
				}
			}
		}
		w.e[slot].reporter = ev.Reporter
		w.e[slot].hop = hop
	}
	return c.admitLocked(ev)
}

// admitLocked runs quarantine and the ring bound. Caller holds mu.
func (c *Controller) admitLocked(ev LoopEvent) bool {
	c.delivered++
	rs := c.reporters[ev.Reporter]
	if rs == nil {
		rs = &reporterState{}
		c.reporters[ev.Reporter] = rs
	}
	if q := c.cfg.QuarantineAfter; q > 0 {
		if c.tick < rs.mutedUntil {
			c.quarantined++
			return false
		}
		if rs.window >= uint64(q) {
			// Tripping the cap mutes the reporter for the rest of this
			// window plus the configured backoff.
			rs.mutedUntil = c.tick + 1 + uint64(c.cfg.QuarantineTicks)
			c.quarantined++
			return false
		}
		rs.window++
	}
	rs.total++
	c.accepted++
	c.pushLocked(ev)
	return true
}

// pushLocked appends to the ring, evicting the oldest entry when full.
func (c *Controller) pushLocked(ev LoopEvent) {
	if c.ring == nil {
		c.ring = make([]timedEvent, c.cfg.MaxEvents)
	}
	if c.n == len(c.ring) {
		c.ring[c.head] = timedEvent{ev: ev, tick: c.tick}
		c.head = (c.head + 1) % len(c.ring)
		c.evicted++
		return
	}
	c.ring[(c.head+c.n)%len(c.ring)] = timedEvent{ev: ev, tick: c.tick}
	c.n++
}

// Tick advances the controller's logical clock: per-reporter quarantine
// windows roll over and buffered events past MaxAgeTicks age out. The
// churn driver calls it at quiesced epoch boundaries, which keeps every
// clock-driven decision deterministic.
func (c *Controller) Tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	for _, rs := range c.reporters {
		rs.window = 0
	}
	if c.cfg.MaxAgeTicks > 0 {
		for c.n > 0 && c.tick-c.ring[c.head].tick > uint64(c.cfg.MaxAgeTicks) {
			c.ring[c.head] = timedEvent{}
			c.head = (c.head + 1) % len(c.ring)
			c.n--
			c.aged++
		}
	}
}

// Memberships returns every completed loop-membership report still
// buffered.
func (c *Controller) Memberships() [][]detect.SwitchID {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out [][]detect.SwitchID
	for i := 0; i < c.n; i++ {
		e := c.ring[(c.head+i)%len(c.ring)].ev
		if len(e.Members) > 0 {
			out = append(out, append([]detect.SwitchID(nil), e.Members...))
		}
	}
	return out
}

// Events returns a copy of the buffered events, oldest first. Under the
// ring bound this is the most recent MaxEvents accepted events; use
// Stats for the monotonic totals.
func (c *Controller) Events() []LoopEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]LoopEvent, 0, c.n)
	for i := 0; i < c.n; i++ {
		out = append(out, c.ring[(c.head+i)%len(c.ring)].ev)
	}
	return out
}

// Count returns the number of reports accepted since the last Reset.
// It is monotonic: eviction and aging remove events from the buffer but
// not from this total.
func (c *Controller) Count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.accepted)
}

// Stats returns a snapshot of the admission counters.
func (c *Controller) Stats() ControllerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ControllerStats{
		Delivered:   c.delivered,
		Accepted:    c.accepted,
		Deduped:     c.deduped,
		Quarantined: c.quarantined,
		Evicted:     c.evicted,
		Aged:        c.aged,
		Buffered:    c.n,
		Tick:        c.tick,
	}
}

// Reset clears the log, the counters, the quarantine state, and the
// logical clock. The configuration survives.
func (c *Controller) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ring = nil
	c.head, c.n = 0, 0
	c.tick = 0
	c.delivered, c.accepted, c.deduped = 0, 0, 0
	c.quarantined, c.evicted, c.aged = 0, 0, 0
	c.reporters = make(map[detect.SwitchID]*reporterState)
}

// TopReporters returns reporting switches ranked by accepted-report
// count — the operator's first view of where a loop lives. The ranking
// uses lifetime totals, not the buffer, so it is unaffected by eviction
// and identical for any worker count.
func (c *Controller) TopReporters() []detect.SwitchID {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]detect.SwitchID, 0, len(c.reporters))
	for id, rs := range c.reporters {
		if rs.total > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		ti, tj := c.reporters[ids[i]].total, c.reporters[ids[j]].total
		if ti != tj {
			return ti > tj
		}
		return ids[i] < ids[j]
	})
	return ids
}

// MergeControllerStats folds per-shard snapshots into one aggregate.
// Every monotonic counter sums, so the admission identities survive the
// merge exactly: delivered = accepted + deduped + quarantined and
// accepted = buffered + evicted + aged hold for the aggregate whenever
// they hold per shard. Tick reports the maximum shard clock (shards of
// one collector tick together; a straggler only lags, never leads).
func MergeControllerStats(shards ...ControllerStats) ControllerStats {
	var out ControllerStats
	for _, s := range shards {
		out.Delivered += s.Delivered
		out.Accepted += s.Accepted
		out.Deduped += s.Deduped
		out.Quarantined += s.Quarantined
		out.Evicted += s.Evicted
		out.Aged += s.Aged
		out.Buffered += s.Buffered
		if s.Tick > out.Tick {
			out.Tick = s.Tick
		}
	}
	return out
}
