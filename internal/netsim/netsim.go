// Package netsim is a discrete-event network simulator layered on top of
// the data-plane emulator: links with bandwidth, propagation delay, and
// finite FIFO queues; constant-bit-rate flows; and per-flow latency,
// jitter, and loss metrics.
//
// Its purpose is to reproduce the paper's introductory claims
// quantitatively: packets trapped in a routing loop keep consuming the
// loop links' bandwidth until their TTL expires, so innocent traffic
// sharing any of those links suffers queueing delay, jitter, and loss
// (Hengartner et al., the paper's [14]). With Unroller, looping packets
// die within a few hops and the collateral damage disappears — the
// experiment behind experiments.Collateral and
// BenchmarkLoopCollateral.
//
// Forwarding decisions are made by the same dataplane.Switch pipelines
// (byte-level parse, Unroller control block, FIB), so detection behaves
// exactly as in the rest of the repository; netsim adds only time.
package netsim

import (
	"container/heap"
	"fmt"
	"math"

	"github.com/unroller/unroller/internal/dataplane"
)

// Time is simulation time in seconds.
type Time = float64

// event is one scheduled action.
type event struct {
	at  Time
	seq uint64 // tie-break for deterministic ordering
	fn  func()
}

// eventHeap is a min-heap on (at, seq).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) Peek() (Time, bool) { return h[0].at, len(h) > 0 }

// LinkParams shape every link of a simulation (uniform links keep the
// model interpretable; heterogeneous links were not needed for the
// paper's claims).
type LinkParams struct {
	// BandwidthBps is the serialization rate in bits per second.
	BandwidthBps float64
	// PropDelay is the propagation delay in seconds.
	PropDelay Time
	// QueuePackets caps the per-direction FIFO; arrivals beyond it are
	// tail-dropped.
	QueuePackets int
	// SwitchDelay is the fixed pipeline processing time per packet.
	SwitchDelay Time
}

// DefaultLinkParams: 10 Gb/s links, 50 µs propagation, 64-packet
// queues, 1 µs pipelines.
func DefaultLinkParams() LinkParams {
	return LinkParams{
		BandwidthBps: 10e9,
		PropDelay:    50e-6,
		QueuePackets: 64,
		SwitchDelay:  1e-6,
	}
}

// directedLink tracks the transmit state of one link direction.
type directedLink struct {
	freeAt  Time // when the transmitter finishes its current backlog
	queued  int  // packets currently queued or in serialization
	drops   uint64
	carried uint64
}

// Sim is one simulation instance. Not safe for concurrent use.
type Sim struct {
	net    *dataplane.Network
	params LinkParams

	now    Time
	seq    uint64
	events eventHeap
	links  map[[2]int]*directedLink // directed: [from, to]

	flows map[uint32]*flowState
	aimd  map[uint32]*aimdState
}

// New builds a simulator over an already configured network (routes and
// loop policies installed by the caller).
func New(net *dataplane.Network, params LinkParams) (*Sim, error) {
	if params.BandwidthBps <= 0 || params.QueuePackets < 1 || params.PropDelay < 0 || params.SwitchDelay < 0 {
		return nil, fmt.Errorf("netsim: invalid link parameters %+v", params)
	}
	return &Sim{
		net:    net,
		params: params,
		links:  make(map[[2]int]*directedLink),
		flows:  make(map[uint32]*flowState),
	}, nil
}

// Now returns the current simulation time.
func (s *Sim) Now() Time { return s.now }

// schedule enqueues fn at time at (≥ now).
func (s *Sim) schedule(at Time, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	heap.Push(&s.events, event{at: at, seq: s.seq, fn: fn})
}

// Run executes events until the horizon (exclusive) or until the event
// queue drains. It returns the number of events processed.
func (s *Sim) Run(horizon Time) int {
	n := 0
	for len(s.events) > 0 {
		if at, _ := s.events.Peek(); at >= horizon {
			break
		}
		e := heap.Pop(&s.events).(event)
		s.now = e.at
		e.fn()
		n++
	}
	if s.now < horizon {
		s.now = horizon
	}
	return n
}

// link returns the directed link state from u to v, creating it lazily.
func (s *Sim) link(u, v int) *directedLink {
	k := [2]int{u, v}
	l, ok := s.links[k]
	if !ok {
		l = &directedLink{}
		s.links[k] = l
	}
	return l
}

// LinkCarried returns packets transmitted on the directed link u→v.
func (s *Sim) LinkCarried(u, v int) uint64 { return s.link(u, v).carried }

// LinkDrops returns tail drops on the directed link u→v.
func (s *Sim) LinkDrops(u, v int) uint64 { return s.link(u, v).drops }

// transmit sends pkt (already processed by node u's pipeline, egress
// decided) over the link u→v, modelling serialization, queueing, and
// propagation, then schedules arrival processing at v.
func (s *Sim) transmit(u, v int, wire []byte, meta pktMeta) {
	l := s.link(u, v)
	if l.queued >= s.params.QueuePackets {
		l.drops++
		if f := s.flows[meta.flow]; f != nil {
			f.stats.QueueDrops++
		}
		return
	}
	l.queued++
	bits := float64(len(wire) * 8)
	start := math.Max(s.now, l.freeAt)
	done := start + bits/s.params.BandwidthBps
	l.freeAt = done
	arrive := done + s.params.PropDelay
	l.carried++
	s.schedule(done, func() { l.queued-- })
	s.schedule(arrive, func() { s.arrive(v, wire, meta) })
}

// pktMeta carries simulation-side packet context.
type pktMeta struct {
	flow    uint32
	sentAt  Time
	hops    int
	nextSeq uint64
}

// arrive processes a packet landing at node v: run the switch pipeline
// after the fixed processing delay, then act on the decision.
func (s *Sim) arrive(v int, wire []byte, meta pktMeta) {
	s.schedule(s.now+s.params.SwitchDelay, func() {
		var p dataplane.Packet
		if err := p.Unmarshal(wire); err != nil {
			return // corrupt frames vanish; cannot happen internally
		}
		sw := s.net.Switch(v)
		dec, err := sw.Process(&p)
		if err != nil {
			return
		}
		if dec.LoopReport != nil {
			s.net.Controller.DeliverEvent(dataplane.LoopEvent{
				Report: *dec.LoopReport, Node: v, Members: dec.Members,
			})
		}
		meta.hops++
		f := s.flows[meta.flow]
		switch dec.Disposition {
		case dataplane.Deliver:
			if f != nil {
				f.recordDelivery(s.now - meta.sentAt)
			}
		case dataplane.DropTTL:
			if f != nil {
				f.stats.TTLDrops++
			}
		case dataplane.DropLoop:
			if f != nil {
				f.stats.LoopDrops++
			}
		case dataplane.DropNoRoute:
			if f != nil {
				f.stats.NoRouteDrops++
			}
		case dataplane.Forward, dataplane.RerouteLoop:
			next := sw.Peer(dec.Egress)
			out, err := p.Marshal()
			if err != nil {
				return
			}
			s.transmit(v, next, out, meta)
		}
	})
}
