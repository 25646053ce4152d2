package dataplane

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/detect"
	"github.com/unroller/unroller/internal/topology"
)

// PortID indexes a switch's ports (its position in the adjacency list).
type PortID int

// Disposition is the pipeline's decision for a packet.
type Disposition uint8

const (
	// Forward sends the packet out of Egress.
	Forward Disposition = iota
	// Deliver terminates the packet at this switch (it is the
	// destination).
	Deliver
	// DropTTL discards the packet because its TTL reached zero.
	DropTTL
	// DropNoRoute discards the packet for lack of a FIB entry.
	DropNoRoute
	// DropLoop discards the packet because this switch detected a
	// routing loop and no backup port is configured (§4: "drop the
	// packet and inform the controller").
	DropLoop
	// RerouteLoop forwards the packet out of a backup port after
	// detecting a loop — the PURR-style reaction from the paper's
	// conclusion.
	RerouteLoop
	// DropLink discards the packet because its egress port's link is
	// down (fault injection: the FIB still points at the dead link but
	// the wire is gone).
	DropLink
	// DropCorrupt discards the packet because wire-level corruption made
	// the frame unparseable at this hop (fault injection: the receiving
	// switch rejects the malformed frame instead of forwarding garbage).
	DropCorrupt
)

// NumDispositions is the number of Disposition values — the size callers
// use for per-disposition count arrays.
const NumDispositions = int(DropCorrupt) + 1

// String names the disposition.
func (d Disposition) String() string {
	switch d {
	case Forward:
		return "forward"
	case Deliver:
		return "deliver"
	case DropTTL:
		return "drop-ttl"
	case DropNoRoute:
		return "drop-no-route"
	case DropLoop:
		return "drop-loop"
	case RerouteLoop:
		return "reroute-loop"
	case DropLink:
		return "drop-link"
	case DropCorrupt:
		return "drop-corrupt"
	default:
		return fmt.Sprintf("Disposition(%d)", uint8(d))
	}
}

// Decision is the full pipeline output for one packet.
type Decision struct {
	Disposition Disposition
	// Egress is valid for Forward and RerouteLoop.
	Egress PortID
	// LoopReport is non-nil when the Unroller logic fired at this
	// switch, regardless of whether the packet was dropped, rerouted,
	// or sent on a collection lap.
	LoopReport *detect.Report
	// Members is the full loop membership, present only when a
	// collection lap (§3.5) just completed at this switch.
	Members []detect.SwitchID
}

// InitialTTL is the TTL edge injection uses. Configurations with
// TTLHopCount derive the Unroller hop counter as InitialTTL − TTL, so
// such packets must enter the network with exactly this TTL.
const InitialTTL = 255

// Switch is one forwarding element. Per the paper, Unroller keeps no
// per-flow state on the switch: the registers hold only the switch's own
// identifier, the algorithm configuration, and the 256-entry phase-start
// lookup table (shared with every switch through the detector). The FIB
// is ordinary destination-based forwarding state.
type Switch struct {
	// ID is the switch identifier announced in packets.
	ID detect.SwitchID
	// Node is the topology node index this switch realises.
	Node int
	// LoopPolicy selects the reaction to a detected loop; the default
	// ActionReroute deflects when a backup port exists and drops
	// otherwise.
	LoopPolicy LoopAction

	// fib[d] is the egress port towards the destination at topology
	// node d, or noPort for no route. backup[d] is the alternate egress
	// used after a loop report, or noPort for "drop on loop". An entry
	// is one byte, so a table costs one byte per node (NewNetwork caps
	// switches at maxPorts ports). Each table is nil
	// until its first install, so an unrouted switch costs nothing.
	fib    []uint8
	backup []uint8
	// assign resolves a packet's destination identifier to the node
	// index the tables are keyed by; every switch of a network shares
	// it.
	assign *topology.Assignment
	// ports[p] is everything a forwarding hop reads about port p, in
	// one place.
	ports []portInfo

	// unroller is the shared detector (immutable, safe to share across
	// switches); it holds the phase lookup table the hardware keeps in
	// a register. ttlHops caches its Config.TTLHopCount.
	unroller *core.Unroller
	ttlHops  bool
	// fresh is the network's encoded header of a packet that has visited
	// no switch yet (shared, read-only); a deflection restarts detection
	// by copying it into the packet.
	fresh []byte

	// states lends per-packet detector state to Process; the network's
	// hop loop passes its own state instead. DecodeHeaderInto
	// overwrites every field, so reuse is invisible to the pipeline.
	states *statePool

	// stats are the live counters, mirroring what a P4 target would
	// expose; read a consistent-enough snapshot with Stats.
	stats switchCounters
}

// statePool recycles *core.State values so Process does not allocate a
// fresh state (struct plus two slices) per decode. It is a thin typed
// wrapper over sync.Pool; the Get-side type assertion lives here,
// outside any hotpath-tagged function body.
type statePool struct {
	pool sync.Pool
}

func newStatePool(u *core.Unroller) *statePool {
	sp := &statePool{}
	sp.pool.New = func() any { return u.NewPacketState() }
	return sp
}

func (sp *statePool) get() *core.State   { return sp.pool.Get().(*core.State) }
func (sp *statePool) put(st *core.State) { sp.pool.Put(st) }

// SwitchStats is a snapshot of a switch's packet counters.
type SwitchStats struct {
	Received  uint64
	Forwarded uint64
	Delivered uint64
	TTLDrops  uint64
	NoRoute   uint64
	LoopHits  uint64
	Reroutes  uint64
	LinkDrops uint64
	Restarts  uint64
}

// Counter indices into a tally and a switchCounters, one per
// SwitchStats field.
const (
	cntReceived = iota
	cntForwarded
	cntDelivered
	cntTTLDrops
	cntNoRoute
	cntLoopHits
	cntReroutes
	cntLinkDrops
	cntRestarts
	numCounters
)

// dispCounter is the counter each disposition bumps, -1 for none:
// DropLoop is counted through its report (see tally.count), and Process
// never returns DropCorrupt.
var dispCounter = [NumDispositions]int8{
	Forward:     cntForwarded,
	Deliver:     cntDelivered,
	DropTTL:     cntTTLDrops,
	DropNoRoute: cntNoRoute,
	DropLoop:    -1,
	RerouteLoop: cntReroutes,
	DropLink:    cntLinkDrops,
	DropCorrupt: -1,
}

// tally is one switch's counters as plain integers. TrafficEngine
// workers keep one per switch and merge them into the shared
// switchCounters when they drain their batch.
type tally [numCounters]uint64

// count derives the counters one pipeline run bumps from its outcome —
// the only place a Decision turns into counts. Every run is received; a
// failed one counts nothing else. A loop hit is a report raised by the
// detector; a collection lap closing (a report carrying Members)
// re-reports a loop already counted, so it is not a new hit.
//
//unroller:hotpath
func (t *tally) count(dec Decision, err error) {
	t[cntReceived]++
	if err != nil {
		return
	}
	if c := dispCounter[dec.Disposition]; c >= 0 {
		t[c]++
	}
	if dec.LoopReport != nil && dec.Members == nil {
		t[cntLoopHits]++
	}
}

// switchCounters are the live per-switch counters, one atomic per
// SwitchStats field, so concurrent Send calls can share switches without
// locks: each field is an independent statistic, so per-field atomicity
// is the exact semantics a hardware counter array has. Send, SendFlow
// and Process add one pipeline run at a time; TrafficEngine workers add
// a whole batch's tally when they drain.
type switchCounters [numCounters]atomic.Uint64

// add folds t into the counters.
func (c *switchCounters) add(t *tally) {
	for i, v := range t {
		if v != 0 {
			c[i].Add(v)
		}
	}
}

// count adds one pipeline run's outcome to the switch's counters.
func (s *Switch) count(dec Decision, err error) {
	var t tally
	t.count(dec, err)
	s.stats.add(&t)
}

// Stats returns a snapshot of the switch's counters. Each field is read
// atomically; when sends are in flight the fields may straddle packet
// boundaries, but once traffic quiesces (e.g. after SendMany returns)
// the snapshot is exact.
func (s *Switch) Stats() SwitchStats {
	return SwitchStats{
		Received:  s.stats[cntReceived].Load(),
		Forwarded: s.stats[cntForwarded].Load(),
		Delivered: s.stats[cntDelivered].Load(),
		TTLDrops:  s.stats[cntTTLDrops].Load(),
		NoRoute:   s.stats[cntNoRoute].Load(),
		LoopHits:  s.stats[cntLoopHits].Load(),
		Reroutes:  s.stats[cntReroutes].Load(),
		LinkDrops: s.stats[cntLinkDrops].Load(),
		Restarts:  s.stats[cntRestarts].Load(),
	}
}

// portInfo is one switch port.
type portInfo struct {
	// peer is the node index reachable through the port.
	peer int32
	// link is the network's index of the link behind the port.
	link int32
	// up is the physical state of that link, kept at both of its ports
	// (Network.LinkIsUp reads it). It is written only through
	// Network.SetLink while traffic is quiesced (the fault-injection
	// contract), so the hot path reads it without synchronisation.
	up bool
}

// newSwitch wires a switch for the given node; the network fills in each
// port's link index.
func newSwitch(node int, neighbors []int, assign *topology.Assignment, u *core.Unroller, states *statePool, fresh []byte) *Switch {
	ports := make([]portInfo, len(neighbors))
	for p, v := range neighbors {
		ports[p] = portInfo{peer: int32(v), up: true}
	}
	return &Switch{
		ID:         assign.ID(node),
		Node:       node,
		LoopPolicy: ActionReroute, // deflect when a backup exists, else drop
		assign:     assign,
		ports:      ports,
		unroller:   u,
		ttlHops:    u.Config().TTLHopCount,
		fresh:      fresh,
		states:     states,
	}
}

// noPort is a port-table entry without a route. Ports run from 0 to
// maxPorts−1, so it is never a real port.
const noPort = 0xFF

// maxPorts is the most ports a switch may have: every port and noPort
// must fit the one-byte table entry.
const maxPorts = noPort

// next returns a table's port for the destination at node dst, or
// noPort when the table has none — also for dst = -1 (an identifier
// outside the assignment) and for a table never allocated.
//
//unroller:hotpath
func next(table []uint8, dst int) uint8 {
	if uint(dst) >= uint(len(table)) {
		return noPort
	}
	return table[dst]
}

// install sets table's entry for dst to port, allocating the table on
// first use, and returns the table.
func (s *Switch) install(table []uint8, dst detect.SwitchID, port PortID) ([]uint8, error) {
	if int(port) < 0 || int(port) >= len(s.ports) {
		return table, fmt.Errorf("dataplane: %v has no port %d", s.ID, port)
	}
	node := s.assign.Node(dst)
	if node < 0 {
		return table, fmt.Errorf("dataplane: %v: destination %v is not a switch of the network", s.ID, dst)
	}
	return s.setPort(table, node, int(port)), nil
}

// setPort sets table's entry for the destination at node dst to port,
// allocating the table on first use, and returns the table. The caller
// has checked that dst is a node of the network and port one of the
// switch's ports; NewNetwork's checks make the assignment's length the
// node count and every port fit an entry.
func (s *Switch) setPort(table []uint8, dst, port int) []uint8 {
	if table == nil {
		table = make([]uint8, s.assign.Len())
		for i := range table {
			table[i] = noPort
		}
	}
	table[dst] = uint8(port)
	return table
}

// SetRoute installs dst→port in the FIB. dst must identify a switch of
// the network.
func (s *Switch) SetRoute(dst detect.SwitchID, port PortID) error {
	fib, err := s.install(s.fib, dst, port)
	s.fib = fib
	return err
}

// SetBackup installs an alternate egress for dst used after a loop
// report. dst must identify a switch of the network.
func (s *Switch) SetBackup(dst detect.SwitchID, port PortID) error {
	backup, err := s.install(s.backup, dst, port)
	s.backup = backup
	return err
}

// ClearBackups removes every backup route, reverting the switch to the
// paper's base behaviour: drop and report on detection.
func (s *Switch) ClearBackups() { s.backup = nil }

// ClearRoute withdraws the FIB entry for dst (a route withdrawal from
// the control plane); subsequent dst-bound packets drop as no-route.
func (s *Switch) ClearRoute(dst detect.SwitchID) {
	node := s.assign.Node(dst)
	if next(s.fib, node) != noPort {
		s.fib[node] = noPort
	}
	if next(s.backup, node) != noPort {
		s.backup[node] = noPort
	}
}

// Routes returns a copy of the FIB — the snapshot a scenario captures
// before a restart so recovery can reinstall the exact same state.
func (s *Switch) Routes() map[detect.SwitchID]PortID {
	out := make(map[detect.SwitchID]PortID)
	for node, port := range s.fib {
		if port != noPort {
			out[s.assign.ID(node)] = PortID(port)
		}
	}
	return out
}

// Restart emulates a switch reboot: the FIB and backup tables are wiped
// (forwarding state lives in volatile memory; until the control plane
// reprograms it, traffic through this switch drops as no-route). The
// Unroller registers survive conceptually — they hold only the switch's
// identifier and static configuration — and the traffic counters are
// external observability, so both are kept. Restart must not race with
// in-flight sends, like all route mutation.
func (s *Switch) Restart() {
	s.fib, s.backup = nil, nil
	s.stats[cntRestarts].Add(1)
}

// Route returns the FIB entry for dst; an identifier outside the
// network has none.
func (s *Switch) Route(dst detect.SwitchID) (PortID, bool) {
	port := next(s.fib, s.assign.Node(dst))
	if port == noPort {
		return 0, false
	}
	return PortID(port), true
}

// NextNode returns the node the FIB forwards traffic for the
// destination at node d to, or -1 when it has no route — the FIB read in
// topology space, with no identifier lookups.
func (s *Switch) NextNode(d int) int {
	port := next(s.fib, d)
	if port == noPort {
		return -1
	}
	return int(s.ports[port].peer)
}

// PortUp reports whether the link behind port p is up.
func (s *Switch) PortUp(p PortID) bool { return s.ports[p].up }

// Ports returns the number of ports.
func (s *Switch) Ports() int { return len(s.ports) }

// Peer returns the node index on the far end of port p.
func (s *Switch) Peer(p PortID) int { return int(s.ports[p].peer) }

// Process runs the ingress pipeline on the packet in place, mirroring the
// paper's P4 control block: (0) TTL check, (1) parse the Unroller header
// and bump Xcnt via Visit, (2)–(3) hash, compare, and update the stored
// identifiers, (4) on a match report to the controller and drop — or
// deflect to the backup port when one is installed — then deparse and
// forward by FIB. A destination outside the network has no route.
//
//unroller:hotpath
func (s *Switch) Process(p *Packet) (Decision, error) {
	st := s.states.get()
	dec, err := s.process(p, st, s.assign.Node(p.Dst))
	s.states.put(st)
	s.count(dec, err)
	return dec, err
}

// process is Process without the counters, decoding into st — the
// detector state the caller lends for this run — for a packet whose
// destination identifier p.Dst the caller has resolved to node dst (-1
// outside the network). The network's hop loop passes its worker's own
// state and its journey's destination, and counts the outcome itself.
//
//unroller:hotpath
func (s *Switch) process(p *Packet, st *core.State, dst int) (Decision, error) {
	// Collection-mode packets circulate the loop to record membership;
	// they never deliver.
	if p.Flags&FlagCollect != 0 {
		if p.TTL == 0 {
			return Decision{Disposition: DropTTL}, nil
		}
		p.TTL--
		return s.processCollect(p, dst)
	}

	// Destination check precedes everything: the last hop delivers.
	if p.Dst == s.ID {
		return Decision{Disposition: Deliver}, nil
	}

	// TTL: decrement and drop at zero, the loss Unroller preempts.
	if p.TTL == 0 {
		return Decision{Disposition: DropTTL}, nil
	}
	p.TTL--

	// Unroller control block over the in-band header.
	if len(p.Telemetry) > 0 {
		if err := s.decodeTelemetry(p, st); err != nil {
			//unroller:allow hotpath -- malformed-header path: the packet is already dead
			return Decision{}, fmt.Errorf("dataplane: %v: %w", s.ID, err)
		}
		if st.Visit(s.ID) == detect.Loop {
			//unroller:allow hotpath -- fires once per detected loop, not per hop
			report := &detect.Report{Reporter: s.ID, Hops: int(st.Hops())}
			return s.reactToLoop(p, dst, report)
		}
		tel, err := st.AppendHeader(p.Telemetry[:0])
		if err != nil {
			//unroller:allow hotpath -- encode failure path: the packet is already dead
			return Decision{}, fmt.Errorf("dataplane: %v: re-encode: %w", s.ID, err)
		}
		p.Telemetry = tel
	}

	// Destination-based forwarding.
	return s.forward(dst), nil
}

// forward is the FIB stage: the decision for a packet towards the
// destination at node dst.
//
//unroller:hotpath
func (s *Switch) forward(dst int) Decision {
	port := next(s.fib, dst)
	switch {
	case port == noPort:
		return Decision{Disposition: DropNoRoute}
	case !s.ports[port].up:
		return Decision{Disposition: DropLink}
	default:
		return Decision{Disposition: Forward, Egress: PortID(port)}
	}
}

// decodeTelemetry parses the packet's Unroller header into st, deriving
// the hop counter from the TTL when the configuration elides it
// (footnote 3 of the paper). TTL-derived counting requires packets
// injected with InitialTTL; Process has already decremented the TTL for
// this hop, so the pre-Visit hop count is InitialTTL − TTL − 1.
//
//unroller:allow errctx -- Process wraps every return as "dataplane: <switch>: %w"
func (s *Switch) decodeTelemetry(p *Packet, st *core.State) error {
	switch {
	case !s.ttlHops:
		return s.unroller.DecodeHeaderInto(st, p.Telemetry)
	case p.TTL >= InitialTTL:
		return fmt.Errorf("TTL %d inconsistent with TTL-derived hop counting (initial %d)", p.TTL, InitialTTL)
	default:
		return s.unroller.DecodeHeaderAtInto(st, p.Telemetry, uint64(InitialTTL)-uint64(p.TTL)-1)
	}
}

// reactToLoop applies the switch's loop policy to a packet towards the
// destination at node dst on which the Unroller logic just fired.
func (s *Switch) reactToLoop(p *Packet, dst int, report *detect.Report) (Decision, error) {
	switch s.LoopPolicy {
	case ActionReroute:
		if bp := next(s.backup, dst); bp != noPort && s.ports[bp].up {
			// Deflect: reset the telemetry so the detector
			// restarts on the new route.
			p.Telemetry = append(p.Telemetry[:0], s.fresh...)
			return Decision{Disposition: RerouteLoop, Egress: PortID(bp), LoopReport: report}, nil
		}
	case ActionCollect:
		// Tag the packet for one recording lap (§3.5); it keeps
		// following the looping FIB and returns here with the full
		// membership.
		if port := next(s.fib, dst); port != noPort && s.ports[port].up {
			rec := collectRecord{Initiator: s.ID}
			tel, err := rec.marshal()
			if err != nil {
				return Decision{}, err
			}
			p.Telemetry = tel
			p.Flags |= FlagCollect
			return Decision{Disposition: Forward, Egress: PortID(port), LoopReport: report}, nil
		}
	case ActionDrop:
		// fall through to the drop below
	}
	return Decision{Disposition: DropLoop, LoopReport: report}, nil
}

// PhaseStartLUT exposes the lookup-table register (useful for inspecting
// hardware fidelity in tests and the emulator CLI). It is rendered from
// the phase table the switch's header decoder reads.
func (s *Switch) PhaseStartLUT() []bool { return s.unroller.PhaseStartLUT() }
