package dataplane

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/detect"
	"github.com/unroller/unroller/internal/topology"
)

// Network is an emulated data plane: one Switch per topology node,
// destination-based FIBs (dense per-destination tables indexed through
// the shared Assign), and a controller sink for loop reports.
//
// A Network is safe for concurrent Send calls once its routes are
// installed: each call carries its own detector state and buffers, the
// shared switch and link-load counters are atomic, and the Controller
// sink is mutex-guarded. Route mutation (InstallShortestPaths,
// InjectLoop, SetRoute, SetLoopPolicy, ResetLoad) must not race with
// in-flight sends or with other route mutation — configure first, then
// inject traffic, exactly like a real network quiesces FIB updates.
type Network struct {
	Graph  *topology.Graph
	Assign *topology.Assignment

	switches []*Switch
	unroller *core.Unroller
	// states lends detector state to Send, SendFlow and Switch.Process.
	states *statePool
	// fresh is the encoded header of a packet that has visited no
	// switch yet — what every telemetry-carrying flow starts with.
	fresh []byte

	// Link-load accounting is dense and lock-free. Every undirected
	// link {u, v} (u < v) gets an index into links, assigned in
	// ascending (u, v) order so iteration — and therefore tie-breaking
	// in MaxLinkLoad — is deterministic. linkLoad[i] is the shared
	// traversal counter for links[i]; Send bumps it atomically, while
	// TrafficEngine workers batch traversals in private per-worker
	// accumulators and merge them here when their flows finish. A port's
	// link index and the link's state live in its switch's port table
	// (portInfo).
	links    [][2]int
	linkLoad []atomic.Uint64

	// corrupt, when non-nil, injects wire-level bit flips into frames in
	// flight. Decisions are a pure function of (seed, flow, hop), so a
	// corrupted run is replayable and worker-count-invariant. Set via
	// SetCorruption while quiesced.
	corrupt *CorruptionModel

	// bfsDist and bfsQueue are InstallShortestPaths' search scratch, one
	// entry per node, allocated on first use and reused by every later
	// install: route mutation never runs concurrently, so one pair
	// serves the whole network.
	bfsDist, bfsQueue []int32

	// Controller receives every loop report raised in the data plane.
	Controller *Controller

	// OnHop, when set, observes every packet arrival before the switch
	// pipeline runs — the tap a mirroring/tracing deployment would
	// install (cmd/unroller-offline records its trace through it). The
	// callback must not retain p (its slices alias reused scratch
	// buffers), and must itself be safe for concurrent use before
	// driving the network from multiple goroutines.
	OnHop func(node int, sw detect.SwitchID, p *Packet)

	// OnReport, when set, observes every loop report raised in the data
	// plane — the raw pre-admission stream, fired whether or not the
	// local Controller accepts the event. hop is the reporting packet's
	// hop count when the report fired, the context a remote collector
	// needs to replay per-flow dedup decisions (see
	// internal/collectorsvc). Called from Send's hop loop, so it must be
	// safe for concurrent use before driving the network from multiple
	// goroutines; ev.Members is heap-owned and safe to retain.
	OnReport ReportHook
}

// ReportHook observes a loop report leaving the data plane. The
// emulator's -collector mode installs one that streams events to a
// remote collectord.
type ReportHook func(ev LoopEvent, hop int)

// NewNetwork builds switches over g with identifiers from assign, all
// running the same Unroller configuration. assign must cover exactly
// the graph's nodes. A node may have at most 255 ports, the most a
// one-byte forwarding-table entry can name.
func NewNetwork(g *topology.Graph, assign *topology.Assignment, cfg core.Config) (*Network, error) {
	if assign.Len() != g.N() {
		return nil, fmt.Errorf("dataplane: assignment covers %d nodes, graph %s has %d", assign.Len(), g.Name, g.N())
	}
	for node := 0; node < g.N(); node++ {
		if d := len(g.Neighbors(node)); d > maxPorts {
			return nil, fmt.Errorf("dataplane: node %d has %d ports, more than the %d a switch's forwarding table can address", node, d, maxPorts)
		}
	}
	u, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	fresh, err := u.NewPacketState().AppendHeader(nil)
	if err != nil {
		return nil, err
	}
	n := &Network{
		Graph:      g,
		Assign:     assign,
		switches:   make([]*Switch, g.N()),
		unroller:   u,
		states:     newStatePool(u),
		fresh:      fresh,
		Controller: NewController(),
	}
	for node := 0; node < g.N(); node++ {
		n.switches[node] = newSwitch(node, g.Neighbors(node), assign, u, n.states, fresh)
	}
	n.indexLinks()
	return n, nil
}

// indexLinks numbers the undirected links {u, v} (u < v) in ascending
// (u, v) order and gives every switch its per-port link index, so a
// forwarding hop finds its link with one read of the switch's own table.
// The numbering is a counting sort: each lower endpoint u owns a block
// of indices sized by its count of higher neighbours, and visiting the
// higher endpoints v in ascending order fills every block in ascending
// v. A lower endpoint then finds its port's index by binary search in
// its own block.
func (n *Network) indexLinks() {
	g := n.Graph
	first := make([]int32, g.N()+1) // u's block is links[first[u]:first[u+1]]
	for u := 0; u < g.N(); u++ {
		first[u+1] = first[u]
		for _, v := range g.Neighbors(u) {
			if u < v {
				first[u+1]++
			}
		}
	}
	n.links = make([][2]int, first[g.N()])
	fill := slices.Clone(first[:g.N()])
	for v, sw := range n.switches {
		for p, u := range g.Neighbors(v) {
			if u < v {
				i := fill[u]
				fill[u]++
				n.links[i] = [2]int{u, v}
				sw.ports[p].link = i
			}
		}
	}
	for u, sw := range n.switches {
		block := n.links[first[u]:first[u+1]]
		for p := range sw.ports {
			if v := int(sw.ports[p].peer); u < v {
				i, _ := slices.BinarySearchFunc(block, v, func(l [2]int, v int) int { return cmp.Compare(l[1], v) })
				sw.ports[p].link = first[u] + int32(i)
			}
		}
	}
	n.linkLoad = make([]atomic.Uint64, len(n.links))
}

// Switch returns the switch at a node index.
func (n *Network) Switch(node int) *Switch { return n.switches[node] }

// SwitchByID returns the switch holding id, or nil.
func (n *Network) SwitchByID(id detect.SwitchID) *Switch {
	node := n.Assign.Node(id)
	if node < 0 {
		return nil
	}
	return n.switches[node]
}

// port returns u's port leading to node v; ok is false when u is not a
// node of the network or v is not one of its neighbours.
func (n *Network) port(u, v int) (p PortID, ok bool) {
	if u < 0 || u >= n.Graph.N() {
		return 0, false
	}
	for p, w := range n.Graph.Neighbors(u) {
		if w == v {
			return PortID(p), true
		}
	}
	return 0, false
}

// portTo returns u's port leading to neighbour node v.
func (n *Network) portTo(u, v int) (PortID, error) {
	if p, ok := n.port(u, v); ok {
		return p, nil
	}
	return 0, fmt.Errorf("dataplane: node %d has no link to %d", u, v)
}

// PortTo resolves node u's port leading to neighbour node v — the
// lookup scenario builders need to express FIB updates as RouteUpdate
// values.
func (n *Network) PortTo(u, v int) (PortID, error) { return n.portTo(u, v) }

// SetLink sets the physical state of the link {u, v}. A downed link
// drops packets at both endpoints' ports (DropLink) until restored; the
// FIBs are untouched — reconciling them is the control plane's job,
// which is exactly the window where transient loops live. Must not race
// with in-flight sends.
func (n *Network) SetLink(u, v int, up bool) error {
	pu, ok := n.port(u, v)
	if !ok {
		return fmt.Errorf("dataplane: no link (%d,%d)", u, v)
	}
	pv, _ := n.port(v, u) // links are undirected: v has a port back to u
	n.switches[u].ports[pu].up = up
	n.switches[v].ports[pv].up = up
	return nil
}

// LinkIsUp reports the physical state of the link {u, v}; absent links
// are down.
func (n *Network) LinkIsUp(u, v int) bool {
	p, ok := n.port(u, v)
	return ok && n.switches[u].ports[p].up
}

// SetCorruption installs (or, with prob <= 0, removes) the wire
// corruption model: each hop's frame is flipped one bit with probability
// prob, decided by xrand.Mix3(seed, flow, hop) so the storm replays
// identically from the seed at any worker count. Must not race with
// in-flight sends.
func (n *Network) SetCorruption(prob float64, seed uint64) {
	n.corrupt = newCorruptionModel(prob, seed)
}

// InstallShortestPaths programs every switch's FIB with a next hop
// towards dst along shortest paths (BFS tree from the destination). It
// also installs backup next hops where an alternative shortest-or-equal
// neighbour exists, enabling reroute-on-detect.
//
// One BFS from dst labels every node; each other node then picks both
// ports in one scan of its adjacency list (nextHopPorts) and writes them
// into its tables at dst's node index. The search runs in the network's
// own scratch slices, which is sound because route mutation must not
// race with sends or with other route mutation (see Network).
func (n *Network) InstallShortestPaths(dst int) error {
	g := n.Graph
	if dst < 0 || dst >= g.N() {
		return fmt.Errorf("dataplane: destination node %d out of range (graph has %d nodes)", dst, g.N())
	}
	if n.bfsDist == nil {
		n.bfsDist = make([]int32, g.N())
		n.bfsQueue = make([]int32, g.N())
	}
	dist := n.bfsDist
	g.BFSInto(dst, dist, n.bfsQueue)
	for u, du := range dist {
		if u == dst {
			continue
		}
		if du < 0 {
			return fmt.Errorf("dataplane: node %d cannot reach destination %d", u, dst)
		}
		primary, backup := nextHopPorts(g.Neighbors(u), dist, du)
		if primary < 0 {
			// Degenerate distance labelling (a BFS tree over a
			// consistent undirected graph always has a parent, but a
			// corrupt or hand-built dist can lack one).
			return fmt.Errorf("dataplane: node %d has no shortest-path next hop towards destination %d", u, dst)
		}
		sw := n.switches[u]
		sw.fib = sw.setPort(sw.fib, dst, primary)
		if backup >= 0 {
			sw.backup = sw.setPort(sw.backup, dst, backup)
		}
	}
	return nil
}

// nextHopPorts picks u's primary and backup egress ports towards a
// destination. neighbors is u's adjacency list, so a neighbour's position
// in it is its port; dist is the destination's BFS labelling and du is
// dist[u]. The primary is the first strictly closer neighbour (a parent
// on the BFS tree). The backup is the second strictly closer one, else
// the first equal-distance neighbour — a detour that still makes
// progress after one extra hop. The scan stops once it has two strictly
// closer neighbours. primary is -1 when no neighbour is strictly closer,
// a degenerate labelling the caller must reject; backup is -1 when there
// is no alternative.
func nextHopPorts(neighbors []int, dist []int32, du int32) (primary, backup int) {
	primary, equal := -1, -1
	for p, v := range neighbors {
		switch dist[v] {
		case du - 1:
			if primary >= 0 {
				return primary, p
			}
			primary = p
		case du:
			if equal < 0 {
				equal = p
			}
		}
	}
	return primary, equal
}

// InjectLoop misconfigures the FIBs for destination dst along the cycle:
// every switch on the cycle forwards dst-bound traffic to its successor,
// so any dst-bound packet reaching the cycle circulates until its TTL
// expires or Unroller reports. This is how routing loops actually arise —
// stale or inconsistent forwarding state — not from the physical graph.
func (n *Network) InjectLoop(dst int, cycle topology.Cycle) error {
	if err := cycle.Validate(n.Graph); err != nil {
		return err
	}
	dstID := n.Assign.ID(dst)
	for i, u := range cycle {
		v := cycle[(i+1)%cycle.Len()]
		p, err := n.portTo(u, v)
		if err != nil {
			return err
		}
		if err := n.switches[u].SetRoute(dstID, p); err != nil {
			return err
		}
	}
	return nil
}

// TraceHop is one step of a packet's journey.
type TraceHop struct {
	Node     int
	Switch   detect.SwitchID
	Decision Decision
}

// Trace is the full journey of one packet.
type Trace struct {
	Hops  []TraceHop
	Final Disposition
	// Report is the first loop report raised, if any.
	Report *detect.Report
	// Rerouted records whether the packet was deflected at least once.
	Rerouted bool
}

// Flow describes one packet injection at the network edge: a packet of
// flow ID enters at node Src destined to node Dst.
type Flow struct {
	Src, Dst int
	ID       uint32
	TTL      uint8
	// Telemetry attaches the in-band Unroller header; without it the
	// packet is the paper's blind counterfactual (loops burn TTL).
	Telemetry bool
}

// TraceSummary condenses a packet's journey to the quantities bulk
// experiments aggregate, without recording per-hop state — the result
// type of the TrafficEngine's batched injection.
type TraceSummary struct {
	// Flow echoes the injected flow ID.
	Flow uint32
	// Src and Dst echo the injection's edge nodes.
	Src, Dst int
	// Final is the packet's fate.
	Final Disposition
	// Hops is the number of switches the packet visited.
	Hops int
	// Rerouted records whether the packet was deflected at least once.
	Rerouted bool
	// Reports counts loop reports raised along the journey; Reporter
	// identifies the switch that raised the first one and ReportHop is
	// the 1-based hop at which it fired — the quantity Theorem 1 bounds,
	// preserved here so the cross-plane oracle (internal/verify) can
	// check every detection against the bound without per-hop traces.
	Reports   int
	Reporter  detect.SwitchID
	ReportHop int
	// Telemetry echoes whether the flow carried the in-band header; a
	// blind flow can never report, and the oracle classifies its missed
	// loops separately.
	Telemetry bool
}

// sendScratch holds the per-in-flight-packet reusable state of the hop
// loop: two wire buffers (each hop marshals into the buffer the packet
// was not parsed from, so in-place telemetry rewrites never alias the
// marshal destination), a telemetry seed buffer, the packet struct, the
// detector state every hop decodes into, and — for engine workers —
// private link-load and switch-counter accumulators.
type sendScratch struct {
	wireA, wireB []byte
	tel          []byte
	pkt          Packet
	st           *core.State
	// loads and tallies, when non-nil, receive link traversals and
	// switch counts (indexed by link and by node) instead of the shared
	// atomic counters; the owner folds them in via drain once its batch
	// completes.
	loads   []uint64
	tallies []tally
	// dedup is the per-flow report-dedup window (see DedupWindow); it is
	// reset at the start of every journey.
	dedup DedupWindow
}

// Send injects a packet at the network edge (node src) destined to node
// dst and emulates its journey hop by hop, re-marshalling the frame
// between switches exactly as wires would. The returned trace records
// every decision; reports are also delivered to the controller. Send is
// safe to call concurrently on a shared network (see the Network
// contract).
func (n *Network) Send(src, dst int, flow uint32, ttl uint8, withTelemetry bool) (*Trace, error) {
	sc := sendScratch{st: n.states.get()}
	tr := &Trace{}
	f := Flow{Src: src, Dst: dst, ID: flow, TTL: ttl, Telemetry: withTelemetry}
	_, err := n.send(&sc, f, tr)
	n.states.put(sc.st)
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// SendFlow injects one flow and returns only its summary — the
// allocation-lean path TrafficEngine workers use, exposed for callers
// that do not need per-hop traces.
func (n *Network) SendFlow(f Flow) (TraceSummary, error) {
	sc := sendScratch{st: n.states.get()}
	sum, err := n.send(&sc, f, nil)
	n.states.put(sc.st)
	return sum, err
}

// send is the hop loop shared by Send (tr != nil: full trace) and the
// traffic engine (tr == nil: summary only). Scratch buffers in sc are
// reused across hops and, for engine workers, across flows: after the
// first few hops warm the two wire buffers, a forwarding hop performs no
// heap allocation in this loop (the telemetry re-encode in
// Switch.process writes in place via AppendHeader(p.Telemetry[:0])).
func (n *Network) send(sc *sendScratch, f Flow, tr *Trace) (TraceSummary, error) {
	sum := TraceSummary{Flow: f.ID, Src: f.Src, Dst: f.Dst, Telemetry: f.Telemetry}
	if f.Src < 0 || f.Src >= n.Graph.N() || f.Dst < 0 || f.Dst >= n.Graph.N() {
		return sum, fmt.Errorf("dataplane: flow %d endpoints (%d, %d) out of range (graph has %d nodes)", f.ID, f.Src, f.Dst, n.Graph.N())
	}
	p := &sc.pkt
	*p = Packet{
		TTL:  f.TTL,
		Flow: f.ID,
		Src:  n.Assign.ID(f.Src),
		Dst:  n.Assign.ID(f.Dst),
	}
	if f.Telemetry {
		sc.tel = append(sc.tel[:0], n.fresh...)
		p.Telemetry = sc.tel
	}
	sc.dedup.Reset()
	// The destination is resolved to its node once per journey, and
	// again only if the parsed Dst changes (wire corruption, or the
	// OnHop tap rewriting it).
	dstID, dst := p.Dst, f.Dst
	cur := f.Src
	// tainted records that an earlier hop's wire corruption struck this
	// packet: any later parse or pipeline failure is then the fault
	// model's doing — an injected drop, not an emulator error.
	tainted := false
	for {
		// Serialise and re-parse: every hop sees real bytes. The
		// packet's slices alias wireB (or the seed buffers) at this
		// point, so wireA is free to receive the frame.
		wire, err := p.MarshalAppend(sc.wireA[:0])
		if err != nil {
			return sum, err
		}
		sc.wireA = wire
		if cm := n.corrupt; cm != nil && cm.strike(f.ID, uint64(sum.Hops), wire) {
			tainted = true
		}
		if err := p.Unmarshal(wire); err != nil {
			if tainted {
				sum.Final = DropCorrupt
				if tr != nil {
					tr.Final = DropCorrupt
				}
				return sum, nil
			}
			return sum, err
		}
		sw := n.switches[cur]
		if n.OnHop != nil {
			n.OnHop(cur, sw.ID, p)
		}
		if p.Dst != dstID {
			dstID, dst = p.Dst, n.Assign.Node(p.Dst)
		}
		dec, err := sw.process(p, sc.st, dst)
		if sc.tallies != nil {
			sc.tallies[cur].count(dec, err)
		} else {
			sw.count(dec, err)
		}
		if err != nil {
			if tainted {
				sum.Final = DropCorrupt
				if tr != nil {
					tr.Final = DropCorrupt
				}
				return sum, nil
			}
			return sum, err
		}
		sum.Hops++
		if tr != nil {
			tr.Hops = append(tr.Hops, TraceHop{Node: cur, Switch: sw.ID, Decision: dec})
		}
		if dec.LoopReport != nil {
			sum.Reports++
			if sum.Reports == 1 {
				sum.Reporter = dec.LoopReport.Reporter
				sum.ReportHop = sum.Hops
			}
			if tr != nil && tr.Report == nil {
				tr.Report = dec.LoopReport
			}
			ev := LoopEvent{
				Report:  *dec.LoopReport,
				Node:    sw.Node,
				Flow:    f.ID,
				Members: dec.Members,
			}
			n.Controller.DeliverFlow(ev, &sc.dedup, sum.Hops)
			if n.OnReport != nil {
				n.OnReport(ev, sum.Hops)
			}
		}
		switch dec.Disposition {
		case Deliver, DropTTL, DropNoRoute, DropLoop, DropLink:
			sum.Final = dec.Disposition
			if tr != nil {
				tr.Final = dec.Disposition
			}
			return sum, nil
		case RerouteLoop:
			sum.Rerouted = true
			if tr != nil {
				tr.Rerouted = true
			}
			fallthrough
		case Forward:
			egress := &sw.ports[dec.Egress]
			li := egress.link
			if sc.loads != nil {
				sc.loads[li]++
			} else {
				n.linkLoad[li].Add(1)
			}
			cur = int(egress.peer)
		default:
			return sum, fmt.Errorf("dataplane: unexpected disposition %v", dec.Disposition)
		}
		if sum.Hops > 100000 {
			return sum, fmt.Errorf("dataplane: runaway packet (missing TTL?)")
		}
		// Next hop parses from the buffer just written and marshals
		// into the other one.
		sc.wireA, sc.wireB = sc.wireB, sc.wireA
	}
}

// Unroller exposes the shared detector (e.g. for header inspection in
// tools).
func (n *Network) Unroller() *core.Unroller { return n.unroller }

// SetLoopPolicy applies a loop reaction policy to every switch.
func (n *Network) SetLoopPolicy(a LoopAction) {
	for _, sw := range n.switches {
		sw.LoopPolicy = a
	}
}

// drain folds a worker's private link loads and switch tallies into the
// shared counters and zeroes them for the worker's next batch. uint64
// addition commutes, so the merged totals are identical regardless of
// worker scheduling — the determinism the per-worker sharding must
// preserve.
func (n *Network) drain(sc *sendScratch) {
	for i, c := range sc.loads {
		if c != 0 {
			n.linkLoad[i].Add(c)
			sc.loads[i] = 0
		}
	}
	for node := range sc.tallies {
		n.switches[node].stats.add(&sc.tallies[node])
		sc.tallies[node] = tally{}
	}
}

// LinkLoad returns how many packet traversals the link {u, v} has
// carried since the last ResetLoad. The counters quantify the intro's
// motivation: packets trapped in loops multiply the load on every link
// the loop uses, degrading innocent traffic that shares them.
func (n *Network) LinkLoad(u, v int) uint64 {
	p, ok := n.port(u, v)
	if !ok {
		return 0
	}
	return n.linkLoad[n.switches[u].ports[p].link].Load()
}

// TotalPacketHops returns the network-wide traversal count — the
// bandwidth-cost currency for comparing loop reactions.
func (n *Network) TotalPacketHops() uint64 {
	var total uint64
	for i := range n.linkLoad {
		total += n.linkLoad[i].Load()
	}
	return total
}

// MaxLinkLoad returns the most loaded link and its traversal count.
// Equal-load ties break towards the smallest (u, v): links are scanned
// in ascending order and only a strictly greater load displaces the
// current maximum, so the result is deterministic (the repo-wide
// invariant the old map iteration violated).
func (n *Network) MaxLinkLoad() (u, v int, load uint64) {
	u, v = -1, -1
	for i := range n.linkLoad {
		if c := n.linkLoad[i].Load(); c > load {
			u, v, load = n.links[i][0], n.links[i][1], c
		}
	}
	return u, v, load
}

// ResetLoad clears the link counters. Like route mutation, it must not
// race with in-flight sends.
func (n *Network) ResetLoad() {
	for i := range n.linkLoad {
		n.linkLoad[i].Store(0)
	}
}
