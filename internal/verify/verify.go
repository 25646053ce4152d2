// Package verify is the control-plane half of the cross-plane oracle:
// a Boufkhad-style static loop verifier ("Efficient Loop Detection in
// Forwarding Networks") that decides, from the forwarding tables alone,
// exactly which (destination, start-switch) pairs loop at a given
// instant. The data plane *observes* loops by trapping packets in them;
// this package *proves* them by walking the functional graph
// u → nexthop(u, dst), which makes every in-band detection during churn
// independently confirmable — or refutable — without trusting the
// detector under test.
//
// The package has two layers:
//
//   - State is a dense, self-contained forwarding snapshot (next-hop
//     matrix plus link liveness) with an O(n)-per-destination
//     classifier, and it tracks which destinations changed so
//     Reclassify re-runs only those. It knows nothing about the
//     emulator, so the fuzzer can hammer it with arbitrary partial
//     tables.
//   - Mirror and Oracle (oracle.go) bind a State to a live
//     dataplane.Network: the mirror tracks the network's FIBs
//     incrementally through fault events, and the oracle reconciles the
//     static ground truth against Unroller's per-flow detections at
//     every quiesced churn epoch, producing the confusion matrices the
//     scenario golden files pin.
//
// verify is in the determinism-scoped package set (see
// internal/analysis): its output feeds golden files, so no map
// iteration, wall-clock reads, or unseeded randomness.
package verify

import "fmt"

// Outcome is the statically decided fate of a packet injected at a
// start node for a destination, assuming the forwarding state stays
// frozen — exactly the churn harness's quiesced-epoch contract.
type Outcome uint8

const (
	// OutcomeDeliver: the walk reaches the destination.
	OutcomeDeliver Outcome = iota
	// OutcomeLoop: the walk enters a cycle and never terminates.
	OutcomeLoop
	// OutcomeNoRoute: the walk reaches a node with no entry for the
	// destination.
	OutcomeNoRoute
	// OutcomeLinkDown: the walk reaches a node whose egress link for
	// the destination is physically down.
	OutcomeLinkDown
)

// String names the outcome for logs and test failures.
func (o Outcome) String() string {
	switch o {
	case OutcomeDeliver:
		return "deliver"
	case OutcomeLoop:
		return "loop"
	case OutcomeNoRoute:
		return "no-route"
	case OutcomeLinkDown:
		return "link-down"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// State is a dense forwarding snapshot over n nodes: for every
// (destination, node) pair the egress *node* (not port — the verifier
// reasons in topology space), plus per-directed-edge link liveness.
// The zero next-hop value is -1 (no route); links default to up.
//
// A State also tracks which destinations changed since the last
// Reclassify, so a caller that classifies it epoch after epoch pays
// ClassifyDst only for destinations whose walks can have changed.
type State struct {
	n    int
	next []int32 // next[dst*n+u] = next node, or -1
	down []bool  // down[u*n+v] = directed edge u→v is severed
	// dirty[dst]: dst's entries, or a link one of them crosses, changed
	// since the last Reclassify.
	dirty []bool
}

// NewState returns an empty state over n nodes: no routes, all links
// up.
func NewState(n int) *State {
	if n < 1 {
		panic(fmt.Sprintf("verify: state needs at least one node, got %d", n))
	}
	s := &State{
		n:     n,
		next:  make([]int32, n*n),
		down:  make([]bool, n*n),
		dirty: make([]bool, n),
	}
	for i := range s.next {
		s.next[i] = -1
	}
	return s
}

// N returns the node count.
func (s *State) N() int { return s.n }

// SetNext installs (or with v < 0 withdraws) the next hop at node u for
// destination dst, marking dst dirty when the entry changes.
// Out-of-range nodes panic: the mirror layer validates real events
// before they reach here, so a bad index is a caller bug.
func (s *State) SetNext(dst, u, v int) {
	s.check(dst, "dst")
	s.check(u, "node")
	if v >= s.n {
		panic(fmt.Sprintf("verify: next hop %d out of range (n=%d)", v, s.n))
	}
	if v < 0 {
		v = -1
	}
	if i := dst*s.n + u; s.next[i] != int32(v) {
		s.next[i] = int32(v)
		s.dirty[dst] = true
	}
}

// Next returns the next hop at node u for destination dst, -1 when
// withdrawn.
func (s *State) Next(dst, u int) int {
	s.check(dst, "dst")
	s.check(u, "node")
	return int(s.next[dst*s.n+u])
}

// ClearNode withdraws every route at node u — a switch restart wiping
// its FIB — marking each destination u had an entry for dirty.
func (s *State) ClearNode(u int) {
	s.check(u, "node")
	for dst := 0; dst < s.n; dst++ {
		if i := dst*s.n + u; s.next[i] >= 0 {
			s.next[i] = -1
			s.dirty[dst] = true
		}
	}
}

// SetLink sets the liveness of the undirected link {u, v}. When that
// flips it, every destination whose entry at u points at v, or at v
// points at u, is marked dirty: only walks crossing the link can change.
func (s *State) SetLink(u, v int, up bool) {
	s.check(u, "node")
	s.check(v, "node")
	n := s.n
	if s.down[u*n+v] == !up && s.down[v*n+u] == !up {
		return
	}
	s.down[u*n+v] = !up
	s.down[v*n+u] = !up
	for dst := 0; dst < n; dst++ {
		if s.next[dst*n+u] == int32(v) || s.next[dst*n+v] == int32(u) {
			s.dirty[dst] = true
		}
	}
}

// LinkUp reports whether the undirected link {u, v} is alive.
func (s *State) LinkUp(u, v int) bool {
	s.check(u, "node")
	s.check(v, "node")
	return !s.down[u*s.n+v]
}

// Clone returns an independent copy, dirty marks included.
func (s *State) Clone() *State {
	c := &State{
		n:     s.n,
		next:  append([]int32(nil), s.next...),
		down:  append([]bool(nil), s.down...),
		dirty: append([]bool(nil), s.dirty...),
	}
	return c
}

// Equal reports whether two states encode identical forwarding
// behaviour (same size, routes, and link liveness); dirty marks are
// bookkeeping, not behaviour, and are ignored.
func (s *State) Equal(t *State) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.next {
		if s.next[i] != t.next[i] {
			return false
		}
	}
	for i := range s.down {
		if s.down[i] != t.down[i] {
			return false
		}
	}
	return true
}

func (s *State) check(i int, what string) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("verify: %s %d out of range (n=%d)", what, i, s.n))
	}
}

// DstReport is the complete static verdict for one destination: the
// outcome of every start node, and — for looping starts — the entry
// distance B (hops before the first cycle node), the cycle length L,
// and which cycle is reached. This is precisely the (B, L) pair
// Theorem 1's detection bound is stated in, so the oracle can check the
// bound per flow without re-walking anything. A report is immutable once
// built: Reclassify shares an unchanged destination's report between
// successive classifications by pointer.
type DstReport struct {
	// Dst is the destination node.
	Dst int
	// Outcome[u] is the fate of a packet injected at node u.
	Outcome []Outcome
	// Entry[u] is the number of hops before the walk from u reaches its
	// first on-cycle node (0 for cycle members); valid only when
	// Outcome[u] == OutcomeLoop.
	Entry []int32
	// LoopLen[u] is the length of the cycle the walk from u reaches;
	// valid only when Outcome[u] == OutcomeLoop.
	LoopLen []int32
	// CycleID[u] indexes Cycles for looping starts, -1 otherwise.
	CycleID []int32
	// Cycles holds each distinct cycle once, in forwarding order,
	// rotated so the smallest node comes first. Discovery order (and
	// therefore indices) is deterministic: starts are scanned
	// ascending.
	Cycles [][]int

	// loops counts the looping starts, so LoopingPairs over reports
	// reused across epochs does not rescan their outcomes.
	loops int
}

// LoopingStarts returns the ascending list of start nodes that loop.
func (r *DstReport) LoopingStarts() []int {
	var out []int
	for u, oc := range r.Outcome {
		if oc == OutcomeLoop {
			out = append(out, u)
		}
	}
	return out
}

// ClassifyDst walks the functional graph u → Next(u, dst) and resolves
// every start node's outcome in O(n): each node is visited once, via
// the standard white/grey/black colouring (a grey revisit closes a
// cycle; a black node's verdict is reused by later walks). The
// algorithm terminates on any table, including adversarial ones — the
// fuzz target's liveness property.
func (s *State) ClassifyDst(dst int) *DstReport {
	s.check(dst, "dst")
	n := s.n
	rep := &DstReport{
		Dst:     dst,
		Outcome: make([]Outcome, n),
		Entry:   make([]int32, n),
		LoopLen: make([]int32, n),
		CycleID: make([]int32, n),
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]uint8, n)
	pos := make([]int32, n)
	for i := range rep.CycleID {
		rep.CycleID[i] = -1
	}
	// The destination itself delivers trivially and acts as the walk's
	// primary sink.
	rep.Outcome[dst] = OutcomeDeliver
	color[dst] = black

	walk := make([]int, 0, n)
	for start := 0; start < n; start++ {
		if color[start] != white {
			continue
		}
		walk = walk[:0]
		u := start
		// tail describes what the walk ran into: a terminal outcome, a
		// previously resolved node, or a fresh cycle.
		var (
			tailOutcome Outcome
			tailEntry   int32 // extra entry hops contributed by the tail
			tailLoopLen int32
			tailCycle   int32 = -1
			cycleStart        = -1 // index into walk where a fresh cycle begins
		)
		for {
			if color[u] == black {
				tailOutcome = rep.Outcome[u]
				tailEntry = rep.Entry[u]
				tailLoopLen = rep.LoopLen[u]
				tailCycle = rep.CycleID[u]
				break
			}
			if color[u] == grey {
				// Fresh cycle: walk[pos[u]:] in forwarding order.
				cycleStart = int(pos[u])
				tailOutcome = OutcomeLoop
				break
			}
			color[u] = grey
			pos[u] = int32(len(walk))
			walk = append(walk, u)
			v := int(s.next[dst*n+u])
			if v < 0 {
				tailOutcome = OutcomeNoRoute
				cycleStart = len(walk) // resolve the whole walk as prefix
				break
			}
			if s.down[u*n+v] {
				tailOutcome = OutcomeLinkDown
				cycleStart = len(walk)
				break
			}
			u = v
		}
		if cycleStart >= 0 && tailOutcome == OutcomeLoop {
			// Register the cycle and resolve its members.
			cyc := append([]int(nil), walk[cycleStart:]...)
			id := int32(len(rep.Cycles))
			rep.Cycles = append(rep.Cycles, canonicalCycle(cyc))
			l := int32(len(cyc))
			for _, w := range cyc {
				rep.Outcome[w] = OutcomeLoop
				rep.Entry[w] = 0
				rep.LoopLen[w] = l
				rep.CycleID[w] = id
				color[w] = black
			}
			tailEntry = 0
			tailLoopLen = l
			tailCycle = id
			walk = walk[:cycleStart]
		}
		// Resolve the remaining prefix back to front: each node is one
		// hop further from the tail than its successor.
		dist := tailEntry
		for i := len(walk) - 1; i >= 0; i-- {
			w := walk[i]
			rep.Outcome[w] = tailOutcome
			if tailOutcome == OutcomeLoop {
				dist++
				rep.Entry[w] = dist
				rep.LoopLen[w] = tailLoopLen
				rep.CycleID[w] = tailCycle
			}
			color[w] = black
		}
	}
	for _, oc := range rep.Outcome {
		if oc == OutcomeLoop {
			rep.loops++
		}
	}
	return rep
}

// Classify runs ClassifyDst for every destination, ascending — the
// "exact set of looping (destination, start) pairs at this instant".
// It leaves the dirty marks alone.
func (s *State) Classify() []*DstReport {
	out := make([]*DstReport, s.n)
	for dst := 0; dst < s.n; dst++ {
		out[dst] = s.ClassifyDst(dst)
	}
	return out
}

// Reclassify is Classify paid per changed destination: prev must be the
// result of the previous Reclassify on s (nil classifies every
// destination). Destinations marked dirty since then are classified
// afresh; every other report is prev's, shared by pointer. The dirty
// marks are cleared. The result deep-equals Classify().
func (s *State) Reclassify(prev []*DstReport) []*DstReport {
	out := make([]*DstReport, s.n)
	for dst := range out {
		if prev == nil || s.dirty[dst] {
			out[dst] = s.ClassifyDst(dst)
		} else {
			out[dst] = prev[dst]
		}
		s.dirty[dst] = false
	}
	return out
}

// LoopingPairs counts looping (destination, start) pairs across a full
// classification.
func LoopingPairs(reports []*DstReport) int {
	total := 0
	for _, r := range reports {
		total += r.loops
	}
	return total
}

// replay feeds visit the nodes a packet injected at src for dst passes
// through under this frozen state, hop by hop, as the data plane's hop
// loop realises them, and returns the 1-based hop at which visit
// returned true — 0 if it never did within budget hops. The walk ends
// unvisited at the destination (the delivering switch forwards nothing
// and so runs no detector) and ends after visiting a node with no
// route or a dead egress, where the packet is dropped. A looping walk
// circles until the budget runs out, so it needs no visited set.
func (s *State) replay(dst, src, budget int, visit func(node int) bool) int {
	s.check(dst, "dst")
	s.check(src, "node")
	n := s.n
	next := s.next[dst*n : (dst+1)*n]
	u := src
	for hop := 1; hop <= budget && u != dst; hop++ {
		if visit(u) {
			return hop
		}
		v := int(next[u])
		if v < 0 || s.down[u*n+v] {
			break
		}
		u = v
	}
	return 0
}

// canonicalCycle rotates the cycle so its smallest node comes first,
// preserving forwarding order — the stable key two discoveries of the
// same cycle agree on.
func canonicalCycle(cyc []int) []int {
	min := 0
	for i, v := range cyc {
		if v < cyc[min] {
			min = i
		}
	}
	out := make([]int, 0, len(cyc))
	out = append(out, cyc[min:]...)
	out = append(out, cyc[:min]...)
	return out
}
