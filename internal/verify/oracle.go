package verify

import (
	"fmt"
	"io"

	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
)

// This file binds the static verifier to a live churn run. Two pieces:
//
//   - Mirror tracks a dataplane.Network's forwarding state incrementally
//     through the same FaultEvents the network applies. Each event costs
//     O(1) per route update and O(n) per link flip or restart, and marks
//     the destinations whose walks it can change dirty, so an epoch's
//     ground truth costs one O(n) ClassifyDst per dirty destination
//     rather than a classification of all n. Because an oracle that
//     silently drifts is worse than none, the oracle still cross-checks
//     the mirror against a full from-scratch O(n²) snapshot of the
//     network at every epoch.
//   - Oracle implements dataplane.ChurnObserver: at each quiesced epoch
//     boundary it reclassifies the mirrored state (the exact looping
//     (destination, start) pairs), reusing the previous epoch's report
//     for every clean destination, then reconciles each flow's
//     TraceSummary against that truth into a per-epoch confusion
//     matrix, replays a baseline detector over the same static walks,
//     and checks every confirmed detection against Theorem 1's bound.
//
// Epoch boundaries are the only sound reconciliation points: inside an
// epoch workers race freely, but every shared-state mutation is fenced
// to the boundaries, so the FIBs a packet saw are exactly the FIBs the
// mirror holds — transient loops are transient *across* epochs, never
// within one.

// Mirror is an incrementally maintained static view of a network's
// forwarding state.
type Mirror struct {
	net   *dataplane.Network
	state *State
}

// SnapshotState builds a State from the network's live FIBs and link
// states — the from-scratch reference the incremental mirror must match.
func SnapshotState(net *dataplane.Network) *State {
	s := NewState(net.Graph.N())
	snapshotInto(s, net)
	return s
}

// snapshotInto overwrites every route and every link entry of s, a
// State over the network's nodes, with the network's live state. Only
// entries between neighbours are written: the network has no other
// links, so the rest keep NewState's "up". Dirty marks are left alone.
func snapshotInto(s *State, net *dataplane.Network) {
	n := s.n
	for u := 0; u < n; u++ {
		sw := net.Switch(u)
		for d := 0; d < n; d++ {
			s.next[d*n+u] = int32(sw.NextNode(d))
		}
		for p, v := range net.Graph.Neighbors(u) {
			s.down[u*n+v] = !sw.PortUp(dataplane.PortID(p))
		}
	}
}

// NewMirror snapshots the network's current state as the mirror's
// starting point. Build it after scenario setup (route installation,
// loop injection) and before the churn run.
func NewMirror(net *dataplane.Network) *Mirror {
	return &Mirror{net: net, state: SnapshotState(net)}
}

// State exposes the mirrored forwarding state.
func (m *Mirror) State() *State { return m.state }

// Apply folds one fault event into the mirror. Route batches are applied
// strictly in order, exactly as Network.ApplyFault does: a batch may
// Clear a destination's route and re-install it later in the same batch
// (routing.Delta emits such sequences during reconvergence), and any
// coalescing — deduplicating by (node, dst), or processing Clears as a
// separate pass — would leave the mirror stale where the network ends up
// routed. The per-epoch snapshot cross-check in the Oracle pins this.
func (m *Mirror) Apply(ev dataplane.FaultEvent) error {
	switch ev.Kind {
	case dataplane.FaultLinkDown:
		m.state.SetLink(ev.U, ev.V, false)
	case dataplane.FaultLinkUp:
		m.state.SetLink(ev.U, ev.V, true)
	case dataplane.FaultRoutes:
		for _, ru := range ev.Routes {
			d := m.net.Assign.Node(ru.Dst)
			if d < 0 {
				if ru.Clear {
					// The network has no entry to withdraw either: a
					// no-op there, so a no-op here.
					continue
				}
				return fmt.Errorf("verify: route update for unknown destination %v", ru.Dst)
			}
			if ru.Clear {
				m.state.SetNext(d, ru.Node, -1)
				continue
			}
			m.state.SetNext(d, ru.Node, m.net.Switch(ru.Node).Peer(ru.Port))
		}
	case dataplane.FaultRestart:
		m.state.ClearNode(ev.Node)
	case dataplane.FaultCorruption, dataplane.FaultControllerReset:
		// No forwarding-state effect; corruption taint is tracked by the
		// Oracle, controller state is out of scope for the verifier.
	default:
		return fmt.Errorf("verify: unknown fault kind %d", ev.Kind)
	}
	return nil
}

// Matrix is one epoch's confusion matrix: every flow the epoch injected,
// reconciled against static truth. "Tainted" columns hold mismatches in
// epochs where the corruption model was live — the fault model rewrites
// packets on the wire there, so the static view legitimately diverges
// from what individual packets experienced; anything outside those
// columns is unexplained and gates CI.
type Matrix struct {
	Epoch int
	// TruthPairs counts looping (destination, start) pairs in the full
	// static classification — all destinations, whether or not traffic
	// targeted them this epoch.
	TruthPairs int
	// Flows is the number of injected flows reconciled.
	Flows int
	// Confirmed: truth says the flow's (dst, src) loops and the detector
	// reported. FalsePositive: a report with no static loop and no
	// corruption to explain it. FPTainted: a report with no static loop
	// in a corruption-live epoch.
	Confirmed     int
	FalsePositive int
	FPTainted     int
	// Missed* split the loops truth promised but the detector never
	// reported: MissedBlind flows carried no telemetry (the paper's TTL
	// counterfactual — a miss by construction); MissedTainted ones ran
	// under live corruption; the remainder are classified by loop
	// lifetime — MissedTransient pairs heal by the next epoch,
	// MissedPersistent ones still loop there (or the run ends), the
	// failures a detector cannot excuse.
	MissedTransient  int
	MissedPersistent int
	MissedTainted    int
	MissedBlind      int
	// Clean: no loop in truth, no report from the detector.
	Clean int
	// Baseline replay over the same flows (zero-valued when no baseline
	// detector is attached): BaseDetectHops accumulates detection hops
	// over BaseConfirmed flows.
	BaseConfirmed  int
	BaseMissed     int
	BaseFP         int
	BaseBlind      int
	BaseDetectHops int
	// DetectHops accumulates the live detector's report hops over
	// Confirmed flows, for the §5-style mean-detection-time comparison.
	DetectHops int
}

// add accumulates o into m (epoch fields excluded).
func (m *Matrix) add(o Matrix) {
	m.TruthPairs += o.TruthPairs
	m.Flows += o.Flows
	m.Confirmed += o.Confirmed
	m.FalsePositive += o.FalsePositive
	m.FPTainted += o.FPTainted
	m.MissedTransient += o.MissedTransient
	m.MissedPersistent += o.MissedPersistent
	m.MissedTainted += o.MissedTainted
	m.MissedBlind += o.MissedBlind
	m.Clean += o.Clean
	m.BaseConfirmed += o.BaseConfirmed
	m.BaseMissed += o.BaseMissed
	m.BaseFP += o.BaseFP
	m.BaseBlind += o.BaseBlind
	m.BaseDetectHops += o.BaseDetectHops
	m.DetectHops += o.DetectHops
}

// flowRecord is one reconciled flow, kept until Finalize because miss
// classification needs the *next* epoch's truth.
type flowRecord struct {
	flow      uint32
	src, dst  int
	telemetry bool
	final     dataplane.Disposition
	reports   int
	reportHop int
	loops     bool
	entry     int
	loopLen   int
	baseRan   bool
	baseHop   int // 0 = not detected within budget
}

// epochState is the oracle's record of one epoch.
type epochState struct {
	epoch int
	taint bool
	truth []*DstReport
	pairs int
	flows []flowRecord
}

// Oracle reconciles a churn run against static ground truth. Create it
// with NewOracle after scenario setup, pass it to
// dataplane.RunChurnObserved, then call Finalize once the run completes.
// All of its output is a pure function of the run's inputs — it holds no
// clocks and iterates no maps — so it is worker-count-invariant and safe
// to render into golden files.
type Oracle struct {
	net      *dataplane.Network
	mirror   *Mirror
	seed     uint64
	base     int
	baseline detect.Detector

	taint       bool
	epochs      []*epochState
	divergences []string
	// snap is the scratch State each epoch's from-scratch snapshot is
	// rebuilt into.
	snap *State

	finalized  bool
	matrices   []Matrix
	total      Matrix
	violations []string
}

// NewOracle builds an oracle over net. seed labels violation triples (it
// does not influence any computation); baseline, when non-nil, is
// replayed over every telemetry-carrying flow's static walk.
func NewOracle(net *dataplane.Network, seed uint64, baseline detect.Detector) *Oracle {
	return &Oracle{
		net:      net,
		mirror:   NewMirror(net),
		snap:     NewState(net.Graph.N()),
		seed:     seed,
		base:     net.Unroller().Config().Base,
		baseline: baseline,
	}
}

// EpochStart implements dataplane.ChurnObserver: fold the epoch's faults
// into the mirror, cross-check it against a from-scratch snapshot, and
// classify the static truth the epoch's traffic will run under —
// afresh for the destinations the faults touched, shared with the
// previous epoch for the rest.
func (o *Oracle) EpochStart(epoch int, events []dataplane.FaultEvent) error {
	for _, ev := range events {
		if err := o.mirror.Apply(ev); err != nil {
			return err
		}
		if ev.Kind == dataplane.FaultCorruption {
			o.taint = ev.Prob > 0
		}
	}
	if snapshotInto(o.snap, o.net); !o.mirror.State().Equal(o.snap) {
		o.divergences = append(o.divergences, fmt.Sprintf(
			"epoch %d: incremental mirror diverged from from-scratch snapshot after %d events", epoch, len(events)))
	}
	var prev []*DstReport
	if len(o.epochs) > 0 {
		prev = o.epochs[len(o.epochs)-1].truth
	}
	truth := o.mirror.State().Reclassify(prev)
	o.epochs = append(o.epochs, &epochState{
		epoch: epoch,
		taint: o.taint,
		truth: truth,
		pairs: LoopingPairs(truth),
	})
	return nil
}

// EpochEnd implements dataplane.ChurnObserver: reconcile every flow's
// summary against this epoch's truth and replay the baseline over its
// static walk.
func (o *Oracle) EpochEnd(epoch int, sums []dataplane.TraceSummary) error {
	if len(o.epochs) == 0 || o.epochs[len(o.epochs)-1].epoch != epoch {
		return fmt.Errorf("verify: EpochEnd(%d) without matching EpochStart", epoch)
	}
	es := o.epochs[len(o.epochs)-1]
	for i := range sums {
		s := &sums[i]
		truth := es.truth[s.Dst]
		rec := flowRecord{
			flow:      s.Flow,
			src:       s.Src,
			dst:       s.Dst,
			telemetry: s.Telemetry,
			final:     s.Final,
			reports:   s.Reports,
			reportHop: s.ReportHop,
			loops:     truth.Outcome[s.Src] == OutcomeLoop,
		}
		if rec.loops {
			rec.entry = int(truth.Entry[s.Src])
			rec.loopLen = int(truth.LoopLen[s.Src])
		}
		if o.baseline != nil && s.Telemetry {
			rec.baseRan = true
			// A fresh detector state over the static walk, within the
			// TTL budget edge injection grants.
			st := o.baseline.NewState()
			rec.baseHop = o.mirror.State().replay(s.Dst, s.Src, dataplane.InitialTTL, func(node int) bool {
				return st.Visit(o.net.Assign.ID(node)) == detect.Loop
			})
		}
		es.flows = append(es.flows, rec)
	}
	return nil
}

// loopsAt reports whether the (dst, src) pair loops in the epoch at
// index i of the oracle's record.
func (o *Oracle) loopsAt(i, dst, src int) bool {
	return o.epochs[i].truth[dst].Outcome[src] == OutcomeLoop
}

// Finalize classifies every miss against the following epoch's truth and
// builds the per-epoch and total confusion matrices. Call it exactly
// once, after the churn run returns.
func (o *Oracle) Finalize() {
	if o.finalized {
		return
	}
	o.finalized = true
	for i, es := range o.epochs {
		m := Matrix{Epoch: es.epoch, TruthPairs: es.pairs, Flows: len(es.flows)}
		for _, rec := range es.flows {
			o.scoreFlow(&m, es, i, rec)
		}
		o.matrices = append(o.matrices, m)
		o.total.add(m)
	}
	o.total.Epoch = -1
}

// scoreFlow places one flow into its epoch's matrix and records any
// Theorem-1 violations.
func (o *Oracle) scoreFlow(m *Matrix, es *epochState, i int, rec flowRecord) {
	tainted := es.taint || rec.final == dataplane.DropCorrupt
	switch {
	case rec.loops && rec.reports > 0:
		m.Confirmed++
		m.DetectHops += rec.reportHop
		if !tainted {
			if bound := core.WorstCaseBound(o.base, rec.entry, rec.loopLen); rec.reportHop > bound {
				o.violations = append(o.violations, fmt.Sprintf(
					"seed=%d epoch=%d flow=%d: detected at hop %d exceeds Theorem 1 bound %d (B=%d L=%d b=%d)",
					o.seed, es.epoch, rec.flow, rec.reportHop, bound, rec.entry, rec.loopLen, o.base))
			}
		}
	case rec.loops:
		switch {
		case !rec.telemetry:
			m.MissedBlind++
		case tainted:
			m.MissedTainted++
		default:
			// Within an epoch the forwarding state is frozen, so the
			// loop's lifetime is at least the full epoch — never shorter
			// than the detection window a 255-TTL packet gets. A
			// non-blind, non-tainted miss is therefore inexcusable
			// whether the loop later heals or not; the transient split
			// only records how long the pair survived.
			if i+1 < len(o.epochs) && !o.loopsAt(i+1, rec.dst, rec.src) {
				m.MissedTransient++
			} else {
				m.MissedPersistent++
			}
			o.violations = append(o.violations, fmt.Sprintf(
				"seed=%d epoch=%d flow=%d: static loop (B=%d L=%d) undetected despite telemetry in a corruption-free epoch",
				o.seed, es.epoch, rec.flow, rec.entry, rec.loopLen))
		}
	case rec.reports > 0:
		if tainted {
			m.FPTainted++
		} else {
			m.FalsePositive++
		}
	default:
		m.Clean++
	}
	if rec.baseRan {
		switch {
		case rec.loops && rec.baseHop > 0:
			m.BaseConfirmed++
			m.BaseDetectHops += rec.baseHop
		case rec.loops:
			m.BaseMissed++
		case rec.baseHop > 0:
			m.BaseFP++
		}
	} else if o.baseline != nil && rec.loops {
		m.BaseBlind++
	}
}

// Matrices returns the per-epoch confusion matrices (Finalize must have
// run).
func (o *Oracle) Matrices() []Matrix { return o.matrices }

// Total returns the whole-run confusion matrix (Epoch -1).
func (o *Oracle) Total() Matrix { return o.total }

// Violations returns the Theorem-1 and missed-loop violations as
// (seed, epoch, flow)-labelled lines; empty on a sound run.
func (o *Oracle) Violations() []string { return o.violations }

// Divergences returns the epochs where the incremental mirror disagreed
// with a from-scratch snapshot; empty means incremental ≡ rebuild held
// after every delta in the churn event log.
func (o *Oracle) Divergences() []string { return o.divergences }

// BaselineName names the attached baseline detector, "" when none.
func (o *Oracle) BaselineName() string {
	if o.baseline == nil {
		return ""
	}
	return o.baseline.Name()
}

// Unexplained reports whether the run contains any finding the fault
// model cannot account for — the CI gate's predicate.
func (o *Oracle) Unexplained() bool {
	return o.total.FalsePositive > 0 || o.total.MissedTransient > 0 ||
		o.total.MissedPersistent > 0 || len(o.violations) > 0 || len(o.divergences) > 0
}

// avgHops formats an accumulated hop count over n detections, "-" when
// none.
func avgHops(total, n int) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(total)/float64(n))
}

// Render writes the oracle's reconciliation as stable text for golden
// files: one row per epoch, a totals row, then baseline rows when a
// baseline is attached, then violation and divergence counts (with the
// offending lines, so any drift is visible in the diff).
func (o *Oracle) Render(w io.Writer) {
	fmt.Fprintf(w, "\noracle (static truth vs unroller, base=%d):\n", o.base)
	fmt.Fprintf(w, "  %-5s %5s %5s %9s %3s %8s %10s %9s %10s %5s %5s %8s\n",
		"epoch", "pairs", "flows", "confirmed", "fp", "fp-taint", "miss-trans", "miss-pers", "miss-taint", "blind", "clean", "avg-hops")
	rows := append([]Matrix(nil), o.matrices...)
	rows = append(rows, o.total)
	for _, m := range rows {
		label := fmt.Sprintf("%d", m.Epoch)
		if m.Epoch < 0 {
			label = "total"
		}
		fmt.Fprintf(w, "  %-5s %5d %5d %9d %3d %8d %10d %9d %10d %5d %5d %8s\n",
			label, m.TruthPairs, m.Flows, m.Confirmed, m.FalsePositive, m.FPTainted,
			m.MissedTransient, m.MissedPersistent, m.MissedTainted, m.MissedBlind, m.Clean,
			avgHops(m.DetectHops, m.Confirmed))
	}
	if o.baseline != nil {
		fmt.Fprintf(w, "baseline %s (static replay, ttl budget %d):\n", o.baseline.Name(), dataplane.InitialTTL)
		fmt.Fprintf(w, "  %-5s %9s %6s %3s %5s %8s\n", "epoch", "confirmed", "missed", "fp", "blind", "avg-hops")
		for _, m := range rows {
			label := fmt.Sprintf("%d", m.Epoch)
			if m.Epoch < 0 {
				label = "total"
			}
			fmt.Fprintf(w, "  %-5s %9d %6d %3d %5d %8s\n",
				label, m.BaseConfirmed, m.BaseMissed, m.BaseFP, m.BaseBlind,
				avgHops(m.BaseDetectHops, m.BaseConfirmed))
		}
	}
	fmt.Fprintf(w, "bound violations: %d\n", len(o.violations))
	for _, v := range o.violations {
		fmt.Fprintf(w, "  %s\n", v)
	}
	fmt.Fprintf(w, "mirror divergences: %d\n", len(o.divergences))
	for _, d := range o.divergences {
		fmt.Fprintf(w, "  %s\n", d)
	}
}
