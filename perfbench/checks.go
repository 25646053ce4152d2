package main

import (
	"fmt"

	"github.com/unroller/unroller/internal/collectorsvc"
	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/verify"
)

// totals are the seed-determined outcome of one unit of input (a batch of
// flows or a churn cycle). Every run of a unit must reproduce them
// exactly, whatever the run length or the host.
type totals struct {
	flows, hops, reports uint64
	disp                 [dataplane.NumDispositions]uint64
	matrix               verify.Matrix // churn only: the oracle's confusion matrix
}

func (t *totals) add(s *dataplane.TraceSummary) {
	t.flows++
	t.hops += uint64(s.Hops)
	t.reports += uint64(s.Reports)
	t.disp[s.Final]++
}

// repeatCheck holds the first result of every unit and compares each
// later run of the unit against it.
type repeatCheck struct {
	ref []*totals
}

func newRepeatCheck(units int) repeatCheck { return repeatCheck{ref: make([]*totals, units)} }

func (r *repeatCheck) check(unit int, t totals) error {
	if r.ref[unit] == nil {
		r.ref[unit] = &t
		return nil
	}
	if *r.ref[unit] != t {
		return fmt.Errorf("unit %d: totals changed between runs of the same input: first %+v, now %+v", unit, *r.ref[unit], t)
	}
	return nil
}

// pass sums the first results over every unit: one pass over the inputs.
func (r *repeatCheck) pass() totals {
	var p totals
	for _, t := range r.ref {
		if t == nil {
			continue
		}
		p.flows += t.flows
		p.hops += t.hops
		p.reports += t.reports
		for d := range p.disp {
			p.disp[d] += t.disp[d]
		}
		m := &p.matrix
		m.Flows += t.matrix.Flows
		m.TruthPairs += t.matrix.TruthPairs
		m.Confirmed += t.matrix.Confirmed
		m.DetectHops += t.matrix.DetectHops
		m.Clean += t.matrix.Clean
		m.BaseConfirmed += t.matrix.BaseConfirmed
		m.BaseMissed += t.matrix.BaseMissed
		m.BaseDetectHops += t.matrix.BaseDetectHops
	}
	return p
}

// summary renders one pass's totals; runs of one seed print the same line.
func (r *repeatCheck) summary() string {
	p := r.pass()
	s := fmt.Sprintf("flows=%d hops=%d reports=%d", p.flows, p.hops, p.reports)
	for d := 0; d < dataplane.NumDispositions; d++ {
		if p.disp[d] > 0 {
			s += fmt.Sprintf(" %s=%d", dataplane.Disposition(d), p.disp[d])
		}
	}
	if m := p.matrix; m.Flows > 0 {
		s += fmt.Sprintf(" truth_pairs=%d confirmed=%d detect_hops=%d clean=%d aesop_confirmed=%d aesop_missed=%d aesop_detect_hops=%d",
			m.TruthPairs, m.Confirmed, m.DetectHops, m.Clean, m.BaseConfirmed, m.BaseMissed, m.BaseDetectHops)
	}
	return s
}

// oracleVerdict is what the churn check needs from a finalized oracle.
type oracleVerdict struct {
	unexplained bool
	divergences []string
	violations  []string
}

func verdictOf(o *verify.Oracle) oracleVerdict {
	return oracleVerdict{unexplained: o.Unexplained(), divergences: o.Divergences(), violations: o.Violations()}
}

// checkOracle fails a churn cycle whose static truth and detections
// disagree in any way the fault model cannot explain.
func checkOracle(v oracleVerdict) error {
	switch {
	case len(v.violations) > 0:
		return fmt.Errorf("%d oracle violations, first: %s", len(v.violations), v.violations[0])
	case len(v.divergences) > 0:
		return fmt.Errorf("%d mirror divergences, first: %s", len(v.divergences), v.divergences[0])
	case v.unexplained:
		return fmt.Errorf("oracle reports unexplained findings")
	}
	return nil
}

// checkClient enforces the client's accounting identity once it has
// drained: every report handed over was acked, none dropped.
func checkClient(st collectorsvc.ClientStats) error {
	if st.Enqueued != st.Acked+st.Dropped {
		return fmt.Errorf("client accounting broken: enqueued %d != acked %d + dropped %d", st.Enqueued, st.Acked, st.Dropped)
	}
	if st.Dropped != 0 {
		return fmt.Errorf("client dropped %d of %d reports", st.Dropped, st.Enqueued)
	}
	return nil
}

// checkRecovery requires a restart to replay exactly what preparation
// wrote to the journal.
func checkRecovery(recovered, written uint64) error {
	if recovered != written {
		return fmt.Errorf("recovery replayed %d journal records, preparation wrote %d", recovered, written)
	}
	return nil
}

// checkCoverage fails a traced pass whose layer spans account for less of
// its timed region than the stated margin.
func checkCoverage(got, margin float64) error {
	if !(got >= margin) {
		return fmt.Errorf("layer spans cover %.4f of the traced region, below the margin %.2f", got, margin)
	}
	return nil
}
