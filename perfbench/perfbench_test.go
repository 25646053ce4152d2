package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/unroller/unroller/internal/collectorsvc"
	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/verify"
	"github.com/unroller/unroller/internal/xhash"
)

func TestSelfTime(t *testing.T) {
	tr := newTracer(100)
	// root [0,100) has children [10,30), [20,50) (overlapping) and
	// [90,120) (running past the root's end); [20,50) has children
	// [25,35) and a benchmark span [40,45).
	root := tr.add("root", noSpan, 0, 100, 1)
	tr.add("a", root, 10, 30, 1)
	b := tr.add("b", root, 20, 50, 2)
	tr.add("c", b, 25, 35, 1)
	tr.add("d", root, 90, 120, 1)
	tr.add("bench.e", b, 40, 45, 1)
	a := tr.selfTimes()
	// Children of root cover [10,50) and [90,100): 50 of 100.
	if got := a["root"].self; got != 50 {
		t.Errorf("root self = %d, want 50", got)
	}
	if got := a["b"].self; got != 15 {
		t.Errorf("b self = %d, want 30-10-5 = 15", got)
	}
	if got, want := a["b"].perOp(), 7.5; got != want {
		t.Errorf("b per op = %v, want %v", got, want)
	}
	if got := a["a"].self + a["c"].self + a["d"].self; got != 20+10+30 {
		t.Errorf("leaf self times = %d, want 60", got)
	}
	// Layer spans cover the root minus its own self time (50) and the
	// benchmark span bench.e (5).
	if got, wait := tr.coverage(root); math.Abs(got-0.45) > 1e-12 || wait != 0 {
		t.Errorf("coverage = %v, wait %v, want 0.45 and 0", got, wait)
	}
}

func TestCoverageLeavesOutWaits(t *testing.T) {
	tr := newTracer(100)
	// root [0,100): a wait [0,40), a layer call [40,70), benchmark work
	// [70,80) and 20 of root's own time.
	root := tr.add("root", noSpan, 0, 100, 1)
	tr.add("bench.wait.acks", root, 0, 40, 1)
	tr.add("layer", root, 40, 70, 1)
	tr.add("bench.check", root, 70, 80, 1)
	got, wait := tr.coverage(root)
	if math.Abs(got-0.5) > 1e-12 || math.Abs(wait-0.4) > 1e-12 {
		t.Errorf("coverage = %v, wait %v, want 30/60 = 0.5 and 0.4", got, wait)
	}
}

func TestTracerLimitAndNil(t *testing.T) {
	var nilTr *tracer
	if id := nilTr.begin("x", noSpan); id != noSpan {
		t.Fatalf("nil tracer handed out span %d", id)
	}
	nilTr.end(noSpan, 1)
	tr := newTracer(1)
	s := tr.begin("x", noSpan)
	if tr.begin("y", s) != noSpan || tr.room(1) {
		t.Fatal("tracer recorded past its limit")
	}
	tr.end(s, 3)
	if a := tr.selfTimes()["x"]; a.count != 1 || a.ops != 3 {
		t.Fatalf("x = %+v", a)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	p50, tl, ok := tailOf(xs)
	if !ok || p50 != 500.5 || tl.value != 990 || tl.pct != 99 || tl.n != 1000 {
		t.Fatalf("p50=%v tail=%+v ok=%v", p50, tl, ok)
	}
	if _, _, ok := tailOf(make([]float64, tailBeyond)); ok {
		t.Fatal("a tail with fewer than 10 samples beyond it")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFile keeps BENCHMARK.json within its contract and in step
// with the workloads the program knows.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !metricName.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	for _, m := range b.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		name(m.Name)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
}

func TestRepeatCheckTrips(t *testing.T) {
	r := newRepeatCheck(2)
	first := totals{flows: 4, hops: 17}
	first.disp[dataplane.Deliver] = 4
	if err := r.check(0, first); err != nil {
		t.Fatal(err)
	}
	if err := r.check(0, first); err != nil {
		t.Fatalf("identical rerun rejected: %v", err)
	}
	corrupt := first
	corrupt.disp[dataplane.Deliver], corrupt.disp[dataplane.DropLoop] = 3, 1
	if r.check(0, corrupt) == nil {
		t.Error("changed dispositions passed")
	}
	corrupt = first
	corrupt.matrix.Confirmed = 1
	if r.check(0, corrupt) == nil {
		t.Error("changed confusion matrix passed")
	}
	if got := r.pass(); got.flows != 4 || got.hops != 17 {
		t.Errorf("pass = %+v", got)
	}
}

func TestFwdAccountTrips(t *testing.T) {
	f := &fwdBench{rep: newRepeatCheck(2), firstHops: make([][]int32, 2)}
	sums := []dataplane.TraceSummary{{Final: dataplane.Deliver, Hops: 3}, {Final: dataplane.Deliver, Hops: 5}}
	var o outcome
	f.account(0, sums, &o)
	f.account(0, sums, &o)
	if o.failed != 0 || len(o.problems) != 0 {
		t.Fatalf("clean batch: %+v", o)
	}
	// A flow that ends in a drop on the first run of its batch, with a
	// plausible hop count: only the Deliver check can catch it.
	bad := []dataplane.TraceSummary{{Final: dataplane.Deliver, Hops: 3}, {Final: dataplane.DropNoRoute, Hops: 5}}
	f.account(1, bad, &o)
	if o.failed != 1 || len(o.problems) != 1 || !strings.Contains(o.problems[0], "not delivered") {
		t.Fatalf("undelivered flow: failed=%d problems=%v", o.failed, o.problems)
	}
	f.account(1, bad, &o)
	if o.failed != 2 || len(o.problems) != 1 {
		t.Fatalf("second undelivered flow: failed=%d problems=%v, want one problem in all", o.failed, o.problems)
	}
}

func TestCheckOracleTrips(t *testing.T) {
	if err := checkOracle(oracleVerdict{}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []oracleVerdict{
		{unexplained: true},
		{divergences: []string{"epoch 3: diverged"}},
		{violations: []string{"seed=1 epoch=2 flow=7: bound"}},
	} {
		if checkOracle(v) == nil {
			t.Errorf("%+v passed", v)
		}
	}
	var o verify.Oracle
	_ = verdictOf(&o) // an empty oracle is a valid input
}

func TestCheckClientTrips(t *testing.T) {
	ok := collectorsvc.ClientStats{Enqueued: 10, Acked: 10}
	if err := checkClient(ok); err != nil {
		t.Fatal(err)
	}
	for _, st := range []collectorsvc.ClientStats{
		{Enqueued: 10, Acked: 9},
		{Enqueued: 10, Acked: 9, Dropped: 1},
		{Enqueued: 10, Acked: 11},
	} {
		if checkClient(st) == nil {
			t.Errorf("%+v passed", st)
		}
	}
}

func TestCheckRecoveryTrips(t *testing.T) {
	if err := checkRecovery(5, 5); err != nil {
		t.Fatal(err)
	}
	if err := checkRecovery(4, 5); err == nil || !strings.Contains(err.Error(), "replayed 4") {
		t.Errorf("short replay: %v", err)
	}
}

func TestCheckCoverageTrips(t *testing.T) {
	if err := checkCoverage(0.97, 0.95); err != nil {
		t.Fatal(err)
	}
	for _, got := range []float64{0.94, 0, math.NaN()} {
		if checkCoverage(got, 0.95) == nil {
			t.Errorf("coverage %v passed", got)
		}
	}
}

func TestFlowIDsDealRoundRobin(t *testing.T) {
	seen := map[uint32]bool{}
	for k := uint64(0); k < 1<<16; k++ {
		f := flowID(k)
		if seen[f] {
			t.Fatalf("flow ID %d repeats at report %d", f, k)
		}
		seen[f] = true
		if got := xhash.Mix32(f) % ingestShards; uint64(got) != k%ingestShards {
			t.Fatalf("report %d: flow %d hashes to shard %d", k, f, got)
		}
	}
}

func TestMidCycle(t *testing.T) {
	for _, c := range []struct{ k0, sent uint64 }{
		{400000, 400001}, {400004, 5000000}, {400001, 13000003}, {7, 7},
	} {
		b := &ingestBench{k0: c.k0, sent: c.sent}
		stop := b.midCycle()
		live := stop - c.k0
		if stop < c.sent || stop-c.sent >= ingestShards*(ingestMaxFlows+1) || live%ingestShards != 0 {
			t.Errorf("%+v: stop %d", c, stop)
		}
		if per := ingestPrep/ingestShards + live/ingestShards; per%ingestMaxFlows != ingestMaxFlows/2 {
			t.Errorf("%+v: stop %d leaves %d flows per shard", c, stop, per)
		}
	}
}
