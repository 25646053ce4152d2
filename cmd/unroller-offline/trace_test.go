package main

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
	"github.com/unroller/unroller/internal/topology"
	"github.com/unroller/unroller/internal/xrand"
)

// TestWriterFormat: Append numbers records from 0 and returns what it
// wrote, and the file is the header then one 28-byte big-endian record
// per observation.
func TestWriterFormat(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := []Record{
		{Seq: 0, Node: 0, Switch: 0xAABB, Flow: 1, Packet: 0},
		{Seq: 1, Node: 7, Switch: 0x1, Flow: 1, Packet: 1},
		{Seq: 2, Node: 255, Switch: 0xFFFFFFFE, Flow: 9, Packet: 1 << 40},
	}
	for _, rec := range want {
		got, err := w.Append(int(rec.Node), rec.Switch, rec.Flow, rec.Packet)
		if err != nil {
			t.Fatal(err)
		}
		if got != rec {
			t.Fatalf("Append returned %+v, want %+v", got, rec)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	wantBytes := []byte("UTRC\x01")
	for _, rec := range want {
		wantBytes = binary.BigEndian.AppendUint64(wantBytes, rec.Seq)
		wantBytes = binary.BigEndian.AppendUint32(wantBytes, rec.Node)
		wantBytes = binary.BigEndian.AppendUint32(wantBytes, uint32(rec.Switch))
		wantBytes = binary.BigEndian.AppendUint32(wantBytes, rec.Flow)
		wantBytes = binary.BigEndian.AppendUint64(wantBytes, rec.Packet)
	}
	if !bytes.Equal(buf.Bytes(), wantBytes) {
		t.Fatalf("trace bytes\n%x\nwant\n%x", buf.Bytes(), wantBytes)
	}
}

// TestEmptyTrace: a trace with no observations is the bare header.
func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := NewWriter(&buf).Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "UTRC\x01" {
		t.Fatalf("empty trace %q", buf.String())
	}
}

// TestAnalyzeFindsLoops: hand-built observation streams.
func TestAnalyzeFindsLoops(t *testing.T) {
	// Packet 1 of flow 7: path a b c d b — loop {b, c, d}.
	recs := []Record{
		{Seq: 0, Switch: 0xA, Flow: 7, Packet: 1},
		{Seq: 1, Switch: 0xB, Flow: 7, Packet: 1},
		{Seq: 2, Switch: 0xC, Flow: 7, Packet: 1},
		{Seq: 3, Switch: 0xD, Flow: 7, Packet: 1},
		{Seq: 4, Switch: 0xB, Flow: 7, Packet: 1},
		// Packet 2 of flow 7: clean path.
		{Seq: 5, Switch: 0xA, Flow: 7, Packet: 2},
		{Seq: 6, Switch: 0xB, Flow: 7, Packet: 2},
	}
	findings := Analyze(recs)
	if len(findings) != 1 {
		t.Fatalf("%d findings", len(findings))
	}
	f := findings[0]
	if f.Reporter != 0xB || f.FirstSeq != 1 || f.SecondSeq != 4 || f.HopsObserved != 5 {
		t.Fatalf("finding %+v", f)
	}
	if len(f.Members) != 3 || f.Members[0] != 0xB || f.Members[1] != 0xC || f.Members[2] != 0xD {
		t.Fatalf("members %v", f.Members)
	}
	sum := Summarize(recs, findings)
	if sum.Findings != 1 || sum.Flows[7] != 1 || sum.Records != 7 {
		t.Fatalf("summary %+v", sum)
	}
	if !strings.Contains(sum.String(), "1 trapped") {
		t.Fatalf("summary string %q", sum.String())
	}
}

// TestAnalyzeOrderIndependent: shuffled input yields the same findings.
func TestAnalyzeOrderIndependent(t *testing.T) {
	recs := []Record{
		{Seq: 0, Switch: 1, Flow: 1, Packet: 1},
		{Seq: 1, Switch: 2, Flow: 1, Packet: 1},
		{Seq: 2, Switch: 1, Flow: 1, Packet: 1},
	}
	shuffled := []Record{recs[2], recs[0], recs[1]}
	a, b := Analyze(recs), Analyze(shuffled)
	if len(a) != 1 || len(b) != 1 || a[0].Reporter != b[0].Reporter ||
		a[0].FirstSeq != b[0].FirstSeq || a[0].SecondSeq != b[0].SecondSeq {
		t.Fatalf("order dependence: %+v vs %+v", a, b)
	}
}

// TestOfflineMatchesInBand: record an emulated loop run through the
// OnHop tap and verify the offline analyzer names the same reporter at
// the same hop as the in-band Unroller report — while having had to
// collect every observation to do it.
func TestOfflineMatchesInBand(t *testing.T) {
	g, err := topology.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	assign := topology.NewAssignment(g, xrand.New(9))
	net, err := dataplane.NewNetwork(g, assign, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	net.SetLoopPolicy(dataplane.ActionDrop)
	dst := 15
	if err := net.InstallShortestPaths(dst); err != nil {
		t.Fatal(err)
	}
	if err := net.InjectLoop(dst, topology.Cycle{5, 6, 10, 9}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	var recs []Record
	net.OnHop = func(node int, sw detect.SwitchID, p *dataplane.Packet) {
		rec, err := w.Append(node, sw, p.Flow, 1)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	tr, err := net.Send(5, dst, 42, 255, true)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Report == nil {
		t.Fatal("in-band detection missing")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	findings := Analyze(recs)
	if len(findings) != 1 {
		t.Fatalf("%d offline findings", len(findings))
	}
	f := findings[0]
	// The offline analyzer flags the first revisited switch; Unroller
	// flags the loop's minimum-ID switch. Both must be members of the
	// same loop: the in-band reporter appears in the offline finding's
	// membership.
	inBandSeen := false
	for _, sw := range f.Members {
		if sw == tr.Report.Reporter {
			inBandSeen = true
			break
		}
	}
	if !inBandSeen {
		t.Fatalf("in-band reporter %v not in offline membership %v", tr.Report.Reporter, f.Members)
	}
	// The offline analyzer sees the repeat at X+1 observations; the
	// in-band detector pays the Unroller delay but needed no
	// collection. Both facts are part of the paper's trade-off table.
	if f.HopsObserved > tr.Report.Hops {
		t.Fatalf("offline needed %d observations, more than in-band's %d hops", f.HopsObserved, tr.Report.Hops)
	}
	if len(recs) != tr.Report.Hops {
		t.Fatalf("collector ingested %d records for a %d-hop packet", len(recs), tr.Report.Hops)
	}
}
