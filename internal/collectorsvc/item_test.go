package collectorsvc

import (
	"reflect"
	"testing"
	"unsafe"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
)

// TestItemSize: one item is what every layer holds per report, by value;
// it must stay at most 56 bytes.
func TestItemSize(t *testing.T) {
	if n := unsafe.Sizeof(item{}); n > 56 {
		t.Fatalf("item is %d bytes, want at most 56", n)
	}
}

// flowMembers is the member list the members tests give flow's report:
// one to five members, all derived from the flow, so no two flows share
// a list.
func flowMembers(flow uint32) []detect.SwitchID {
	m := make([]detect.SwitchID, 1+flow%5)
	for k := range m {
		m[k] = detect.SwitchID(flow<<3 | uint32(k))
	}
	return m
}

// TestCollectorMembersOutliveRestart: each report reaches its controller
// with members of its own, which nothing written later reuses — not a
// later batch from the same or another connection, not the shard ring,
// not a rotation and not recovery. Two clients stream reports whose
// member lists derive from their flows, over many small batches, with a
// forced rotation between two halves. Server.Events() must list every
// report with its own members, and after a restart on the same journal
// it must list the half journaled after the rotation, each with its own
// members again.
func TestCollectorMembersOutliveRestart(t *testing.T) {
	const half = 200 // reports per client per half
	dir := t.TempDir()
	start := func() (*Server, *Journal) {
		t.Helper()
		j, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		srv, _, err := NewRecoveredServer(ServerConfig{Shards: 3, Batch: 16, Journal: j})
		if err != nil {
			t.Fatal(err)
		}
		return srv, j
	}
	check := func(what string, evs []dataplane.LoopEvent, flows map[uint32]bool) {
		t.Helper()
		if len(evs) != len(flows) {
			t.Fatalf("%s: %d events, want %d", what, len(evs), len(flows))
		}
		seen := make(map[uint32]bool)
		for _, ev := range evs {
			if !flows[ev.Flow] || seen[ev.Flow] {
				t.Fatalf("%s: unexpected or repeated event for flow %d", what, ev.Flow)
			}
			seen[ev.Flow] = true
			if want := flowMembers(ev.Flow); !reflect.DeepEqual(ev.Members, want) {
				t.Fatalf("%s: flow %d holds members %v, want %v", what, ev.Flow, ev.Members, want)
			}
		}
	}

	srv, j := start()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var clients []*Client
	for id := uint64(1); id <= 2; id++ {
		c, err := NewClient(ClientConfig{Addr: addr.String(), ID: id, Batch: 8, Seed: id})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	all, second := make(map[uint32]bool), make(map[uint32]bool)
	stream := func(h int) {
		for i := 0; i < half; i++ {
			for k, c := range clients {
				flow := uint32(k<<16 | h*half + i)
				all[flow] = true
				if h == 1 {
					second[flow] = true
				}
				ev := dataplane.LoopEvent{Report: detect.Report{Reporter: detect.SwitchID(1 + flow%7), Hops: 2}, Node: 1, Flow: flow, Members: flowMembers(flow)}
				c.Send(ev, 3)
			}
		}
		for _, c := range clients {
			waitAcked(t, c, uint64((h+1)*half))
		}
	}
	stream(0)
	srv.ForceRotate() // the first half is now behind a snapshot
	stream(1)
	for _, c := range clients {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	srv.Shutdown()
	if rot := j.Stats().Rotations; rot < 1 {
		t.Fatalf("%d rotations, want the forced one", rot)
	}
	check("live", srv.Events(), all)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	rec, j2 := start()
	defer j2.Close()
	defer rec.Shutdown()
	check("recovered", rec.Events(), second)
}

// TestReportMembersAllocateOnce: from the wire to the controller, a
// report with members costs one allocation, its members slice, which
// the journal encoder and the delivered event share; a report without
// members costs none. Each run decodes a report frame, ingests it
// through a journaled shard, commits, and delivers it as the shard
// worker does.
func TestReportMembersAllocateOnce(t *testing.T) {
	for _, tc := range []struct {
		members []detect.SwitchID
		want    float64
	}{
		{nil, 0},
		{[]detect.SwitchID{4, 5, 6}, 1},
	} {
		j := openTestJournal(t, JournalConfig{Dir: t.TempDir(), SegmentBytes: 1 << 30, Fsync: FsyncNever})
		srv := buildServer(ServerConfig{Shards: 1, Journal: j}) // no worker: the run drains the shard itself
		cs, sh := srv.clientState(1), srv.shards[0]
		ev := dataplane.LoopEvent{Report: detect.Report{Reporter: 2, Hops: 3}, Node: 1, Flow: 7, Members: tc.members}
		var (
			frame []byte
			seq   uint64
			batch = make([]item, 0, 1)
			group = make([][]item, 1)
			pop   = make([]item, 0, 1)
			fds   = make([]dataplane.FlowDelivery, 0, 1)
		)
		allocs := testing.AllocsPerRun(200, func() {
			seq++
			var err error
			if frame, err = AppendReport(frame[:0], seq, ev, 4); err != nil {
				t.Fatal(err)
			}
			f, _, err := DecodeFrame(frame)
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch[:0], f.item)
			srv.ingestBatch(cs, 1, batch, group)
			j.Commit()
			pop, _ = sh.popBatch(pop[:0])
			fds = sh.appendDelivery(fds[:0], &pop[0])
			sh.ctrl.DeliverFlowBatch(fds)
		})
		if allocs != tc.want {
			t.Errorf("%d members: %.2f allocations per report, want %.0f", len(tc.members), allocs, tc.want)
		}
		if got := sh.ctrl.Stats().Accepted; got != 201 {
			t.Errorf("%d members: %d reports accepted, want 201", len(tc.members), got)
		}
	}
}
