// Regression tests for the batched-ingest protocol hardening: ack
// fencing on journal failure, per-client ack state across an in-stream
// hello rebind, and the exactly-once identity with group commit under
// FsyncAlways.
package collectorsvc

import (
	"net"
	"testing"
	"time"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
)

// readAcks consumes acknowledgement frames from conn until read fails
// (server hang-up or deadline), returning the Seq of each in order.
func readAcks(t *testing.T, conn net.Conn, timeout time.Duration) []uint64 {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(timeout))
	br := newFrameReader(conn)
	var acks []uint64
	for {
		f, err := ReadFrameBuffered(br)
		if err != nil {
			return acks
		}
		if f.Type != FrameAck {
			t.Fatalf("unexpected frame type %d from server", f.Type)
		}
		acks = append(acks, f.Seq)
	}
}

// TestJournalFailureFencesAck is the regression test for the ignored
// Commit failure: once the journal has failed, the server must withhold
// the ack (the client's licence to forget) and kill the connection, and
// /healthz must report unready. Acking past a failed commit would let
// the client forget frames that never became durable.
func TestJournalFailureFencesAck(t *testing.T) {
	j, err := OpenJournal(JournalConfig{Dir: t.TempDir(), Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	s, _, err := NewRecoveredServer(ServerConfig{Shards: 1, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	buf := AppendHello(nil, 7)
	ev := dataplane.LoopEvent{Report: detect.Report{Reporter: 1, Hops: 3}, Flow: 11}
	if buf, err = AppendReport(buf, 1, ev, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	// The healthy path must ack seq 1 before we inject the failure, so
	// the fence below is attributable to the failure, not to AckEvery.
	acks := readAcks(t, conn, 2*time.Second)
	if len(acks) == 0 || acks[len(acks)-1] != 1 {
		t.Fatalf("no ack for seq 1 on the healthy path: %v", acks)
	}
	if !s.Healthy() {
		t.Fatal("server unhealthy before the injected failure")
	}

	// Inject a durability failure the way a dying disk would surface it:
	// the sticky failed flag that every append/sync error sets.
	j.mu.Lock()
	j.failed = true
	j.mu.Unlock()

	buf = buf[:0]
	if buf, err = AppendReport(buf, 2, ev, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	// The server must hang up without acknowledging seq 2.
	for _, seq := range readAcks(t, conn, 5*time.Second) {
		if seq >= 2 {
			t.Fatalf("server acked seq %d past a failed journal commit", seq)
		}
	}
	if s.Healthy() {
		t.Error("Healthy() still true after journal failure")
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().ActiveConns != 0 {
		if time.Now().After(deadline) {
			t.Fatal("fenced connection not closed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHelloRebindResetsAckState is the regression test for the rebind
// leak: a repeated hello with a *different* ClientID used to swap the
// sequence accounting but keep lastSeen/lastAcked/pending, so the next
// ack could acknowledge sequences the new client never sent. The old
// client's frames must be ingested and acked at the rebind boundary,
// and the new client's ack high-water mark must start from its own
// sequences.
func TestHelloRebindResetsAckState(t *testing.T) {
	s := NewServer(ServerConfig{Shards: 1})
	defer s.Shutdown()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ev := dataplane.LoopEvent{Report: detect.Report{Reporter: 2, Hops: 4}, Flow: 9}
	buf := AppendHello(nil, 100)
	for seq := uint64(1); seq <= 3; seq++ {
		if buf, err = AppendReport(buf, seq, ev, 4); err != nil {
			t.Fatal(err)
		}
	}
	buf = AppendHello(buf, 200)
	if buf, err = AppendReport(buf, 1, ev, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}

	acks := readAcks(t, conn, 2*time.Second)
	if len(acks) < 2 {
		t.Fatalf("want acks for both clients, got %v", acks)
	}
	// The rebind boundary flushes client 100 at its own high-water mark.
	if acks[0] != 3 {
		t.Fatalf("rebind flush acked seq %d for client 100, want 3", acks[0])
	}
	// Every later ack belongs to client 200, whose only sequence is 1 —
	// an ack above that is client 100's state leaking across the rebind.
	for _, seq := range acks[1:] {
		if seq != 1 {
			t.Fatalf("ack %d for client 200, want 1 (acks: %v)", seq, acks)
		}
	}
	if got := s.clientState(100).last.Load(); got != 3 {
		t.Errorf("client 100 high-water mark = %d, want 3", got)
	}
	if got := s.clientState(200).last.Load(); got != 1 {
		t.Errorf("client 200 high-water mark = %d, want 1", got)
	}
}

// TestBatchedIngestFsyncAlways pins the exactly-once identity with
// group commit under the strictest durability policy: one fsync covers
// an entire ack batch, and sent = ingested + dropped still balances.
func TestBatchedIngestFsyncAlways(t *testing.T) {
	j, err := OpenJournal(JournalConfig{Dir: t.TempDir(), Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	s, _, err := NewRecoveredServer(ServerConfig{Shards: 2, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ClientConfig{Addr: addr.String(), ID: 1, Buffer: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const reports = 1000
	for i := 0; i < reports; i++ {
		c.Send(dataplane.LoopEvent{Report: detect.Report{Reporter: 1, Hops: 2}, Flow: uint32(i)}, 2)
		if i%100 == 99 {
			c.Tick()
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	cst := c.Stats()
	st := s.Stats()
	if cst.Enqueued != cst.Acked+cst.Dropped {
		t.Fatalf("client identity broken: enqueued=%d acked=%d dropped=%d", cst.Enqueued, cst.Acked, cst.Dropped)
	}
	// Acks cover reports and ticks; retransmitted overlap lands in Dupes
	// without being ingested twice, so the identity is exact.
	if st.Ingested+st.Ticks != cst.Acked {
		t.Fatalf("server accounting: ingested=%d ticks=%d vs acked=%d", st.Ingested, st.Ticks, cst.Acked)
	}
	if st.Ingested == 0 {
		t.Fatal("nothing ingested")
	}
	if jst := j.Stats(); jst.AppendErrors != 0 {
		t.Fatalf("journal append errors under FsyncAlways: %+v", jst)
	}
}
