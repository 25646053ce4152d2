package collectorsvc

import (
	"sync"
	"testing"
	"time"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
)

// shrinkQueues gives every shard of an idle server an empty ring of
// depth slots, so a test can fill it with a handful of frames.
func shrinkQueues(srv *Server, depth int) {
	for _, sh := range srv.shards {
		sh.mu.Lock()
		sh.ring, sh.head, sh.n = make([]item, depth), 0, 0
		sh.mu.Unlock()
	}
}

// holdWorkers parks every shard worker on a barrier, with its queue
// drained, and returns the function that lets them go. Calls after the
// first do nothing, so a test can also defer it: a failing test must
// release the workers before its deferred Shutdown waits for them.
func holdWorkers(srv *Server) (release func()) {
	b := &shardBarrier{reached: make(chan struct{}, len(srv.shards)), resume: make(chan struct{})}
	for _, sh := range srv.shards {
		sh.pushBarrier(b)
	}
	for range srv.shards {
		<-b.reached
	}
	var once sync.Once
	return func() { once.Do(func() { close(b.resume) }) }
}

// shardWaiters counts the readers parked in waitRoom over all shards.
func shardWaiters(srv *Server) int {
	n := 0
	for _, sh := range srv.shards {
		sh.mu.Lock()
		n += sh.waiters
		sh.mu.Unlock()
	}
	return n
}

// ringLen returns the ring size of shard i.
func ringLen(srv *Server, i int) int {
	sh := srv.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.ring)
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// sendFlows sends one report for each flow in [lo, hi).
func sendFlows(c *Client, lo, hi int) {
	for i := lo; i < hi; i++ {
		c.Send(dataplane.LoopEvent{Report: detect.Report{Reporter: 1, Hops: 3}, Flow: uint32(i)}, 3)
	}
}

// TestCollectorBackpressureBlocksReader: with the shard workers held, a
// connection's reader fills the tiny queues and then waits for room
// instead of shedding anything. DisconnectAll returns while it waits
// and the reader gives its unacknowledged batch up; once the workers
// go, the reconnected client's retransmissions land every report
// exactly once, and with one connection at a time no ring ever grew.
func TestCollectorBackpressureBlocksReader(t *testing.T) {
	const depth, n = 4, 200
	srv := NewServer(ServerConfig{Shards: 2, Batch: depth})
	shrinkQueues(srv, depth)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	release := holdWorkers(srv)
	defer release()

	c, err := NewClient(ClientConfig{
		Addr:         addr.String(),
		ID:           1,
		Seed:         1,
		MinBackoff:   time.Millisecond,
		MaxBackoff:   10 * time.Millisecond,
		FlushTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sendFlows(c, 0, n)
	waitFor(t, "a reader waiting for shard room", func() bool { return shardWaiters(srv) > 0 })
	if st := srv.Stats(); st.Ingested > 2*depth || st.QueueDropped != 0 {
		t.Fatalf("held shards of depth %d took ingested=%d dropped=%d", depth, st.Ingested, st.QueueDropped)
	}
	for i, q := range srv.QueueStats() {
		if q.Depth > depth || q.Dropped != 0 {
			t.Fatalf("queue %d: %+v past depth %d", i, q, depth)
		}
	}
	if st := c.Stats(); st.Dropped != 0 {
		t.Fatalf("client dropped %d while the server pushed back", st.Dropped)
	}

	returned := make(chan struct{})
	go func() {
		srv.DisconnectAll()
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("DisconnectAll blocked behind a waiting reader")
	}
	// The killed connection's reader is gone once no connection, or only
	// the client's next one, is active.
	waitFor(t, "the waiting reader to give up", func() bool {
		st := srv.Stats()
		return st.ActiveConns == 0 || (st.Conns >= 2 && st.ActiveConns == 1)
	})

	release()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	cst, st, agg := c.Stats(), srv.Stats(), srv.ControllerStats()
	if cst.Enqueued != n || cst.Acked != n || cst.Dropped != 0 {
		t.Errorf("client %+v, want all %d acked", cst, n)
	}
	if st.Ingested != n || agg.Delivered != n {
		t.Errorf("ingested %d delivered %d, want %d each", st.Ingested, agg.Delivered, n)
	}
	for i := range srv.shards {
		if got := ringLen(srv, i); got != depth {
			t.Errorf("shard %d ring grew to %d with one connection", i, got)
		}
	}
}

// TestCollectorBackpressureShutdown: Shutdown wakes a reader waiting for
// shard room, which returns without acknowledging its batch, and then
// finishes as soon as the workers can drain; every report the server
// ingested reached a controller.
func TestCollectorBackpressureShutdown(t *testing.T) {
	const depth, n = 4, 200
	srv := NewServer(ServerConfig{Shards: 2, Batch: depth})
	shrinkQueues(srv, depth)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	release := holdWorkers(srv)
	defer release()
	c, err := NewClient(ClientConfig{Addr: addr.String(), ID: 1, Seed: 1, FlushTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sendFlows(c, 0, n)
	waitFor(t, "a reader waiting for shard room", func() bool { return shardWaiters(srv) > 0 })

	done := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(done)
	}()
	waitFor(t, "the waiting reader to give up", func() bool { return srv.Stats().ActiveConns == 0 })
	release()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown never returned")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	cst, st, agg := c.Stats(), srv.Stats(), srv.ControllerStats()
	if cst.Enqueued != cst.Acked+cst.Dropped || cst.Acked > st.Ingested {
		t.Errorf("client %+v against ingested %d", cst, st.Ingested)
	}
	if agg.Delivered != st.Ingested {
		t.Errorf("delivered %d != ingested %d", agg.Delivered, st.Ingested)
	}
}

// TestCollectorBackpressureRingGrowth: readers that pass waitRoom
// together may overfill a ring between them, and the push under the
// journal lock then grows it rather than waiting or dropping. Here every
// reader's check passes on the empty ring while the test holds the
// journal lock, so releasing it pushes more items than the ring holds.
// A multi-connection flood follows at the tiny depth, and every report
// lands exactly once, live and recovered alike.
func TestCollectorBackpressureRingGrowth(t *testing.T) {
	const depth, numClients, flood = 4, 8, 300
	dir := t.TempDir()
	j, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ServerConfig{Shards: 1, Batch: depth, Controller: microloopController}
	live := cfg
	live.Journal = j
	srv, _, err := NewRecoveredServer(live)
	if err != nil {
		t.Fatal(err)
	}
	shrinkQueues(srv, depth)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	release := holdWorkers(srv)
	defer release()
	j.mu.Lock()
	clients := make([]*Client, numClients)
	for i := range clients {
		if clients[i], err = NewClient(ClientConfig{
			Addr:         addr.String(),
			ID:           uint64(i) + 1,
			Seed:         uint64(i),
			FlushTimeout: 30 * time.Second,
		}); err != nil {
			j.mu.Unlock()
			t.Fatal(err)
		}
		sendFlows(clients[i], i, i+1)
	}
	// A frame is counted once its reader has it batched, so every reader
	// has passed waitRoom and queues on the journal lock.
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().Frames < numClients; {
		if time.Now().After(deadline) {
			j.mu.Unlock()
			t.Fatalf("only %d of %d frames read", srv.Stats().Frames, numClients)
		}
		time.Sleep(time.Millisecond)
	}
	j.mu.Unlock()
	waitFor(t, "every first report ingested", func() bool { return srv.Stats().Ingested == numClients })
	if got := ringLen(srv, 0); got < numClients {
		t.Fatalf("%d items pushed into a ring of %d that did not grow (ring %d)", numClients, depth, got)
	}
	release()

	for i, c := range clients {
		sendFlows(c, numClients+i*flood, numClients+(i+1)*flood)
	}
	const total = numClients * (flood + 1)
	for i, c := range clients {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Acked != flood+1 || st.Dropped != 0 {
			t.Errorf("client %d: %+v, want %d acked", i, st, flood+1)
		}
	}
	srv.Shutdown()
	st, agg := srv.Stats(), srv.ControllerStats()
	if st.Ingested != total || agg.Delivered != total || agg.Accepted != total {
		t.Errorf("ingested %d delivered %d accepted %d, want %d each", st.Ingested, agg.Delivered, agg.Accepted, total)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(JournalConfig{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rcfg := cfg
	rcfg.Journal = j2
	rec, _, err := NewRecoveredServer(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Shutdown()
	if got := rec.ControllerStats(); got.Delivered != agg.Delivered || got.Accepted != agg.Accepted || got.Deduped != agg.Deduped {
		t.Errorf("recovered %v, live %v", got, agg)
	}
}

// TestShardPushGrowsFullRing: a push into a full ring doubles it and
// keeps the queue order, ticks included, across a wrapped head.
func TestShardPushGrowsFullRing(t *testing.T) {
	sh := newShard(dataplane.ControllerConfig{}, 4, DefaultMaxFlows)
	// No worker: pop by hand to wrap the head.
	for f := uint32(1); f <= 4; f++ {
		sh.pushBatch([]item{{flow: f}})
	}
	if _, ok := sh.popBatch(make([]item, 0, 2)); !ok {
		t.Fatal("popBatch on a full queue reported closed")
	}
	sh.pushBatch([]item{{kind: itemTick}})
	sh.pushBatch([]item{{flow: 5}})
	sh.pushBatch([]item{{flow: 6}}) // the ring is full: it grows
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.ring) != 8 || sh.n != 5 {
		t.Fatalf("ring %d holding %d, want 8 holding 5", len(sh.ring), sh.n)
	}
	want := []uint32{3, 4, 0, 5, 6} // 0 marks the tick
	for i, f := range want {
		it := sh.ring[(sh.head+i)%len(sh.ring)]
		if (it.kind == itemTick) != (f == 0) || it.flow != f {
			t.Fatalf("slot %d holds kind %d flow %d, want flow %d", i, it.kind, it.flow, f)
		}
	}
}

// TestServerCapsBatchAtQueueDepth: a reader waits for room for its whole
// batch, so buildServer caps Batch at the queue depth.
func TestServerCapsBatchAtQueueDepth(t *testing.T) {
	for _, tc := range []struct{ batch, want int }{
		{0, DefaultBatch},
		{1, 1},
		{queueDepth, queueDepth},
		{queueDepth + 1, queueDepth},
		{1 << 20, queueDepth},
	} {
		if got := buildServer(ServerConfig{Batch: tc.batch}).cfg.Batch; got != tc.want {
			t.Errorf("Batch %d became %d, want %d", tc.batch, got, tc.want)
		}
	}
}
