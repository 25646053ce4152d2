package collectorsvc

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/xhash"
	"github.com/unroller/unroller/internal/xrand"
)

// ClientConfig tunes the reconnecting sender. Zero values select the
// defaults noted per field.
type ClientConfig struct {
	// Addr is the collectord address (host:port). Validated at NewClient
	// so a typo fails fast instead of spinning in the dialer.
	Addr string
	// ID is the client identity for exactly-once ingest. It must be
	// unique per client *instance*: reusing an ID resumes its sequence
	// space, so a fresh instance with a reused ID would see its frames
	// discarded as duplicates. 0 derives an instance-unique ID from the
	// wall clock and Seed.
	ID uint64
	// Buffer bounds the local queue of events not yet written to a
	// connection. When full, the oldest unsent event is dropped and
	// counted (ClientStats.Dropped) — the sender never blocks the data
	// plane. <= 0 selects DefaultClientBuffer.
	Buffer int
	// Batch caps the frames encoded per socket write. <= 0 selects
	// DefaultClientBatch.
	Batch int
	// Window caps the sent-but-unacknowledged frames in flight. A full
	// window pauses sending (the local buffer absorbs, then drops) until
	// acks arrive. <= 0 selects DefaultClientWindow.
	Window int
	// MinBackoff and MaxBackoff bound the capped exponential reconnect
	// backoff. Each retry waits min(MaxBackoff, MinBackoff<<attempt)
	// jittered to [d/2, d] by the seeded generator, so tests replay the
	// exact schedule. Zero values select 50ms and 5s.
	MinBackoff, MaxBackoff time.Duration
	// FlushTimeout bounds how long Close waits for the buffer and
	// in-flight window to drain; whatever remains is counted as dropped.
	// <= 0 selects DefaultFlushTimeout.
	FlushTimeout time.Duration
	// HeartbeatEvery is the keep-alive interval on an otherwise idle
	// connection; each heartbeat elicits an ack, so both the server's
	// idle reaper and this client's staleness detector see traffic on a
	// healthy session. <= 0 selects DefaultHeartbeatEvery.
	HeartbeatEvery time.Duration
	// StaleTimeout bounds the silence from the server (no acks, no
	// bytes) before the connection is declared stale and torn down for
	// a reconnect — the half-open-peer detector. It must exceed
	// HeartbeatEvery; a value at or below it is raised to three
	// heartbeat intervals. <= 0 selects DefaultStaleTimeout.
	StaleTimeout time.Duration
	// WriteTimeout bounds each socket write, so a peer that stops
	// reading cannot park the sender mid-flush. <= 0 selects
	// DefaultClientWriteTimeout.
	WriteTimeout time.Duration
	// Seed seeds the backoff jitter (and the derived ID when ID is 0).
	// The jitter stream is derived from Seed mixed with the client ID,
	// so a fleet of clients sharing one configured seed still spreads
	// its reconnects instead of redialing a freshly promoted owner in
	// lockstep.
	Seed uint64
	// Dial overrides the dialer (tests inject failing or proxied
	// connections); nil uses a 5s-timeout TCP dial.
	Dial func(addr string) (net.Conn, error)
}

// Defaults for ClientConfig's knobs.
const (
	DefaultClientBuffer       = 4096
	DefaultClientBatch        = 128
	DefaultClientWindow       = 1024
	DefaultMinBackoff         = 50 * time.Millisecond
	DefaultMaxBackoff         = 5 * time.Second
	DefaultFlushTimeout       = 5 * time.Second
	DefaultHeartbeatEvery     = 5 * time.Second
	DefaultStaleTimeout       = 15 * time.Second
	DefaultClientWriteTimeout = 10 * time.Second
	defaultDialTimeout        = 5 * time.Second
)

// ClientStats snapshots the sender's accounting. Once Close returns,
// Enqueued = Acked + Dropped exactly: every event the data plane handed
// over was either acknowledged by the server or counted as dropped
// (buffer overflow or unflushed at close) — never silently lost.
type ClientStats struct {
	// Redirects counts Redirect calls that actually retargeted the
	// sender (cluster failover and resharding cutovers).
	Redirects uint64 `json:"redirects"`
	// Enqueued counts events accepted by Send (plus ticks by Tick).
	Enqueued uint64 `json:"enqueued"`
	// Acked counts frames the server acknowledged as accounted.
	Acked uint64 `json:"acked"`
	// Dropped counts events lost locally: buffer overflow (drop-oldest)
	// plus whatever Close abandoned at its deadline.
	Dropped uint64 `json:"dropped"`
	// Retransmits counts frames re-sent after a reconnect; duplicates
	// among them are absorbed server-side by sequence accounting.
	Retransmits uint64 `json:"retransmits"`
	// Connects counts successful dials; DialFailures failed ones.
	Connects     uint64 `json:"connects"`
	DialFailures uint64 `json:"dial_failures"`
}

// Client is a reconnecting, batching sender of loop reports. Send never
// blocks on the network; a background goroutine owns the connection
// lifecycle. Safe for concurrent use.
type Client struct {
	cfg ClientConfig

	mu          sync.Mutex
	cond        *sync.Cond
	unsent      itemRing // not yet written; at most cfg.Buffer items; seq unset
	inflight    itemRing // sent, awaiting ack; FIFO by seq; at most cfg.Window items
	nextSeq     uint64
	stats       ClientStats
	rng         *xrand.Rand
	addr        string // current dial target (cfg.Addr until redirected)
	pendingAddr string // Redirect target awaiting cutover
	cutover     bool   // drain in-flight, then adopt pendingAddr
	closing     bool   // Close called: drain, then stop
	aborted     bool   // drain deadline hit: count pending as dropped, stop
	broken      bool   // current connection died (reader noticed first)
	hbDue       bool   // heartbeat timer fired; stream owes a keep-alive

	wake chan struct{} // poked by Close/abort to interrupt backoff sleeps
	done chan struct{} // run goroutine exited
}

// NewClient validates cfg and starts the sender. The returned client is
// usable immediately; connection establishment happens in the
// background with backoff.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Dial == nil {
		if _, _, err := net.SplitHostPort(cfg.Addr); err != nil {
			return nil, fmt.Errorf("collectorsvc: bad collector address %q: %w", cfg.Addr, err)
		}
		cfg.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, defaultDialTimeout)
		}
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = DefaultClientBuffer
	}
	if cfg.Batch <= 0 {
		cfg.Batch = DefaultClientBatch
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultClientWindow
	}
	if cfg.MinBackoff <= 0 {
		cfg.MinBackoff = DefaultMinBackoff
	}
	if cfg.MaxBackoff < cfg.MinBackoff {
		cfg.MaxBackoff = DefaultMaxBackoff
	}
	if cfg.FlushTimeout <= 0 {
		cfg.FlushTimeout = DefaultFlushTimeout
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if cfg.StaleTimeout <= 0 {
		cfg.StaleTimeout = DefaultStaleTimeout
	}
	if cfg.StaleTimeout <= cfg.HeartbeatEvery {
		cfg.StaleTimeout = 3 * cfg.HeartbeatEvery
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = DefaultClientWriteTimeout
	}
	if cfg.ID == 0 {
		// Instance-unique: wall clock mixed with the seed. The wire
		// protocol's exactly-once state is keyed by this, so two
		// instances must not collide even when configured identically.
		cfg.ID = xhash.Mix64(uint64(time.Now().UnixNano()) ^ xhash.Mix64(cfg.Seed))
	}
	c := &Client{
		cfg:  cfg,
		addr: cfg.Addr,
		rng:  xrand.New(xhash.Mix64(cfg.Seed ^ xhash.Mix64(cfg.ID))),
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	go c.run()
	return c, nil
}

// Send enqueues one loop report (hop is the reporting packet's journey
// hop count — the dedup context). Never blocks on the network: a full
// buffer drops the oldest unsent event, counted. A report the wire
// cannot carry (see AppendReport) is counted as dropped at once, so
// every queued item encodes and one bad report cannot stall the stream.
// The queued report shares ev's Members.
func (c *Client) Send(ev dataplane.LoopEvent, hop int) {
	it, err := reportItem(ev, hop)
	c.enqueue(it, err == nil)
}

// Tick enqueues an epoch-boundary tick, ordered with the reports around
// it. Meaningful only when this client is the collector's single feeder.
func (c *Client) Tick() {
	c.enqueue(item{kind: itemTick}, true)
}

// enqueue queues it, or counts it as dropped when ok is false (the wire
// cannot carry it) or Close has begun; either way the accounting
// identity holds.
func (c *Client) enqueue(it item, ok bool) {
	c.mu.Lock()
	c.stats.Enqueued++
	if !ok || c.closing || c.aborted {
		c.stats.Dropped++
		c.mu.Unlock()
		return
	}
	if c.unsent.len() >= c.cfg.Buffer {
		c.unsent.pop()
		c.stats.Dropped++
	}
	c.unsent.push(it)
	c.mu.Unlock()
	c.cond.Signal()
}

// Stats snapshots the client's accounting counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Pending returns the events not yet acknowledged (unsent + in flight).
func (c *Client) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.unsent.len() + c.inflight.len()
}

// Close drains the sender: it keeps (re)connecting and sending until
// everything enqueued is acknowledged or FlushTimeout elapses, counts
// whatever remains as dropped, and stops the background goroutine.
// A backoff sleep in progress is interrupted immediately, so Close
// never waits out a reconnect timer: with nothing pending it returns at
// once, and with pending work the drain redial starts now instead of
// when the backoff would have expired.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closing {
		c.mu.Unlock()
		<-c.done
		return nil
	}
	c.closing = true
	c.mu.Unlock()
	c.cond.Broadcast()
	c.poke()

	select {
	case <-c.done:
	case <-time.After(c.cfg.FlushTimeout):
		c.mu.Lock()
		c.aborted = true
		c.stats.Dropped += uint64(c.unsent.len() + c.inflight.len())
		c.unsent, c.inflight = itemRing{}, itemRing{}
		c.mu.Unlock()
		c.cond.Broadcast()
		c.poke()
		<-c.done
	}
	return nil
}

// Redirect retargets the sender at addr — the failover surface the
// cluster client drives when a flow partition's owner moves. With a
// live connection the move is a drain cutover: no new frames go out,
// the in-flight window drains at the old owner (every frame acked there
// exactly once), and only then does the stream reopen at addr — a
// planned reshard moves ownership without duplicating a single report.
// If the connection is down or dies mid-drain (the owner crashed), the
// sender adopts addr immediately and retransmits the unacknowledged
// window there; the journal-recovery handoff discounts whatever the
// dead owner had already committed. Redirecting back to the current
// address cancels a pending cutover.
func (c *Client) Redirect(addr string) {
	c.mu.Lock()
	switch {
	case c.cutover && addr == c.pendingAddr, !c.cutover && addr == c.addr:
		c.mu.Unlock()
		return
	case c.cutover && addr == c.addr:
		c.cutover = false
		c.pendingAddr = ""
		c.mu.Unlock()
		return
	}
	c.pendingAddr = addr
	c.cutover = true
	c.stats.Redirects++
	c.mu.Unlock()
	c.cond.Broadcast()
	c.poke()
}

// poke nudges the run loop out of a backoff sleep (non-blocking; the
// buffered slot coalesces pokes).
func (c *Client) poke() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// finished reports whether the run loop should exit: draining is done
// (or abandoned) and no work remains.
func (c *Client) finished() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aborted || (c.closing && c.unsent.len() == 0 && c.inflight.len() == 0)
}

// run owns the connection lifecycle: dial with backoff, stream until
// the connection breaks, repeat until drained.
func (c *Client) run() {
	defer close(c.done)
	attempt := 0
	for {
		if c.finished() {
			return
		}
		c.mu.Lock()
		if c.cutover {
			// No live connection at the top of the loop, so a pending
			// cutover is adopted here: drained streams, crash moves (the
			// conn died mid-drain), and idle moves all land on the new
			// owner for the next dial. Backoff restarts: the new target
			// is presumed healthy.
			c.addr, c.pendingAddr = c.pendingAddr, ""
			c.cutover = false
			attempt = 0
		}
		addr := c.addr
		c.mu.Unlock()
		conn, err := c.cfg.Dial(addr)
		if err != nil {
			c.mu.Lock()
			c.stats.DialFailures++
			d := backoffDelay(c.rng, attempt, c.cfg.MinBackoff, c.cfg.MaxBackoff)
			c.mu.Unlock()
			attempt++
			if c.sleep(d) {
				return
			}
			continue
		}
		attempt = 0
		c.mu.Lock()
		c.stats.Connects++
		c.broken = false
		c.mu.Unlock()
		c.stream(conn)
		conn.Close()
	}
}

// sleep waits d, returning early when poked: true means stop (aborted),
// false with an early return means Close began and the drain should
// redial immediately instead of waiting out the backoff.
func (c *Client) sleep(d time.Duration) bool {
	deadline := time.NewTimer(d)
	defer deadline.Stop()
	for {
		select {
		case <-deadline.C:
			return c.isAborted()
		case <-c.wake:
			c.mu.Lock()
			aborted, redial := c.aborted, c.closing || c.cutover
			c.mu.Unlock()
			if aborted {
				return true
			}
			// Close drains and Redirect retargets; either way the next
			// dial should happen now, not when this backoff expires.
			if redial {
				return false
			}
		}
	}
}

func (c *Client) isAborted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aborted
}

// stream runs one connection: hello, retransmit the in-flight window,
// then batch unsent items until the connection breaks or draining
// completes. A reader goroutine consumes acks concurrently; its read
// deadline is the staleness detector (a healthy session always has ack
// traffic within StaleTimeout, because an idle stream sends heartbeats
// and every heartbeat elicits an ack). All writes are deadline-armed.
func (c *Client) stream(conn net.Conn) {
	bw := bufio.NewWriterSize(conn, 1<<15)
	buf := make([]byte, 0, 1<<12)

	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		br := newFrameReader(conn)
		for {
			conn.SetReadDeadline(time.Now().Add(c.cfg.StaleTimeout))
			f, err := ReadFrameBuffered(br)
			if err != nil {
				break
			}
			if f.Type == FrameAck {
				c.ack(f.seq)
			}
		}
		c.mu.Lock()
		c.broken = true
		c.mu.Unlock()
		c.cond.Broadcast()
	}()
	defer func() {
		conn.Close() // unblocks the reader
		<-readerDone
	}()

	// The heartbeat timer wakes the batch loop instead of writing
	// itself: one goroutine owns all writes, so frames never interleave
	// mid-buffer. It re-arms after every flush — heartbeats fill write
	// silence, they don't add to a busy stream.
	hbTimer := time.AfterFunc(c.cfg.HeartbeatEvery, func() {
		c.mu.Lock()
		c.hbDue = true
		c.mu.Unlock()
		c.cond.Broadcast()
	})
	defer hbTimer.Stop()
	c.mu.Lock()
	c.hbDue = false
	c.mu.Unlock()

	// write sends buf and flushes it, each step deadline-armed, and
	// re-arms the heartbeat timer. Every write is whole frames encoded
	// into one buffer, so the connection's write-path syscalls and
	// deadline churn scale with batches, not frames.
	write := func() bool {
		conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
		if _, err := bw.Write(buf); err != nil {
			return false
		}
		conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
		if err := bw.Flush(); err != nil {
			return false
		}
		hbTimer.Reset(c.cfg.HeartbeatEvery)
		return true
	}

	// The hello, then the in-flight window: frames sent on the previous
	// connection whose acks never arrived. The server discards the
	// already-accounted prefix by sequence number.
	c.mu.Lock()
	resend := c.inflight.appendTo(nil)
	c.stats.Retransmits += uint64(len(resend))
	c.mu.Unlock()
	buf = AppendHello(buf[:0], c.cfg.ID)
	for i := range resend {
		buf = resend[i].appendFrame(buf)
	}
	if !write() {
		return
	}

	batch := make([]item, 0, c.cfg.Batch)
	for {
		batch = batch[:0]
		heartbeat := false
		c.mu.Lock()
		for {
			if c.aborted || c.broken {
				c.mu.Unlock()
				return
			}
			if c.cutover && c.inflight.len() == 0 {
				// Drain cutover complete: every sent frame is acked at
				// this owner, so the stream can move with zero overlap.
				// The run loop's top adopts the pending address.
				c.mu.Unlock()
				return
			}
			if c.hbDue {
				c.hbDue = false
				heartbeat = true
				break
			}
			if c.unsent.len() > 0 && c.inflight.len() < c.cfg.Window && !c.cutover {
				break
			}
			if c.closing && c.unsent.len() == 0 && c.inflight.len() == 0 {
				c.mu.Unlock()
				conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
				if err := bw.Flush(); err != nil {
					// Surface the failure like every other flush site: mark
					// the connection broken and return to the run loop (the
					// reconnect path) instead of pretending the buffered
					// bytes went out. Everything enqueued is already
					// acknowledged here, so the loop exits once it confirms
					// that — but it must not exit *believing* a write
					// succeeded that didn't.
					c.mu.Lock()
					c.broken = true
					c.mu.Unlock()
				}
				return
			}
			// Idle, window-full, or drain-waiting-for-acks: sleep until
			// enqueue/ack/heartbeat/close wakes us.
			c.cond.Wait()
		}
		if !heartbeat {
			for c.unsent.len() > 0 && len(batch) < c.cfg.Batch && c.inflight.len() < c.cfg.Window {
				it := c.unsent.pop()
				c.nextSeq++
				it.seq = c.nextSeq
				c.inflight.push(it)
				batch = append(batch, it)
			}
		}
		seq := c.nextSeq
		c.mu.Unlock()

		buf = buf[:0]
		if heartbeat {
			buf = AppendHeartbeat(buf, seq)
		}
		for i := range batch {
			buf = batch[i].appendFrame(buf)
		}
		if !write() {
			return
		}
	}
}

// ack releases the in-flight prefix up to seq.
func (c *Client) ack(seq uint64) {
	c.mu.Lock()
	n := 0
	for c.inflight.len() > 0 && c.inflight.front().seq <= seq {
		c.inflight.pop()
		n++
	}
	c.stats.Acked += uint64(n)
	c.mu.Unlock()
	if n > 0 {
		c.cond.Broadcast()
	}
}

// itemRing is a FIFO of items, each a report or a tick already checked
// to encode, on a power-of-two ring that grows by doubling when full.
// Nothing is allocated until the first push, and callers bound the
// length (Buffer for unsent, Window for in flight), so a ring never
// outgrows the smallest power of two at or above its bound. Popping
// zeroes the slot, releasing the report's members.
type itemRing struct {
	buf  []item
	head int
	n    int
}

// itemRingMin is a ring's first allocation, in items.
const itemRingMin = 16

func (r *itemRing) len() int { return r.n }

// push appends it at the back, growing the ring if it is full.
func (r *itemRing) push(it item) {
	if r.n == len(r.buf) {
		buf := make([]item, max(2*len(r.buf), itemRingMin))
		r.appendTo(buf[:0])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = it
	r.n++
}

// front returns the oldest item. The ring must not be empty.
func (r *itemRing) front() *item { return &r.buf[r.head] }

// pop removes and returns the oldest item. The ring must not be empty.
func (r *itemRing) pop() item {
	it := r.buf[r.head]
	r.buf[r.head] = item{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return it
}

// appendTo appends the items, oldest first, to dst.
func (r *itemRing) appendTo(dst []item) []item {
	end := r.head + r.n
	if end <= len(r.buf) {
		return append(dst, r.buf[r.head:end]...)
	}
	dst = append(dst, r.buf[r.head:]...)
	return append(dst, r.buf[:end-len(r.buf)]...)
}

// backoffDelay computes the attempt-th reconnect delay: capped
// exponential growth from min, jittered into [d/2, d] by rng. Pure
// function of (rng state, attempt), so a seeded client replays its
// exact schedule — the property the determinism tests pin.
func backoffDelay(rng *xrand.Rand, attempt int, min, max time.Duration) time.Duration {
	d := min
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rng.Uint64n(uint64(half)+1))
}
