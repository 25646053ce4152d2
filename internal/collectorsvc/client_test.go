package collectorsvc

import (
	"errors"
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
	"github.com/unroller/unroller/internal/xrand"
)

// TestBackoffDelayDeterministic: two generators with the same seed
// replay the identical backoff schedule, and every delay respects the
// [min/2 (shifted), max] envelope with exponential growth capped at max.
func TestBackoffDelayDeterministic(t *testing.T) {
	const minB, maxB = 50 * time.Millisecond, 5 * time.Second
	a, b := xrand.New(42), xrand.New(42)
	for attempt := 0; attempt < 20; attempt++ {
		da := backoffDelay(a, attempt, minB, maxB)
		db := backoffDelay(b, attempt, minB, maxB)
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", attempt, da, db)
		}
		uncapped := minB << uint(attempt)
		ceil := uncapped
		if attempt > 10 || ceil > maxB || ceil <= 0 {
			ceil = maxB
		}
		if da > ceil || da < ceil/2 {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, da, ceil/2, ceil)
		}
	}
	if d := backoffDelay(xrand.New(1), 500, minB, maxB); d > maxB || d < maxB/2 {
		t.Errorf("huge attempt: delay %v outside [%v, %v]", d, maxB/2, maxB)
	}
}

// TestNewClientRejectsBadAddress: an unparsable host:port fails fast at
// construction instead of spinning in the dialer forever.
func TestNewClientRejectsBadAddress(t *testing.T) {
	for _, addr := range []string{"", "no-port", "host:port:extra"} {
		if _, err := NewClient(ClientConfig{Addr: addr}); err == nil {
			t.Errorf("address %q accepted", addr)
		}
	}
}

// TestClientBufferOverflowCounted: with no server to drain it, a tiny
// buffer drops the oldest events — every one of them counted, and the
// Enqueued = Acked + Dropped identity holds after Close.
func TestClientBufferOverflowCounted(t *testing.T) {
	dialErr := errors.New("collectorsvc: test dialer is offline")
	c, err := NewClient(ClientConfig{
		Addr:         "127.0.0.1:1",
		ID:           1,
		Buffer:       8,
		MinBackoff:   time.Hour, // park the dialer after the first failure
		MaxBackoff:   time.Hour,
		FlushTimeout: 50 * time.Millisecond,
		Dial:         func(string) (net.Conn, error) { return nil, dialErr },
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	ev := dataplane.LoopEvent{Report: detect.Report{Reporter: 7, Hops: 2}, Flow: 1}
	for i := 0; i < n; i++ {
		c.Send(ev, 2)
	}
	// Wait for the first dial attempt so the failure count below is
	// deterministic (the run goroutine parks in its hour-long backoff
	// right after it).
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().DialFailures == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dialer never attempted")
		}
		time.Sleep(time.Millisecond)
	}
	st := c.Stats()
	if st.Enqueued != n {
		t.Errorf("enqueued %d, want %d", st.Enqueued, n)
	}
	if st.Dropped != n-8 {
		t.Errorf("dropped %d, want %d (buffer of 8)", st.Dropped, n-8)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Acked != 0 || st.Enqueued != st.Acked+st.Dropped {
		t.Errorf("identity broken after close: %+v", st)
	}
	if st.DialFailures == 0 {
		t.Error("dial failures not counted")
	}
	// Late sends after Close are absorbed into the identity, not lost.
	c.Send(ev, 2)
	st = c.Stats()
	if st.Enqueued != st.Acked+st.Dropped {
		t.Errorf("identity broken by post-close send: %+v", st)
	}
}

// TestClientReconnectsWithBackoff: a dialer that fails a few times and
// then succeeds sees its events delivered; the failures are counted.
func TestClientReconnectsWithBackoff(t *testing.T) {
	srv := NewServer(ServerConfig{Shards: 2})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	fails := 3
	c, err := NewClient(ClientConfig{
		Addr:       addr.String(),
		ID:         2,
		Seed:       7,
		MinBackoff: time.Millisecond,
		MaxBackoff: 4 * time.Millisecond,
		Dial: func(a string) (net.Conn, error) {
			if fails > 0 {
				fails--
				return nil, errors.New("collectorsvc: test dial refused")
			}
			return net.DialTimeout("tcp", a, time.Second)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		c.Send(dataplane.LoopEvent{Report: detect.Report{Reporter: 3, Hops: 4}, Flow: uint32(i)}, 4)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Acked != n || st.Dropped != 0 {
		t.Fatalf("acked=%d dropped=%d, want %d/0 (stats %+v)", st.Acked, st.Dropped, n, st)
	}
	if st.DialFailures != 3 || st.Connects == 0 {
		t.Errorf("dial accounting: %+v", st)
	}
	srv.Shutdown()
	if got := srv.Stats().Ingested; got != n {
		t.Errorf("server ingested %d, want %d", got, n)
	}
}

// TestItemRingMatchesSlice drives the client's queue ring and a plain
// slice through the same seeded push / pop / drop-oldest / snapshot
// sequences, under the bounds the client keeps (Buffer drops the oldest
// before a push at the bound). Contents and length must agree after
// every op, the ring must never outgrow the smallest power of two at or
// above its bound, and every slot outside the live range must be zero,
// so a popped event's Members slice is released.
func TestItemRingMatchesSlice(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		r := xrand.New(seed)
		bound := 1 + r.Intn(100)
		capLimit := 1
		for capLimit < max(bound, itemRingMin) {
			capLimit *= 2
		}
		var ring itemRing
		var model []item
		for op := 0; op < 5000; op++ {
			switch k := r.Intn(10); {
			case k < 5: // enqueue, dropping the oldest at the bound
				it := item{flow: uint32(op), members: []detect.SwitchID{detect.SwitchID(op)}, hop: uint32(op), seq: uint64(op)}
				if ring.len() >= bound {
					if got := ring.pop(); !reflect.DeepEqual(got, model[0]) {
						t.Fatalf("seed %d op %d: dropped %+v, model %+v", seed, op, got, model[0])
					}
					model = model[1:]
				}
				ring.push(it)
				model = append(model, it)
			case k < 8: // release a prefix, as an ack does
				for n := r.Intn(8); n > 0 && ring.len() > 0; n-- {
					if ring.front().seq != model[0].seq {
						t.Fatalf("seed %d op %d: front seq %d, model %d", seed, op, ring.front().seq, model[0].seq)
					}
					if got := ring.pop(); !reflect.DeepEqual(got, model[0]) {
						t.Fatalf("seed %d op %d: popped %+v, model %+v", seed, op, got, model[0])
					}
					model = model[1:]
				}
			default: // snapshot, as a retransmit does
				if got := ring.appendTo(nil); !reflect.DeepEqual(got, model) && len(got)+len(model) > 0 {
					t.Fatalf("seed %d op %d: snapshot of %d items differs from the model's %d", seed, op, len(got), len(model))
				}
			}
			if ring.len() != len(model) {
				t.Fatalf("seed %d op %d: len %d, model %d", seed, op, ring.len(), len(model))
			}
			if len(ring.buf) > capLimit {
				t.Fatalf("seed %d op %d: ring of %d slots for a bound of %d", seed, op, len(ring.buf), bound)
			}
			for i := ring.n; i < len(ring.buf); i++ {
				if s := &ring.buf[(ring.head+i)&(len(ring.buf)-1)]; s.members != nil || s.seq != 0 {
					t.Fatalf("seed %d op %d: free slot %d still holds %+v", seed, op, i, *s)
				}
			}
		}
	}
}

// unencodable lists reports the wire cannot carry, each beside the hop
// it is sent at: too many members, and a hop, report hop count or node
// outside [0, 2^32).
var unencodable = []struct {
	ev  dataplane.LoopEvent
	hop int
}{
	{dataplane.LoopEvent{Flow: 1, Members: make([]detect.SwitchID, MaxMembers+1)}, 2},
	{dataplane.LoopEvent{Flow: 2}, math.MaxUint32 + 1},
	{dataplane.LoopEvent{Flow: 3}, -1},
	{dataplane.LoopEvent{Flow: 4, Node: math.MaxUint32 + 1}, 2},
	{dataplane.LoopEvent{Flow: 5, Report: detect.Report{Hops: -2}}, 2},
}

// TestClientDropsUnencodableReports: a report the wire cannot carry is
// counted as dropped when it is sent, so it never reaches a ring and the
// valid reports around it are acked over the one connection, without a
// reconnect or a retransmit.
func TestClientDropsUnencodableReports(t *testing.T) {
	srv := NewServer(ServerConfig{Shards: 2})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	c, err := NewClient(ClientConfig{Addr: addr.String(), ID: 9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const valid = 40
	for i := 0; i < valid; i++ {
		c.Send(dataplane.LoopEvent{Report: detect.Report{Reporter: 3, Hops: 2}, Flow: uint32(100 + i)}, 2)
		if k := i / 4; i%4 == 0 && k < len(unencodable) {
			c.Send(unencodable[k].ev, unencodable[k].hop)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Acked != valid || st.Dropped != uint64(len(unencodable)) || st.Enqueued != st.Acked+st.Dropped {
		t.Errorf("acked %d, dropped %d of %d enqueued; want %d acked and the %d unencodable dropped", st.Acked, st.Dropped, st.Enqueued, valid, len(unencodable))
	}
	if st.Connects != 1 || st.Retransmits != 0 {
		t.Errorf("%d connects, %d retransmits; want one connection and nothing re-sent", st.Connects, st.Retransmits)
	}
	if got := srv.Stats(); got.Ingested != valid || got.BadFrames != 0 {
		t.Errorf("server ingested %d with %d bad frames, want %d and 0", got.Ingested, got.BadFrames, valid)
	}
}
