package collectorsvc

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
	"github.com/unroller/unroller/internal/xhash"
	"github.com/unroller/unroller/internal/xrand"
)

// flowModel is the flow-table contract as the obvious map: flow →
// window, first-seen order, and a reset to empty (counted) when a new
// flow arrives at MaxFlows.
type flowModel struct {
	max       int
	windows   map[uint32]*dataplane.DedupWindow
	order     []uint32
	evictions uint64
}

func (m *flowModel) window(flow uint32) *dataplane.DedupWindow {
	if w, ok := m.windows[flow]; ok {
		return w
	}
	if len(m.windows) >= m.max {
		m.windows, m.order = make(map[uint32]*dataplane.DedupWindow), nil
		m.evictions++
	}
	w := new(dataplane.DedupWindow)
	m.windows[flow] = w
	m.order = append(m.order, flow)
	return w
}

// sameResidueFlow is the k-th of a stream of fresh flow IDs that all
// share one residue of xhash.Mix32 modulo shards — what one shard of a
// collector sees, and how the ingest benchmark picks its flows (IDs
// dealt to shards round-robin).
func sameResidueFlow(k uint64, shards, residue uint32) uint32 {
	span := 32 * shards
	base := uint32(k) * span
	for j := uint32(0); j < span; j++ {
		if f := base + j; xhash.Mix32(f)%shards == residue {
			return f
		}
	}
	panic(fmt.Sprintf("no flow with residue %d in [%d, %d)", residue, base, base+span))
}

// scenarioFlow packs an (epoch, source, journey) triple the way the
// scenarios build flow IDs.
func scenarioFlow(k uint64) uint32 {
	return uint32(k/4096)<<16 | uint32(k/16%256)<<4 | uint32(k%16)
}

// TestFlowTableMatchesMapModel runs seeded flow streams through a
// shard's flow table and through flowModel, across many MaxFlows
// resets: each lookup must find the window the model holds for the flow
// (windows are stamped with the step that last touched them, so a
// lookup that lands on another flow's slot shows), and len, each order
// and the eviction count must match the model throughout.
func TestFlowTableMatchesMapModel(t *testing.T) {
	streams := map[string]func(r *xrand.Rand, pool int) uint32{
		"uniform":  func(r *xrand.Rand, pool int) uint32 { return uint32(r.Uint64()) },
		"repeats":  func(r *xrand.Rand, pool int) uint32 { return xhash.Mix32(uint32(r.Uint64n(uint64(pool)))) },
		"scenario": func(r *xrand.Rand, pool int) uint32 { return scenarioFlow(r.Uint64n(uint64(pool))) },
		"residue":  func(r *xrand.Rand, pool int) uint32 { return sameResidueFlow(r.Uint64n(uint64(pool)), 4, 1) },
	}
	for name, next := range streams {
		for _, maxFlows := range []int{1, 7, 100, 1000, 5000} {
			t.Run(fmt.Sprintf("%s/max%d", name, maxFlows), func(t *testing.T) {
				r := xrand.New(uint64(maxFlows) * 7919)
				pool := 3 * maxFlows
				sh := newShard(microloopController, 16, maxFlows)
				m := &flowModel{max: maxFlows, windows: make(map[uint32]*dataplane.DedupWindow)}
				for step := 1; step <= 20000; step++ {
					flow := next(r, pool)
					got, want := sh.window(flow), m.window(flow)
					if g, w := got.AppendEntries(nil), want.AppendEntries(nil); !reflect.DeepEqual(g, w) {
						t.Fatalf("step %d, flow %d: window %v, model %v", step, flow, g, w)
					}
					stamp := []dataplane.DedupEntry{{Reporter: detect.SwitchID(flow), Hop: step}}
					got.Restore(stamp)
					want.Restore(stamp)
					if sh.flows.len() != len(m.windows) || sh.evictions.Load() != m.evictions {
						t.Fatalf("step %d: len %d evictions %d, model %d and %d", step, sh.flows.len(), sh.evictions.Load(), len(m.windows), m.evictions)
					}
					if absent := next(r, pool); m.windows[absent] == nil && sh.flows.find(absent) >= 0 {
						t.Fatalf("step %d: table finds flow %d, which the model does not hold", step, absent)
					}
					if step%997 == 0 || step == 20000 {
						var order []uint32
						sh.flows.each(func(sl *flowSlot) {
							order = append(order, sl.flow)
							if g, w := sl.w.AppendEntries(nil), m.windows[sl.flow].AppendEntries(nil); !reflect.DeepEqual(g, w) {
								t.Fatalf("step %d, slot of flow %d: %v, model %v", step, sl.flow, g, w)
							}
						})
						if !reflect.DeepEqual(order, m.order) {
							t.Fatalf("step %d: each order differs from first-seen order (%d vs %d flows)", step, len(order), len(m.order))
						}
					}
				}
				if maxFlows < 5000 && m.evictions == 0 {
					t.Fatalf("no reset in 20000 steps: the stream does not exercise eviction")
				}
			})
		}
	}
}

// probeStats returns the longest and the mean distance of a flow from
// its home cell in t's index.
func probeStats(t *flowTable) (longest int, mean float64) {
	mask := len(t.cells) - 1
	sum := 0
	for c, s := range t.slots {
		if s != 0 {
			d := (c - t.home(t.cells[c])) & mask
			longest = max(longest, d)
			sum += d
		}
	}
	return longest, float64(sum) / float64(t.len())
}

// TestFlowTableAdversarialKeys: one shard's flows all share a residue
// of the shard hash, and the scenarios' flow IDs are packed fields.
// Neither may cluster the index. Filled to DefaultMaxFlows, the index
// is checked at every size it passes through at its 3/4 load limit and
// at the end: linear probing with uniform hashing expects a mean
// distance of 1.5 at load 3/4, and a hash that keeps the shard residue
// (Mix32's low bits) lands above 2.
func TestFlowTableAdversarialKeys(t *testing.T) {
	keys := map[string]func(k uint64) uint32{
		"residue of 4 shards":  func(k uint64) uint32 { return sameResidueFlow(k, 4, 0) },
		"residue of 16 shards": func(k uint64) uint32 { return sameResidueFlow(k, 16, 5) },
		"scenario IDs":         scenarioFlow,
	}
	for name, flow := range keys {
		var ft flowTable
		for k := 0; k < DefaultMaxFlows; k++ {
			ft.add(flow(uint64(k)))
			if n := ft.len(); 4*(n+1) > 3*len(ft.cells) || n == DefaultMaxFlows {
				longest, mean := probeStats(&ft)
				if longest > 256 || mean > 2 {
					t.Errorf("%s: %d flows in %d cells: longest probe %d, mean %.2f (want <= 256 and <= 2)", name, n, len(ft.cells), longest, mean)
				}
			}
		}
		if got, want := len(ft.cells), 2*DefaultMaxFlows; got != want {
			t.Errorf("%s: index of %d cells for %d flows, want %d", name, got, DefaultMaxFlows, want)
		}
	}
}

// intWindow is the dedup window as it was before its fields narrowed to
// the wire's 32 bits: reporter and hop as int, same eviction rule.
type intWindow struct {
	n int
	e [8]struct{ reporter, hop int }
}

// deliver returns whether the report is admitted past dedup (window w
// hops) and records it as DeliverFlow does.
func (d *intWindow) deliver(reporter, hop, w int) bool {
	for i := 0; i < d.n; i++ {
		if d.e[i].reporter == reporter && hop-d.e[i].hop < w {
			return false
		}
	}
	slot := -1
	for i := 0; i < d.n; i++ {
		if d.e[i].reporter == reporter {
			slot = i
			break
		}
	}
	if slot < 0 {
		if d.n < len(d.e) {
			slot = d.n
			d.n++
		} else {
			slot = 0
			for i := 1; i < len(d.e); i++ {
				if d.e[i].hop < d.e[slot].hop {
					slot = i
				}
			}
		}
	}
	d.e[slot].reporter, d.e[slot].hop = reporter, hop
	return true
}

// TestWireDedupNearMaxHop: reports whose hops lie near both ends of the
// wire's 32-bit range go through the wire codec and a shard's dedup
// path, and every decision, and every window's final entries, must
// equal the int window's. Hops jump between the ends, so a narrowed
// window that did its arithmetic in 32 bits (10 - (2^32-1) wraps to 11)
// would accept reports the int window dedups.
func TestWireDedupNearMaxHop(t *testing.T) {
	cfg := dataplane.ControllerConfig{MaxEvents: 1 << 16, DedupWindow: 8}
	sh := newShard(cfg, 16, DefaultMaxFlows)
	models := make(map[uint32]*intWindow)
	r := xrand.New(20)
	var buf []byte
	for i := 0; i < 20000; i++ {
		hop := int(r.Uint64n(64))
		if r.Uint64n(2) == 0 {
			hop = math.MaxUint32 - hop
		}
		ev := dataplane.LoopEvent{
			Report: detect.Report{Reporter: detect.SwitchID(1 + r.Uint64n(12)), Hops: 3},
			Flow:   uint32(r.Uint64n(16)),
		}
		var err error
		if buf, err = AppendReport(buf[:0], uint64(i+1), ev, hop); err != nil {
			t.Fatal(err)
		}
		f, _, err := DecodeFrame(buf)
		if err != nil || f.Hop != hop {
			t.Fatalf("report %d: hop %d decoded as %d, %v", i, hop, f.Hop, err)
		}
		m := models[f.Event.Flow]
		if m == nil {
			m = new(intWindow)
			models[f.Event.Flow] = m
		}
		before := sh.ctrl.Stats().Deduped
		sh.ctrl.DeliverFlow(f.Event, sh.window(f.Event.Flow), f.Hop)
		got := sh.ctrl.Stats().Deduped == before
		if want := m.deliver(int(f.Event.Reporter), f.Hop, cfg.DedupWindow); got != want {
			t.Fatalf("report %d (flow %d, reporter %d, hop %d): admitted %v, int window %v", i, f.Event.Flow, f.Event.Reporter, hop, got, want)
		}
	}
	for flow, m := range models {
		var want []dataplane.DedupEntry
		for _, e := range m.e[:m.n] {
			want = append(want, dataplane.DedupEntry{Reporter: detect.SwitchID(e.reporter), Hop: e.hop})
		}
		if got := sh.window(flow).AppendEntries(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("flow %d: window %v, int window %v", flow, got, want)
		}
	}
	if st := sh.ctrl.Stats(); st.Deduped == 0 || st.Accepted == 0 {
		t.Fatalf("stream exercised one side only: %+v", st)
	}
}
