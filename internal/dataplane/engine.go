package dataplane

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// TrafficEngine drives many flows through a shared Network concurrently
// — the software counterpart of the line-rate traffic generators data
// plane papers evaluate against. The paper's P4/FPGA prototype is
// validated at hardware rates; the emulator makes the same per-hop-cost
// argument in software by keeping the hop loop allocation-free and its
// per-hop state worker-local:
//
//   - each worker owns a sendScratch, so every in-flight packet has its
//     own backing arrays (Switch.process rewrites telemetry in place via
//     AppendHeader(p.Telemetry[:0]) — sharing a buffer across packets
//     would corrupt headers) and its own detector state;
//   - switch counters and link traversals accumulate in per-worker
//     arrays, merged into the shared atomic counters when a worker
//     drains its batch, so a hop touches no shared cache line and the
//     counters are exact — equal to a single-threaded run — once
//     SendMany returns;
//   - the scratch (buffers, state, accumulators) is recycled across
//     SendMany calls, so a warm batch allocates almost nothing;
//   - the Controller remains the single shared sink, mutex-guarded.
//
// Flows are claimed from the batch by an atomic cursor, and results land
// at their flow's index, so the returned slice is in input order no
// matter how workers interleave.
type TrafficEngine struct {
	net     *Network
	workers int

	// free holds worker scratch between SendMany calls, accumulators
	// zeroed by drain. A plain guarded list rather than a sync.Pool, so
	// a warm engine never loses its buffers to a garbage collection.
	mu   sync.Mutex
	free []*sendScratch
}

// NewTrafficEngine returns an engine over n with the given worker count;
// workers <= 0 selects GOMAXPROCS.
func NewTrafficEngine(n *Network, workers int) *TrafficEngine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &TrafficEngine{net: n, workers: workers}
}

// takeScratch returns a worker scratch from the free list, or a new one.
func (e *TrafficEngine) takeScratch() *sendScratch {
	e.mu.Lock()
	defer e.mu.Unlock()
	if k := len(e.free); k > 0 {
		sc := e.free[k-1]
		e.free = e.free[:k-1]
		return sc
	}
	n := e.net
	return &sendScratch{
		st:      n.unroller.NewPacketState(),
		loads:   make([]uint64, len(n.links)),
		tallies: make([]tally, len(n.switches)),
	}
}

// returnScratch puts a drained worker scratch back on the free list.
func (e *TrafficEngine) returnScratch(sc *sendScratch) {
	e.mu.Lock()
	e.free = append(e.free, sc)
	e.mu.Unlock()
}

// Workers returns the engine's worker count.
func (e *TrafficEngine) Workers() int { return e.workers }

// Network returns the engine's underlying network.
func (e *TrafficEngine) Network() *Network { return e.net }

// flowErr is a worker's lowest-index failure: i is the flow's index.
type flowErr struct {
	i   int
	err error
}

// SendMany injects every flow and returns one summary per flow, in
// input order. Flows are independent packets, so any interleaving is
// valid; because each journey is deterministic, the summaries and the
// post-return network counters are identical to a single-threaded run.
// The returned error is the first failure in flow order (later flows
// still ran); failed flows have a zero Final but their partial hops are
// still counted, exactly as a failed Send counts them.
func (e *TrafficEngine) SendMany(flows []Flow) ([]TraceSummary, error) {
	out := make([]TraceSummary, len(flows))
	workers := min(e.workers, len(flows))
	// Each worker claims ascending indices, so its first failure is its
	// lowest-index one; the batch's first failure is the least of those.
	first := make([]flowErr, workers)
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	for w := range first {
		wg.Add(1)
		go func(fe *flowErr) {
			defer wg.Done()
			sc := e.takeScratch()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(flows) {
					break
				}
				var err error
				out[i], err = e.net.send(sc, flows[i], nil)
				if err != nil && fe.err == nil {
					fe.i, fe.err = i, err
				}
			}
			e.net.drain(sc)
			e.returnScratch(sc)
		}(&first[w])
	}
	wg.Wait()
	var err error
	at := len(flows)
	for _, fe := range first {
		if fe.err != nil && fe.i < at {
			at, err = fe.i, fe.err
		}
	}
	return out, err
}
