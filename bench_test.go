// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5). Each benchmark drives the same code path as the
// corresponding cmd/ tool but scales the run count with b.N, and reports
// the experiment's headline quantity as a custom metric:
//
//   - detection-time figures report "hops/X" (the paper's y-axis);
//   - false-positive figures report "fp/run";
//   - Table 4 reports ns/op for the full per-packet pipeline plus "Mpps";
//   - Table 5 reports "hops/X" per topology and "bits" for the
//     zero-false-positive header search.
//
// Run them all with: go test -bench=. -benchmem
package unroller_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/unroller/unroller/internal/baseline"
	"github.com/unroller/unroller/internal/cluster"
	"github.com/unroller/unroller/internal/collectorsvc"
	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
	"github.com/unroller/unroller/internal/netsim"
	"github.com/unroller/unroller/internal/sim"
	"github.com/unroller/unroller/internal/topology"
	"github.com/unroller/unroller/internal/xrand"
)

// benchDetection drives b.N simulated packets with the given shape and
// reports mean hops/X.
func benchDetection(b *testing.B, cfg core.Config, B, L int) {
	b.Helper()
	det := core.MustNew(cfg)
	rng := xrand.New(0xBE7C4)
	var totalRatio float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := sim.RandomWalk(B, L, rng)
		out := sim.Run(det, w, 40*w.X()+64)
		if !out.Detected {
			b.Fatalf("undetected loop at B=%d L=%d", B, L)
		}
		totalRatio += float64(out.Hops) / float64(w.X())
	}
	b.ReportMetric(totalRatio/float64(b.N), "hops/X")
}

// BenchmarkFigure2DetectionVsB — Figure 2: detection time for phase
// bases b ∈ {2, 4, 6} at B = 5 and representative loop lengths.
func BenchmarkFigure2DetectionVsB(b *testing.B) {
	for _, base := range []int{2, 4, 6} {
		for _, L := range []int{5, 20, 30} {
			b.Run(fmt.Sprintf("b=%d/L=%d", base, L), func(b *testing.B) {
				cfg := core.DefaultConfig()
				cfg.Base = base
				benchDetection(b, cfg, 5, L)
			})
		}
	}
}

// BenchmarkFigure3DetectionVsPrefix — Figure 3: detection time for
// pre-loop lengths B ∈ {0, 3, 7} at b = 4.
func BenchmarkFigure3DetectionVsPrefix(b *testing.B) {
	for _, B := range []int{0, 3, 7} {
		for _, L := range []int{5, 20, 30} {
			b.Run(fmt.Sprintf("B=%d/L=%d", B, L), func(b *testing.B) {
				benchDetection(b, core.DefaultConfig(), B, L)
			})
		}
	}
}

// BenchmarkFigure4ChunksHashes — Figure 4: (c, H) ∈ {(1,1), (2,2),
// (4,4)} at b = 4, B = 5.
func BenchmarkFigure4ChunksHashes(b *testing.B) {
	for _, ch := range []int{1, 2, 4} {
		for _, L := range []int{10, 25} {
			b.Run(fmt.Sprintf("c=H=%d/L=%d", ch, L), func(b *testing.B) {
				cfg := core.DefaultConfig()
				cfg.Chunks, cfg.Hashes = ch, ch
				cfg.HashIDs = ch > 1
				benchDetection(b, cfg, 5, L)
			})
		}
	}
}

// BenchmarkFigure5aVaryingChunks — Figure 5a: c sweep at H ∈ {1, 4}.
func BenchmarkFigure5aVaryingChunks(b *testing.B) {
	for _, c := range []int{1, 2, 4, 8} {
		for _, h := range []int{1, 4} {
			b.Run(fmt.Sprintf("c=%d/H=%d", c, h), func(b *testing.B) {
				cfg := core.DefaultConfig()
				cfg.Chunks, cfg.Hashes, cfg.HashIDs = c, h, true
				benchDetection(b, cfg, 5, 20)
			})
		}
	}
}

// BenchmarkFigure5bVaryingHashes — Figure 5b: H sweep at c ∈ {1, 4}.
func BenchmarkFigure5bVaryingHashes(b *testing.B) {
	for _, h := range []int{1, 2, 4, 10} {
		for _, c := range []int{1, 4} {
			b.Run(fmt.Sprintf("H=%d/c=%d", h, c), func(b *testing.B) {
				cfg := core.DefaultConfig()
				cfg.Chunks, cfg.Hashes, cfg.HashIDs = c, h, true
				benchDetection(b, cfg, 5, 20)
			})
		}
	}
}

// benchFalsePositive drives b.N loop-free 20-hop paths and reports the
// empirical false-positive rate.
func benchFalsePositive(b *testing.B, cfg core.Config) {
	b.Helper()
	det := core.MustNew(cfg)
	rng := xrand.New(0xFA15E)
	fps := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := sim.RandomWalk(20, 0, rng)
		if sim.Run(det, w, 20).Detected {
			fps++
		}
	}
	b.ReportMetric(float64(fps)/float64(b.N), "fp/run")
}

// BenchmarkFigure6aFalsePositives — Figure 6a: FP rate vs z for slot
// counts (c, H) ∈ {(1,1), (4,4)}.
func BenchmarkFigure6aFalsePositives(b *testing.B) {
	for _, z := range []uint{6, 10, 14} {
		for _, ch := range []int{1, 4} {
			b.Run(fmt.Sprintf("z=%d/c=H=%d", z, ch), func(b *testing.B) {
				cfg := core.DefaultConfig()
				cfg.ZBits, cfg.Chunks, cfg.Hashes, cfg.HashIDs = z, ch, ch, true
				benchFalsePositive(b, cfg)
			})
		}
	}
}

// BenchmarkFigure6bThreshold — Figure 6b: FP rate vs z for Th ∈ {1, 2, 4}.
func BenchmarkFigure6bThreshold(b *testing.B) {
	for _, z := range []uint{6, 10} {
		for _, th := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("z=%d/Th=%d", z, th), func(b *testing.B) {
				cfg := core.DefaultConfig()
				cfg.ZBits, cfg.Threshold, cfg.HashIDs = z, th, true
				benchFalsePositive(b, cfg)
			})
		}
	}
}

// BenchmarkFigure7ThresholdCost — Figure 7: detection-time cost of the
// counting technique, Th ∈ {1, 2, 4} at z = 32.
func BenchmarkFigure7ThresholdCost(b *testing.B) {
	for _, th := range []int{1, 2, 4} {
		for _, L := range []int{10, 25} {
			b.Run(fmt.Sprintf("Th=%d/L=%d", th, L), func(b *testing.B) {
				cfg := core.DefaultConfig()
				cfg.Threshold = th
				benchDetection(b, cfg, 5, L)
			})
		}
	}
}

// BenchmarkTable4Pipeline — Table 4 substitute: the full per-packet
// switch pipeline (parse → Unroller control block → deparse → FIB) for
// the representative configurations; ns/op is the per-packet cost, and
// the Mpps metric is the single-core software counterpart of the paper's
// ≈190–225 Mpps hardware rates.
func BenchmarkTable4Pipeline(b *testing.B) {
	configs := map[string]core.Config{
		"z32-single": core.DefaultConfig(),
		"z16-hashed": func() core.Config {
			c := core.DefaultConfig()
			c.ZBits, c.HashIDs = 16, true
			return c
		}(),
		"c2H2-z16": func() core.Config {
			c := core.DefaultConfig()
			c.Chunks, c.Hashes, c.ZBits, c.HashIDs = 2, 2, 16, true
			return c
		}(),
		"z7-Th4": func() core.Config {
			c := core.DefaultConfig()
			c.ZBits, c.Threshold, c.HashIDs = 7, 4, true
			return c
		}(),
	}
	for name, cfg := range configs {
		b.Run(name, func(b *testing.B) {
			g, err := topology.Ring(16)
			if err != nil {
				b.Fatal(err)
			}
			assign := topology.NewAssignment(g, xrand.New(1))
			n, err := dataplane.NewNetwork(g, assign, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := n.InstallShortestPaths(8); err != nil {
				b.Fatal(err)
			}
			tel, err := n.Unroller().NewPacketState().AppendHeader(nil)
			if err != nil {
				b.Fatal(err)
			}
			pkt := dataplane.Packet{
				TTL: 255, Flow: 1,
				Src: assign.ID(0), Dst: assign.ID(8),
				Telemetry: tel, Payload: make([]byte, 46),
			}
			wire, err := pkt.Marshal()
			if err != nil {
				b.Fatal(err)
			}
			sw := n.Switch(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var p dataplane.Packet
				if err := p.Unmarshal(wire); err != nil {
					b.Fatal(err)
				}
				if _, err := sw.Process(&p); err != nil {
					b.Fatal(err)
				}
			}
			nsPerPkt := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(1e3/nsPerPkt, "Mpps")
		})
	}
}

// BenchmarkTable5Topologies — Table 5: per-topology detection time
// (hops/X metric) on sampled loop scenarios, plus a one-off header-bits
// search reported via the "bits" metric on the first iteration batch.
func BenchmarkTable5Topologies(b *testing.B) {
	for _, spec := range topology.TableFiveSpecs() {
		b.Run(spec.Name, func(b *testing.B) {
			g, err := topology.ZooGraph(spec)
			if err != nil {
				b.Fatal(err)
			}
			det := core.MustNew(core.DefaultConfig())
			rng := xrand.New(0x7AB1E5)
			var totalRatio float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc, err := sim.SampleScenario(g, rng)
				if err != nil {
					b.Fatal(err)
				}
				w := sc.Walk()
				out := sim.Run(det, w, 40*w.X()+64)
				if !out.Detected {
					b.Fatalf("%s: loop missed", spec.Name)
				}
				totalRatio += float64(out.Hops) / float64(w.X())
			}
			b.ReportMetric(totalRatio/float64(b.N), "hops/X")
		})
	}
}

// BenchmarkTable5MinBits — the zero-false-positive header search behind
// Table 5's bit columns (Unroller z-search vs Bloom m-search), on the
// smallest topology so the benchmark stays affordable.
func BenchmarkTable5MinBits(b *testing.B) {
	spec := topology.TableFiveSpecs()[0] // Stanford
	g, err := topology.ZooGraph(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("unroller-z-search", func(b *testing.B) {
		var bits int
		for i := 0; i < b.N; i++ {
			res, err := sim.MinUnrollerBits(g, core.DefaultConfig(), 200, uint64(i))
			if err != nil {
				b.Fatal(err)
			}
			bits = res.Bits
		}
		b.ReportMetric(float64(bits), "bits")
	})
	b.Run("bloom-m-search", func(b *testing.B) {
		entries, err := sim.ExpectedEntries(g, 100, 1)
		if err != nil {
			b.Fatal(err)
		}
		var bits int
		for i := 0; i < b.N; i++ {
			res, err := sim.MinBloomBits(g, entries, 200, uint64(i))
			if err != nil {
				b.Fatal(err)
			}
			bits = res.Bits
		}
		b.ReportMetric(float64(bits), "bits")
	})
}

// BenchmarkAblationSchedule — DESIGN.md ablation: analysis vs hardware
// phase schedule at b = 4 (the hardware schedule trades detection speed
// for a bitwise boundary check).
func BenchmarkAblationSchedule(b *testing.B) {
	for _, k := range []core.ScheduleKind{core.ScheduleAnalysis, core.ScheduleHardware} {
		b.Run(k.String(), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Schedule = k
			benchDetection(b, cfg, 5, 20)
		})
	}
}

// BenchmarkAblationFractionalBase — DESIGN.md ablation: integer bases
// versus the lookup-table fractional optimum b = (5+√17)/2 ≈ 4.56 (the
// §3 "optimize the ratio further" remark). The fractional base trades a
// slightly slower average case for the best worst-case guarantee.
func BenchmarkAblationFractionalBase(b *testing.B) {
	configs := map[string]core.Config{
		"b=3-int": func() core.Config {
			c := core.DefaultConfig()
			c.Base = 3
			return c
		}(),
		"b=4-int": core.DefaultConfig(),
		"b=4.56-lookup": func() core.Config {
			c := core.DefaultConfig()
			c.Schedule = core.ScheduleLookup
			c.PhaseTable = core.FractionalPhaseTable(core.OptimalWorstCaseBase(), 32)
			return c
		}(),
	}
	for name, cfg := range configs {
		b.Run(name, func(b *testing.B) {
			benchDetection(b, cfg, 5, 20)
		})
	}
}

// BenchmarkAblationTTLHopCount — DESIGN.md ablation: footnote 3's
// TTL-derived hop counter removes 8 header bits; this measures its cost
// in pipeline time (an extra subtraction, so ~none).
func BenchmarkAblationTTLHopCount(b *testing.B) {
	for name, ttl := range map[string]bool{"explicit-xcnt": false, "ttl-derived": true} {
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.TTLHopCount = ttl
			g, err := topology.Ring(16)
			if err != nil {
				b.Fatal(err)
			}
			assign := topology.NewAssignment(g, xrand.New(1))
			n, err := dataplane.NewNetwork(g, assign, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := n.InstallShortestPaths(8); err != nil {
				b.Fatal(err)
			}
			tel, err := n.Unroller().NewPacketState().AppendHeader(nil)
			if err != nil {
				b.Fatal(err)
			}
			pkt := dataplane.Packet{
				TTL: dataplane.InitialTTL - 1, Flow: 1,
				Src: assign.ID(0), Dst: assign.ID(8),
				Telemetry: tel, Payload: make([]byte, 46),
			}
			wire, err := pkt.Marshal()
			if err != nil {
				b.Fatal(err)
			}
			sw := n.Switch(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var p dataplane.Packet
				if err := p.Unmarshal(wire); err != nil {
					b.Fatal(err)
				}
				if _, err := sw.Process(&p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cfg.HeaderBits()), "hdr-bits")
		})
	}
}

// BenchmarkAblationBaselines — the same workload across every real-time
// detector, to compare detection speed at equal footing (Table 1's
// real-time rows).
func BenchmarkAblationBaselines(b *testing.B) {
	bloom, err := baseline.NewBloom(608, 6, 1)
	if err != nil {
		b.Fatal(err)
	}
	for name, det := range map[string]detect.Detector{
		"unroller-b4": core.MustNew(core.DefaultConfig()),
		"bloom-608b":  bloom,
		"int-full":    baseline.INT{},
	} {
		b.Run(name, func(b *testing.B) {
			rng := xrand.New(0xAB1A7E)
			var totalRatio float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := sim.RandomWalk(5, 20, rng)
				out := sim.Run(det, w, 40*w.X()+64)
				if !out.Detected {
					b.Fatal("missed loop")
				}
				totalRatio += float64(out.Hops) / float64(w.X())
			}
			b.ReportMetric(totalRatio/float64(b.N), "hops/X")
		})
	}
}

// BenchmarkLoopCollateral — the event-driven simulation behind
// experiments.Collateral: a background flow shares one link with a
// loop; the metric is the background flow's mean latency (ms) with and
// without in-band detection. The intro's bandwidth-amplification claim
// as a benchmark.
func BenchmarkLoopCollateral(b *testing.B) {
	for name, telemetry := range map[string]bool{"blind": false, "unroller": true} {
		b.Run(name, func(b *testing.B) {
			var lastLatency float64
			for i := 0; i < b.N; i++ {
				g := topology.NewGraph("collateral", 6)
				for j := 0; j < 6; j++ {
					g.AddNode("")
				}
				for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {1, 4}, {2, 4}, {3, 5}} {
					if err := g.AddEdge(e[0], e[1]); err != nil {
						b.Fatal(err)
					}
				}
				net, err := dataplane.NewNetwork(g, topology.NewAssignment(g, xrand.New(7)), core.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				for _, dst := range []int{3, 5} {
					if err := net.InstallShortestPaths(dst); err != nil {
						b.Fatal(err)
					}
				}
				net.SetLoopPolicy(dataplane.ActionDrop)
				if err := net.InjectLoop(5, topology.Cycle{1, 2, 4}); err != nil {
					b.Fatal(err)
				}
				params := netsim.DefaultLinkParams()
				params.BandwidthBps = 100e6
				params.QueuePackets = 32
				s, err := netsim.New(net, params)
				if err != nil {
					b.Fatal(err)
				}
				const horizon = 0.1
				if err := s.AddFlow(netsim.Flow{ID: 1, Src: 0, Dst: 3, PacketBytes: 984, Interval: 1e-3, Telemetry: telemetry}, horizon); err != nil {
					b.Fatal(err)
				}
				if err := s.AddFlow(netsim.Flow{ID: 2, Src: 0, Dst: 5, PacketBytes: 984, Interval: 2e-3, Telemetry: telemetry}, horizon); err != nil {
					b.Fatal(err)
				}
				s.Run(horizon)
				fs, _ := s.FlowStats(1)
				lastLatency = fs.Latency.Mean() * 1e3
			}
			b.ReportMetric(lastLatency, "bg-ms")
		})
	}
}

// BenchmarkNetworkSend — the emulator's full per-packet journey (edge
// injection → per-hop marshal/parse/pipeline → delivery) on a 16-ring,
// reporting ns/hop and allocs/hop. The hop loop ping-pongs two scratch
// buffers instead of allocating a frame and a Packet per hop, so
// allocs/hop must stay well below the seed's ~3.
func BenchmarkNetworkSend(b *testing.B) {
	g, err := topology.Ring(16)
	if err != nil {
		b.Fatal(err)
	}
	assign := topology.NewAssignment(g, xrand.New(1))
	n, err := dataplane.NewNetwork(g, assign, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := n.InstallShortestPaths(8); err != nil {
		b.Fatal(err)
	}
	tr, err := n.Send(0, 8, 0, 255, true)
	if err != nil {
		b.Fatal(err)
	}
	if tr.Final != dataplane.Deliver {
		b.Fatalf("warm-up packet %v", tr.Final)
	}
	hops := len(tr.Hops)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.SendFlow(dataplane.Flow{Src: 0, Dst: 8, ID: uint32(i), TTL: 255, Telemetry: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hops), "ns/hop")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(uint64(b.N)*uint64(hops)), "allocs/hop")
}

// BenchmarkTrafficEngine — the concurrent traffic engine pushing a
// batch of flows across many destinations on a 5×5 torus, swept over
// worker counts up to GOMAXPROCS (more workers than cores measures the
// scheduler, not the engine); pkts/s is the headline and should scale
// with workers until the memory bus saturates.
func BenchmarkTrafficEngine(b *testing.B) {
	for workers := 1; workers <= runtime.GOMAXPROCS(0); workers *= 2 {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			g, err := topology.Torus(5, 5)
			if err != nil {
				b.Fatal(err)
			}
			assign := topology.NewAssignment(g, xrand.New(1))
			n, err := dataplane.NewNetwork(g, assign, core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			for dst := 0; dst < g.N(); dst++ {
				if err := n.InstallShortestPaths(dst); err != nil {
					b.Fatal(err)
				}
			}
			rng := xrand.New(0xF10)
			flows := make([]dataplane.Flow, 512)
			for i := range flows {
				src, dst := g.RandomPair(rng)
				flows[i] = dataplane.Flow{Src: src, Dst: dst, ID: uint32(i), TTL: 255, Telemetry: true}
			}
			eng := dataplane.NewTrafficEngine(n, workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.SendMany(flows); err != nil {
					b.Fatal(err)
				}
			}
			pktsPerOp := float64(len(flows))
			b.ReportMetric(pktsPerOp*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

// BenchmarkHeaderCodec — the wire codec alone (encode+decode), the
// marginal cost Unroller adds to a software switch's parser.
func BenchmarkHeaderCodec(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Chunks, cfg.Hashes, cfg.ZBits, cfg.HashIDs = 2, 2, 16, true
	u := core.MustNew(cfg)
	st := u.NewPacketState()
	st.Visit(1)
	st.Visit(2)
	buf, err := st.AppendHeader(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := u.DecodeHeader(buf)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dec.AppendHeader(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectorIngest — the collector service end to end over
// loopback: a client streaming loop reports through the framed TCP
// protocol into a sharded collectord, timed from first enqueue to the
// last acknowledgement. reports/s is the headline (the rate one switch
// connection can sustain); ns/op and allocs/op are per report.
func BenchmarkCollectorIngest(b *testing.B)          { benchCollectorIngest(b, false) }
func BenchmarkCollectorIngestJournaled(b *testing.B) { benchCollectorIngest(b, true) }

func benchCollectorIngest(b *testing.B, journaled bool) {
	cfg := collectorsvc.ServerConfig{
		Shards:     4,
		QueueDepth: 1 << 14,
		Controller: dataplane.ControllerConfig{MaxEvents: 1024, DedupWindow: 8},
	}
	var srv *collectorsvc.Server
	if journaled {
		// The journaled variant pays the write-ahead commit before every
		// ack (default fsync-interval policy): the delta against the
		// plain benchmark is the full durability overhead.
		j, err := collectorsvc.OpenJournal(collectorsvc.JournalConfig{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		defer j.Close()
		cfg.Journal = j
		srv, _, err = collectorsvc.NewRecoveredServer(cfg)
		if err != nil {
			b.Fatal(err)
		}
	} else {
		srv = collectorsvc.NewServer(cfg)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown()
	const buffer = 1 << 14
	c, err := collectorsvc.NewClient(collectorsvc.ClientConfig{
		Addr:   addr.String(),
		ID:     1,
		Buffer: buffer,
		Window: 1 << 12,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ev := dataplane.LoopEvent{
		Report:  detect.Report{Reporter: 0xBEEF, Hops: 12},
		Node:    3,
		Members: []detect.SwitchID{1, 2, 3, 4},
	}
	drained := func(st collectorsvc.ClientStats) bool { return st.Acked+st.Dropped == st.Enqueued }
	// The wait loops sleep instead of spinning on runtime.Gosched():
	// on GOMAXPROCS=1 a Gosched spin starves the netpoller (goroutines
	// unblocked by socket readiness are only injected by sysmon every
	// ~10ms), which would measure the scheduler's starvation floor
	// instead of the ingest pipeline.
	wait := func() { time.Sleep(20 * time.Microsecond) }
	// Warm up the connection so the timed region measures streaming, not
	// the dial.
	c.Send(ev, 12)
	for !drained(c.Stats()) {
		wait()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Pace the producer to the pipe: the sender never blocks, so an
		// unpaced loop would just overflow the buffer and measure drops.
		for c.Pending() >= buffer-1 {
			wait()
		}
		ev.Flow = uint32(i)
		c.Send(ev, 12)
	}
	for !drained(c.Stats()) {
		wait()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reports/s")
	if st := c.Stats(); st.Dropped != 0 {
		b.Fatalf("paced run still dropped %d reports (stats %+v)", st.Dropped, st)
	}
}

// BenchmarkClusterIngest — the collectord cluster end to end over
// loopback: three nodes joined by the membership layer, a
// cluster-routing client hashing each report to its partition's owner.
// reports/s is the headline; the delta against BenchmarkCollectorIngest
// is the cost of partition routing spread over three ingest servers.
func BenchmarkClusterIngest(b *testing.B) {
	const seed = 42
	var peers []string
	nodes := make([]*cluster.Node, 3)
	for i := range nodes {
		n, err := cluster.StartNode(cluster.NodeConfig{
			ID:    fmt.Sprintf("n%d", i+1),
			Peers: append([]string(nil), peers...),
			Seed:  seed,
			Server: collectorsvc.ServerConfig{
				Shards:     2,
				QueueDepth: 1 << 14,
				Controller: dataplane.ControllerConfig{MaxEvents: 1024, DedupWindow: 8},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer n.Stop()
		nodes[i] = n
		peers = []string{nodes[0].ClusterAddr()}
	}
	seeds := []string{nodes[0].ClusterAddr(), nodes[1].ClusterAddr(), nodes[2].ClusterAddr()}
	const buffer = 1 << 14
	c, err := cluster.NewClient(cluster.ClientConfig{
		Seeds:  seeds,
		ID:     1,
		Seed:   seed,
		Buffer: buffer,
		Window: 1 << 12,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ev := dataplane.LoopEvent{
		Report:  detect.Report{Reporter: 0xBEEF, Hops: 12},
		Node:    3,
		Members: []detect.SwitchID{1, 2, 3, 4},
	}
	drained := func(st cluster.ClientStats) bool { return st.Acked+st.Dropped == st.Enqueued }
	// Sleep, not Gosched, for the same netpoller-starvation reason as
	// benchCollectorIngest.
	wait := func() { time.Sleep(20 * time.Microsecond) }
	c.Send(ev, 12)
	for !drained(c.Stats()) {
		wait()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The buffer bound is per partition sender; pacing on the summed
		// backlog keeps every sender inside its own buffer.
		for c.Pending() >= buffer-1 {
			wait()
		}
		ev.Flow = uint32(i)
		c.Send(ev, 12)
	}
	for !drained(c.Stats()) {
		wait()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reports/s")
	if st := c.Stats(); st.Dropped != 0 {
		b.Fatalf("paced run still dropped %d reports (stats %+v)", st.Dropped, st)
	}
}

// BenchmarkMonteCarloEngine — raw simulator throughput (walks/s), the
// number that determines how long a 3M-run paper-budget experiment takes.
func BenchmarkMonteCarloEngine(b *testing.B) {
	det := core.MustNew(core.DefaultConfig())
	rng := xrand.New(0x5EED)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := sim.RandomWalk(5, 20, rng)
		if !sim.Run(det, w, 2048).Detected {
			b.Fatal("missed")
		}
	}
}
