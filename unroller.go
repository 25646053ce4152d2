// Package unroller is the public API of this repository: a Go
// implementation of Unroller, the data-plane routing-loop detection
// algorithm from "Detecting Routing Loops in the Data Plane" (Kučera,
// Ben Basat, Kuka, Antichi, Yu, Mitzenmacher — CoNEXT 2020), together
// with the baselines it is evaluated against, a Monte Carlo evaluation
// engine, a topology library, and a byte-level data-plane emulator.
//
// # The algorithm in one paragraph
//
// Each packet carries a hop counter, one or more (optionally hashed,
// optionally truncated) switch identifiers, and an optional match
// counter. The packet's journey is split into phases whose lengths grow
// geometrically (phase i lasts b^i hops); at each phase boundary the
// stored identifiers reset, and within a phase each slot tracks the
// minimum identifier seen in its window. A switch that finds its own
// identifier already stored on an incoming packet reports a routing loop
// — in the data plane, while the packet is in flight. Detection is
// guaranteed within 4.67·X hops for b = 4 (X = B + L, the trivial lower
// bound), within 3·X on average for b = 3, with a constant per-packet
// header independent of path length.
//
// # Quick start
//
//	det := unroller.MustNew(unroller.DefaultConfig())
//	st := det.NewState()
//	for _, sw := range packetPath {
//		if st.Visit(sw) == unroller.Loop {
//			// this switch just reported a routing loop
//		}
//	}
//
// # Concurrency
//
// A Detector is immutable after construction and safe to share across
// any number of goroutines; a PacketState belongs to one packet and is
// not safe for concurrent use. The intended pattern is one shared
// Detector and a fresh NewState per packet — see the contract on
// core.Unroller and the -race regression test
// TestConcurrentDetectorSharedAcrossGoroutines in internal/core.
//
// See the Examples in example_test.go for runnable scenarios and cmd/
// for the experiment drivers that regenerate every table and figure of the paper.
package unroller

import (
	"github.com/unroller/unroller/internal/baseline"
	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
	"github.com/unroller/unroller/internal/routing"
	"github.com/unroller/unroller/internal/sim"
	"github.com/unroller/unroller/internal/topology"
	"github.com/unroller/unroller/internal/xrand"
)

// Core algorithm types.
type (
	// Config selects an Unroller variant; see DefaultConfig.
	Config = core.Config
	// Detector is the immutable algorithm object; create per-packet
	// states with NewState.
	Detector = core.Unroller
	// PacketState is one packet's in-band detection state, with wire
	// encode/decode.
	PacketState = core.State
	// ScheduleKind selects how phase boundaries are computed.
	ScheduleKind = core.ScheduleKind
)

// Schedule kinds.
const (
	// ScheduleAnalysis: phase i lasts exactly b^i hops (the paper's
	// analysis, §3).
	ScheduleAnalysis = core.ScheduleAnalysis
	// ScheduleHardware: reset when the hop counter is a power of b
	// (the P4/FPGA implementation, §4).
	ScheduleHardware = core.ScheduleHardware
	// ScheduleLookup: phase lengths from Config.PhaseTable, enabling
	// fractional bases (§4's lookup-table mechanism).
	ScheduleLookup = core.ScheduleLookup
)

// FractionalPhaseTable builds a Config.PhaseTable for a real-valued
// phase base; pair with ScheduleLookup.
func FractionalPhaseTable(base float64, phases int) []uint64 {
	return core.FractionalPhaseTable(base, phases)
}

// OptimalWorstCaseBase is the real base minimising the worst-case
// detection factor: (5+√17)/2 ≈ 4.56, beating the integer optimum's
// 4.67.
func OptimalWorstCaseBase() float64 { return core.OptimalWorstCaseBase() }

// Detection contract shared with the baselines.
type (
	// SwitchID identifies a switch (32 bits, as in the paper).
	SwitchID = detect.SwitchID
	// Verdict is the per-hop outcome.
	Verdict = detect.Verdict
	// Report describes a detected loop.
	Report = detect.Report
	// AnyDetector is the interface satisfied by Unroller and every
	// baseline; use it to write algorithm-generic tooling.
	AnyDetector = detect.Detector
)

// Verdicts.
const (
	// Continue: no loop at this hop.
	Continue = detect.Continue
	// Loop: the current switch reports a routing loop.
	Loop = detect.Loop
)

// DefaultConfig returns the paper's default evaluation configuration:
// b = 4, a single uncompressed identifier, threshold 1.
func DefaultConfig() Config { return core.DefaultConfig() }

// New builds a detector, validating the configuration.
func New(cfg Config) (*Detector, error) { return core.New(cfg) }

// MustNew is New for statically correct configurations.
func MustNew(cfg Config) *Detector { return core.MustNew(cfg) }

// WorstCaseBound returns the Theorem 1 guarantee: the maximum number of
// hops before a loop of L switches behind B pre-loop hops is reported,
// for phase base b.
func WorstCaseBound(b, B, L int) int { return core.WorstCaseBound(b, B, L) }

// Simulation engine.
type (
	// Walk is a packet trajectory: B pre-loop switches then an
	// L-switch loop.
	Walk = sim.Walk
	// MCConfig shapes a Monte Carlo batch.
	MCConfig = sim.MCConfig
	// MCResult aggregates a batch.
	MCResult = sim.MCResult
	// Outcome describes a single simulated packet.
	Outcome = sim.Outcome
)

// RandomWalk draws a walk with B pre-loop hops and an L-switch loop with
// distinct uniform identifiers, from a seeded generator.
func RandomWalk(B, L int, seed uint64) Walk {
	return sim.RandomWalk(B, L, xrand.New(seed))
}

// Simulate drives one fresh packet from det over w for at most maxHops.
func Simulate(det AnyDetector, w Walk, maxHops int) Outcome { return sim.Run(det, w, maxHops) }

// MonteCarlo runs cfg.Runs independent simulated packets with walk shape
// (B, L) and aggregates detection times.
func MonteCarlo(det AnyDetector, B, L int, cfg MCConfig) MCResult {
	return sim.MonteCarlo(sim.Fixed(det), B, L, cfg)
}

// Topologies.
type (
	// Graph is an undirected network topology.
	Graph = topology.Graph
	// Assignment maps topology nodes to switch identifiers.
	Assignment = topology.Assignment
	// Cycle is a simple cycle (a potential forwarding loop).
	Cycle = topology.Cycle
)

// FatTree builds the k-ary fat-tree switch fabric.
func FatTree(k int) (*Graph, error) { return topology.FatTree(k) }

// LoadGraphML parses an Internet Topology Zoo GraphML file.
func LoadGraphML(path string) (*Graph, error) { return topology.LoadGraphML(path) }

// NewAssignment draws random unique switch identifiers for g.
func NewAssignment(g *Graph, seed uint64) *Assignment {
	return topology.NewAssignment(g, xrand.New(seed))
}

// Baselines.
type (
	// BloomDetector is the packet-carried Bloom filter baseline.
	BloomDetector = baseline.Bloom
	// INTDetector is the full-path-encoding baseline.
	INTDetector = baseline.INT
	// PathDumpDetector is the two-VLAN-tag baseline for layered
	// fabrics.
	PathDumpDetector = baseline.PathDump
)

// NewBloom builds the Bloom baseline with an m-bit filter and k hashes.
func NewBloom(mBits, kHash int, seed uint64) (*BloomDetector, error) {
	return baseline.NewBloom(mBits, kHash, seed)
}

// Data plane emulation.
type (
	// Network is the emulated data plane.
	Network = dataplane.Network
	// Packet is the emulator's wire frame.
	Packet = dataplane.Packet
	// Trace is one packet's emulated journey.
	Trace = dataplane.Trace
)

// NewNetwork builds an emulated network over g running cfg on every
// switch.
func NewNetwork(g *Graph, assign *Assignment, cfg Config) (*Network, error) {
	return dataplane.NewNetwork(g, assign, cfg)
}

// LoopAction selects a switch's reaction to a detected loop.
type LoopAction = dataplane.LoopAction

// Loop reactions.
const (
	// ActionDrop: report and discard (§4).
	ActionDrop = dataplane.ActionDrop
	// ActionReroute: deflect to a backup port (§6).
	ActionReroute = dataplane.ActionReroute
	// ActionCollect: one recording lap, then report the full loop
	// membership (§3.5).
	ActionCollect = dataplane.ActionCollect
)

// RoutingProtocol is the distance-vector control plane used to produce
// authentic transient loops (count-to-infinity) for the emulator.
type RoutingProtocol = routing.Protocol

// NewRoutingProtocol initialises distance-vector routing over g with the
// given metric cap and split-horizon setting.
func NewRoutingProtocol(g *Graph, infinity int, splitHorizon bool) (*RoutingProtocol, error) {
	return routing.New(g, infinity, splitHorizon)
}
