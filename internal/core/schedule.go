// Package core implements Unroller, the phase-based routing-loop detection
// algorithm of "Detecting Routing Loops in the Data Plane" (CoNEXT 2020).
//
// A packet carries a hop counter, a small matrix of (hashed) switch
// identifiers, and an optional threshold counter. The packet's journey is
// divided into phases whose lengths grow geometrically with base b; at
// phase boundaries the stored identifiers reset. Within a phase each slot
// tracks the minimum identifier seen in its window. A switch that observes
// its own identifier already stored reports a routing loop. Because some
// phase eventually both starts inside the loop and is long enough to wrap
// it twice, detection is guaranteed within O(X) hops, X = B+L being the
// trivial lower bound (B hops to reach the loop, L to close it).
package core

import (
	"fmt"
	"math/bits"
)

// ScheduleKind selects how phase boundaries are derived from the hop
// counter.
type ScheduleKind uint8

const (
	// ScheduleAnalysis is the schedule used by the paper's analysis
	// (§3): phase i lasts exactly b^i hops, so boundaries fall at
	// cumulative sums 1, 1+b, 1+b+b², …
	ScheduleAnalysis ScheduleKind = iota
	// ScheduleHardware is the schedule of the P4/FPGA implementation
	// (§4): the identifier resets whenever the hop counter equals a
	// power of b, so phase i spans hops [b^i, b^(i+1)) and lasts
	// b^i·(b−1) hops. For b ∈ {2, 4} the boundary test is a bitwise
	// check, which is why hardware prefers it. For b = 2 the two
	// schedules coincide.
	ScheduleHardware
	// ScheduleLookup takes phase lengths from Config.PhaseTable — the
	// lookup-table mechanism of §4 for bases that are not natively
	// computable in hardware, including the fractional bases that
	// optimise the worst-case ratio below 4.67 (see
	// FractionalPhaseTable and OptimalWorstCaseBase). Past the table's
	// end, lengths keep growing by the ratio of its last two entries.
	ScheduleLookup
)

// String names the schedule for logs and CLI flags.
func (k ScheduleKind) String() string {
	switch k {
	case ScheduleAnalysis:
		return "analysis"
	case ScheduleHardware:
		return "hardware"
	case ScheduleLookup:
		return "lookup"
	default:
		return fmt.Sprintf("ScheduleKind(%d)", uint8(k))
	}
}

// maxHop is a saturation point for phase arithmetic. Phase lengths grow
// geometrically, so internal counters are capped to avoid uint64 overflow
// on adversarial inputs; the cap is far beyond any path a packet survives.
const maxHop = uint64(1) << 62

// phase describes one phase of a schedule: its first hop (1-based), its
// length in hops, and its ordinal index.
type phase struct {
	index int
	start uint64 // hop number of the phase's first hop
	len   uint64 // number of hops in the phase
}

// next returns the phase following p under configuration cfg.
func (p phase) next(cfg *Config) phase {
	n := phase{index: p.index + 1, start: p.start + p.len}
	switch cfg.Schedule {
	case ScheduleAnalysis, ScheduleHardware:
		n.len = satMul(p.len, uint64(cfg.Base))
	case ScheduleLookup:
		t := cfg.PhaseTable
		if n.index < len(t) {
			n.len = t[n.index]
		} else {
			// Continue the table's tail growth ratio, at least
			// doubling so phases keep expanding.
			last, prev := t[len(t)-1], t[len(t)-2]
			ratio := (last + prev - 1) / prev
			if ratio < 2 {
				ratio = 2
			}
			n.len = satMul(p.len, ratio)
		}
	default:
		panic("core: unknown schedule kind")
	}
	return n
}

// firstPhase returns phase 0 under configuration cfg.
func firstPhase(cfg *Config) phase {
	switch cfg.Schedule {
	case ScheduleAnalysis:
		// Phase 0 lasts b^0 = 1 hop starting at hop 1.
		return phase{index: 0, start: 1, len: 1}
	case ScheduleHardware:
		// Resets at hops 1, b, b², …: phase 0 spans [1, b).
		return phase{index: 0, start: 1, len: uint64(cfg.Base) - 1}
	case ScheduleLookup:
		return phase{index: 0, start: 1, len: cfg.PhaseTable[0]}
	default:
		panic("core: unknown schedule kind")
	}
}

// phaseAt returns the phase containing hop x (1-based) under cfg by
// walking the schedule from phase 0. New builds the Unroller's phase
// lookup table with it: a decoded header carries only the hop counter
// (Table 3 of the paper), and the P4 implementation derives phase
// membership from Xcnt with exactly such a table.
func phaseAt(x uint64, cfg *Config) phase {
	if x == 0 {
		panic("core: phaseAt called before the first hop")
	}
	p := firstPhase(cfg)
	for x >= p.start+p.len {
		p = p.next(cfg)
	}
	return p
}

// satMul multiplies with saturation at maxHop.
func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > maxHop/b {
		return maxHop
	}
	return a * b
}

// chunkIndex returns which of c chunks the offset-th hop of a phase of
// length plen belongs to, together with whether this hop is the first hop
// of that chunk's window. Chunk j covers offsets
// [⌈plen·j/c⌉, ⌈plen·(j+1)/c⌉); when plen < c some windows are
// empty and their slots simply keep the previous phase's value.
func chunkIndex(offset, plen uint64, c int) (idx int, first bool) {
	if c == 1 {
		return 0, offset == 0
	}
	cur := int(mulDiv(offset, uint64(c), plen))
	if offset == 0 {
		return cur, true
	}
	prev := int(mulDiv(offset-1, uint64(c), plen))
	return cur, cur != prev
}

// mulDiv computes a·b/d without intermediate overflow. The quotient always
// fits: callers guarantee a < d, so a·b/d < b.
func mulDiv(a, b, d uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	q, _ := bits.Div64(hi, lo, d)
	return q
}

// PhaseStartLUT returns the 256-entry lookup-table register of the P4
// implementation (§4): t[x] reports whether hop counter value x begins a
// new phase, so targets where b is not a power of two avoid per-packet
// power computations. It is rendered from the phase table the header
// decoder reads, so the two cannot disagree. Index 0 is unused (hops are
// 1-based).
func (u *Unroller) PhaseStartLUT() []bool {
	t := make([]bool, len(u.phases))
	for x := 1; x < len(t); x++ {
		t[x] = u.phases[x].start == uint64(x)
	}
	return t
}

// FractionalPhaseTable builds a PhaseTable for a real-valued growth base:
// entry i is round(base^i), clamped to at least 1 and monotone
// non-decreasing. Pair it with ScheduleLookup to run bases hardware
// cannot compute natively — e.g. OptimalWorstCaseBase.
func FractionalPhaseTable(base float64, phases int) []uint64 {
	if base <= 1 || phases < 2 {
		panic(fmt.Sprintf("core: fractional table needs base > 1 and ≥ 2 phases, got %v/%d", base, phases))
	}
	t := make([]uint64, phases)
	pow := 1.0
	for i := range t {
		l := uint64(pow + 0.5)
		if l < 1 {
			l = 1
		}
		if i > 0 && l < t[i-1] {
			l = t[i-1]
		}
		if pow >= float64(maxHop) {
			l = maxHop
		}
		t[i] = l
		pow *= base
	}
	return t
}

// IsPowerOf reports whether x is a power of base (base ≥ 2, x ≥ 1). For
// base 2 and 4 this is the bitwise check the hardware uses; the general
// case iterates, which is fine off the fast path.
func IsPowerOf(x uint64, base int) bool {
	if x == 0 {
		return false
	}
	switch base {
	case 2:
		return x&(x-1) == 0
	case 4:
		// Powers of 4 are powers of 2 whose single set bit is at an
		// even position.
		return x&(x-1) == 0 && x&0x5555555555555555 != 0
	default:
		v := uint64(1)
		for v < x {
			v = satMul(v, uint64(base))
		}
		return v == x
	}
}
