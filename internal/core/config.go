package core

import (
	"errors"
	"fmt"
	"math/bits"

	"github.com/unroller/unroller/internal/xhash"
)

// Config selects an Unroller variant. The zero value is not valid; start
// from DefaultConfig (the paper's default evaluation configuration) and
// override fields.
type Config struct {
	// Base is the phase growth base b ≥ 2. The i'th phase lasts b^i hops
	// (analysis schedule). b = 4 optimises the worst case (4.67·X),
	// b = 3 the average case (3·X).
	Base int

	// Chunks is c ≥ 1, the number of windows each phase is partitioned
	// into (Appendix B). Each chunk owns one identifier slot per hash
	// function; larger c speeds detection at c·H·z bits of header cost.
	Chunks int

	// Hashes is H ≥ 1, the number of independent hash functions
	// (Appendix B). H > 1 forces hashed identifiers.
	Hashes int

	// ZBits is z, the width of each stored identifier in bits,
	// 1 ≤ z ≤ 32. With z = 32 and Hashes == 1 and HashIDs == false the
	// raw switch identifier is stored and there are no false positives;
	// smaller z compresses the header at the cost of hash collisions
	// (§3.3).
	ZBits uint

	// Threshold is Th ≥ 1: a loop is reported on the Th'th identifier
	// match (§3.3). Values above 1 exponentially reduce false positives
	// and add roughly (Th−1)·L hops of detection delay.
	Threshold int

	// Schedule selects how phase boundaries are computed; see
	// ScheduleKind.
	Schedule ScheduleKind

	// HashIDs forces identifiers through the hash family even when
	// z = 32 and H = 1. The paper recommends this when operator-assigned
	// IDs are not uniform, trading determinism for a vanishing false
	// positive rate.
	HashIDs bool

	// TTLHopCount derives the hop counter from the packet's TTL instead
	// of carrying an explicit Xcnt field, saving 8 header bits
	// (footnote 3 of the paper). Wire encoding then omits the counter;
	// decoding needs the hop count supplied externally via
	// DecodeHeaderAt. Requires a known initial TTL on the wire.
	TTLHopCount bool

	// PhaseTable supplies explicit phase lengths for ScheduleLookup —
	// the lookup-table mechanism §4 describes for bases that are not
	// powers of two, including fractional bases (see
	// FractionalPhaseTable). Beyond the table's end, lengths continue
	// growing by the ratio of its last two entries.
	PhaseTable []uint64

	// Seed selects the hash family shared by all switches.
	Seed uint64
}

// DefaultConfig returns the paper's default evaluation configuration
// (§5): b = 4, c = 1, H = 1, z = 32 raw identifiers, Th = 1, analysis
// schedule.
func DefaultConfig() Config {
	return Config{
		Base:      4,
		Chunks:    1,
		Hashes:    1,
		ZBits:     32,
		Threshold: 1,
		Schedule:  ScheduleAnalysis,
	}
}

// Validate reports whether the configuration is usable.
//
//unroller:allow errctx -- sub-errors are joined under "core: invalid config: %w" by New
func (c Config) Validate() error {
	var errs []error
	if c.Base < 2 {
		errs = append(errs, fmt.Errorf("base b must be ≥ 2, got %d", c.Base))
	}
	if c.Chunks < 1 {
		errs = append(errs, fmt.Errorf("chunks c must be ≥ 1, got %d", c.Chunks))
	}
	if c.Hashes < 1 {
		errs = append(errs, fmt.Errorf("hashes H must be ≥ 1, got %d", c.Hashes))
	}
	if c.ZBits < 1 || c.ZBits > 32 {
		errs = append(errs, fmt.Errorf("z must be in [1, 32] bits, got %d", c.ZBits))
	}
	if c.Threshold < 1 {
		errs = append(errs, fmt.Errorf("threshold Th must be ≥ 1, got %d", c.Threshold))
	}
	switch c.Schedule {
	case ScheduleAnalysis, ScheduleHardware:
		if len(c.PhaseTable) != 0 {
			errs = append(errs, fmt.Errorf("PhaseTable is only meaningful with ScheduleLookup"))
		}
	case ScheduleLookup:
		if len(c.PhaseTable) < 2 {
			errs = append(errs, fmt.Errorf("ScheduleLookup needs a PhaseTable of ≥ 2 lengths, got %d", len(c.PhaseTable)))
		}
		for i, l := range c.PhaseTable {
			if l == 0 {
				errs = append(errs, fmt.Errorf("PhaseTable[%d] is zero", i))
				break
			}
		}
	default:
		errs = append(errs, fmt.Errorf("unknown schedule %v", c.Schedule))
	}
	return errors.Join(errs...)
}

// hashed reports whether identifiers pass through the hash family before
// being stored. Raw storage is only sound for a single full-width slot
// value per switch.
func (c *Config) hashed() bool {
	return c.HashIDs || c.Hashes > 1 || c.ZBits < 32
}

// family materialises the hash functions for this configuration.
func (c Config) family() xhash.Family {
	return xhash.NewFamily(c.Seed, c.Hashes)
}

// slotSentinel returns the "empty slot" marker for width z: the all-ones
// value. Stored hashes are mapped into [0, sentinel) so the marker can
// never be a real value; raw 32-bit identifiers must avoid 0xFFFFFFFF
// (the topology ID assigners in this module never produce it).
func slotSentinel(z uint) uint64 { return (uint64(1) << z) - 1 }

// HeaderBits returns the per-packet overhead of this configuration in
// bits: an 8-bit hop counter (elided when it is derived from the TTL),
// c·H identifiers of z bits, and ⌈log2 Th⌉ threshold-counter bits
// (Table 3 and §3.3 of the paper; footnote 2 notes Th itself need not be
// carried).
func (c Config) HeaderBits() int {
	bits := c.Chunks*c.Hashes*int(c.ZBits) + thresholdBits(c.Threshold)
	if !c.TTLHopCount {
		bits += hopCounterBits
	}
	return bits
}

// hopCounterBits is the wire width of Xcnt. IP TTL caps any packet's
// lifetime at 255 hops, so 8 bits always suffice (footnote 3 of the
// paper notes it can even be elided when the TTL is usable directly).
const hopCounterBits = 8

// thresholdBits returns ⌈log2 Th⌉, the wire width of the threshold
// counter. Th = 1 needs no counter at all.
func thresholdBits(th int) int {
	if th <= 1 {
		return 0
	}
	return bits.Len(uint(th - 1))
}

// String summarises the configuration the way the paper's figures label
// their series.
func (c Config) String() string {
	return fmt.Sprintf("unroller(b=%d,c=%d,H=%d,z=%d,Th=%d,%s)",
		c.Base, c.Chunks, c.Hashes, c.ZBits, c.Threshold, c.Schedule)
}
