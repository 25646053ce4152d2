package core

import (
	"fmt"

	"github.com/unroller/unroller/internal/detect"
	"github.com/unroller/unroller/internal/xhash"
)

// Unroller is the detector described by the paper. It implements
// detect.Detector.
//
// # Concurrency contract
//
// An Unroller is immutable after New returns: its configuration and hash
// family are never written again, so one Unroller may be shared freely by
// any number of goroutines — this mirrors the hardware, where the
// algorithm parameters live in read-only registers replicated per
// pipeline. All mutable detection state lives in State, which is
// single-packet and NOT safe for concurrent use: each goroutine (each
// in-flight packet) must obtain its own via NewState/NewPacketState or
// DecodeHeader. The race-enabled regression test
// TestConcurrentDetectorSharedAcrossGoroutines pins this contract.
type Unroller struct {
	cfg    Config
	family xhash.Family

	// The header layout, fixed by cfg: the encoded size in bytes and
	// the widths of the hop counter (0 when the TTL carries it) and of
	// the threshold counter (0 for Th = 1).
	hdrBytes int
	hopBits  uint
	thBits   uint
	// phases is the phase lookup table of §4: phases[x] is the phase
	// containing hop x for every value the 8-bit hop counter can take.
	// Entry 0, a packet that has visited no switch, is the zero phase.
	// The decoder reads it and PhaseStartLUT renders it.
	phases [256]phase
}

// New returns an Unroller for the given configuration.
func New(cfg Config) (*Unroller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid config: %w", err)
	}
	u := &Unroller{
		cfg:      cfg,
		family:   cfg.family(),
		hdrBytes: cfg.HeaderBytes(),
		thBits:   uint(thresholdBits(cfg.Threshold)),
	}
	if !cfg.TTLHopCount {
		u.hopBits = hopCounterBits
	}
	for x := 1; x < len(u.phases); x++ {
		u.phases[x] = phaseAt(uint64(x), &u.cfg)
	}
	return u, nil
}

// MustNew is New for statically known-good configurations; it panics on
// validation errors.
func MustNew(cfg Config) *Unroller {
	u, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return u
}

// Config returns the detector's configuration.
func (u *Unroller) Config() Config { return u.cfg }

// Name implements detect.Detector.
func (u *Unroller) Name() string { return u.cfg.String() }

// BitOverhead implements detect.Detector. Unroller's header cost is
// independent of the path length, which is the point of the paper.
func (u *Unroller) BitOverhead(int) int { return u.cfg.HeaderBits() }

// NewState implements detect.Detector.
func (u *Unroller) NewState() detect.State { return u.NewPacketState() }

// NewPacketState returns the concrete per-packet state; callers that need
// header serialisation use this instead of NewState.
func (u *Unroller) NewPacketState() *State {
	s := &State{
		det:   u,
		slots: make([]uint64, u.cfg.Hashes*u.cfg.Chunks),
		reset: make([]bool, u.cfg.Chunks),
	}
	sent := slotSentinel(u.cfg.ZBits)
	for i := range s.slots {
		s.slots[i] = sent
	}
	return s
}

// State is the per-packet Unroller header content plus cached phase
// bookkeeping. Only the fields of Table 3 — the hop counter, the
// identifier slots, and the threshold counter — travel on the wire; the
// phase cache is recomputed from the hop counter on decode (the hardware
// derives it from Xcnt with a lookup table).
type State struct {
	det *Unroller

	x     uint64   // Xcnt: hops traversed so far
	slots []uint64 // SWids[]: H×c identifier slots, row-major by hash
	thcnt int      // Thcnt: matches seen so far

	// Cached phase bookkeeping, derivable from x.
	ph    phase
	reset []bool // per-chunk: has this chunk's slot reset this phase?
}

// Hops returns the number of hops the packet has traversed (Xcnt).
func (s *State) Hops() uint64 { return s.x }

// Matches returns the current threshold counter value (Thcnt).
func (s *State) Matches() int { return s.thcnt }

// Slots returns a copy of the identifier slots, row-major by hash
// function: slot (i, j) for hash i and chunk j is at index i·c+j. Empty
// slots hold the all-ones sentinel for the configured width.
func (s *State) Slots() []uint64 { return append([]uint64(nil), s.slots...) }

// slotValue maps a switch identifier to the value stored and compared for
// hash function i: the raw identifier when running uncompressed with a
// single hash, or the z-bit hash mapped into [0, sentinel) otherwise.
//
//unroller:hotpath
func (s *State) slotValue(i int, id detect.SwitchID) uint64 {
	cfg := &s.det.cfg
	if !cfg.hashed() {
		return uint64(id)
	}
	sent := slotSentinel(cfg.ZBits)
	// Reduce the 64-bit hash into [0, 2^z − 1): the all-ones pattern is
	// reserved as the empty-slot marker. Using modulo keeps the value
	// uniform over the remaining patterns.
	return s.det.family[i].Hash64(uint32(id)) % sent
}

// Visit implements detect.State. It performs, in order, exactly what the
// P4 control block does per packet (§4): increment Xcnt, derive the phase,
// compare the switch's (hashed) identifier against every stored slot, and
// then reset or min-update the slot owned by the current chunk window.
// The comparison runs before the update, so a phase-boundary hop still
// detects against the identifier stored in the previous phase.
//
//unroller:hotpath
func (s *State) Visit(id detect.SwitchID) detect.Verdict {
	cfg := &s.det.cfg

	// (1) Advance the hop counter and the phase cache.
	s.x++
	if s.x == 1 {
		s.ph = firstPhase(cfg)
	} else if s.x == s.ph.start+s.ph.len {
		s.ph = s.ph.next(cfg)
		for j := range s.reset {
			s.reset[j] = false
		}
	}

	// (2) Hash the identifier once per hash function.
	var vbuf [8]uint64 // avoids allocation for H ≤ 8
	vals := vbuf[:0]
	if cfg.Hashes <= len(vbuf) {
		vals = vbuf[:cfg.Hashes]
	} else {
		//unroller:allow hotpath -- H > 8 is outside the paper's parameter space; rare slow path
		vals = make([]uint64, cfg.Hashes)
	}
	for i := range vals {
		vals[i] = s.slotValue(i, id)
	}

	// (3) Check: does any slot of hash i already hold h_i(switch)?
	sent := slotSentinel(cfg.ZBits)
	matched := false
	for i := 0; i < cfg.Hashes && !matched; i++ {
		row := s.slots[i*cfg.Chunks : (i+1)*cfg.Chunks]
		for _, sv := range row {
			if sv != sent && sv == vals[i] {
				matched = true
				break
			}
		}
	}
	if matched {
		s.thcnt++
		if s.thcnt >= cfg.Threshold {
			return detect.Loop
		}
	}

	// (4) Update the slot owned by the chunk window containing this hop.
	offset := s.x - s.ph.start
	j, first := chunkIndex(offset, s.ph.len, cfg.Chunks)
	if first && !s.reset[j] {
		s.reset[j] = true
		for i := 0; i < cfg.Hashes; i++ {
			s.slots[i*cfg.Chunks+j] = vals[i]
		}
	} else {
		for i := 0; i < cfg.Hashes; i++ {
			if vals[i] < s.slots[i*cfg.Chunks+j] {
				s.slots[i*cfg.Chunks+j] = vals[i]
			}
		}
	}
	return detect.Continue
}

var _ detect.Detector = (*Unroller)(nil)
var _ detect.State = (*State)(nil)
