package core

import (
	"errors"
	"fmt"
	"math/bits"

	"github.com/unroller/unroller/internal/bitpack"
)

// This file is the wire format of the Unroller packet header (Table 3 of
// the paper): an 8-bit hop counter Xcnt, c·H identifier slots of z bits
// each, and a ⌈log2 Th⌉-bit threshold counter Thcnt. Nothing else travels
// on the wire — phase and chunk membership are pure functions of Xcnt, the
// way the P4 implementation derives them with a lookup table.

// ErrHeaderTooShort is returned when decoding runs out of bytes.
var ErrHeaderTooShort = errors.New("core: unroller header too short")

// errHopOverflow is returned by EncodeHeader when the hop counter no
// longer fits its 8-bit wire field. In a real network the packet's TTL
// would have expired long before; the simulator keeps wider counters.
var errHopOverflow = errors.New("core: hop counter exceeds 8-bit wire field")

// HeaderBytes returns the encoded header size in bytes for the
// configuration (bit size rounded up to whole bytes, as a parser would
// align it).
func (c Config) HeaderBytes() int { return (c.HeaderBits() + 7) / 8 }

// EncodeHeader serialises the packet state into w. Layout, MSB-first:
//
//	Xcnt   : 8 bits
//	SWids  : H·c slots × z bits, row-major by hash function
//	Thcnt  : ⌈log2 Th⌉ bits (absent for Th = 1)
//
// The per-chunk reset flags are not encoded: they are recomputed from
// Xcnt on decode.
//
//unroller:hotpath
func (s *State) EncodeHeader(w *bitpack.Writer) error {
	u := s.det
	if u.hopBits > 0 {
		if s.x > 255 {
			return errHopOverflow
		}
		w.WriteBits(s.x, u.hopBits)
	}
	for _, sv := range s.slots {
		w.WriteBits(sv, u.cfg.ZBits)
	}
	if u.thBits > 0 {
		w.WriteBits(uint64(s.thcnt), u.thBits)
	}
	return nil
}

// AppendHeader appends the encoded header to dst and returns the extended
// slice, padding to a whole number of bytes. The writer encodes directly
// into dst's backing array, so a caller that reuses a buffer with enough
// capacity pays no allocation per encode.
func (s *State) AppendHeader(dst []byte) ([]byte, error) {
	var w bitpack.Writer
	w.ResetBuf(dst)
	if err := s.EncodeHeader(&w); err != nil {
		return dst, err
	}
	return w.Bytes(), nil
}

// DecodeHeader reconstructs per-packet state from the wire bytes produced
// by EncodeHeader under the same configuration. The phase cache and chunk
// reset flags are rebuilt from the hop counter.
func (u *Unroller) DecodeHeader(buf []byte) (*State, error) {
	if u.cfg.TTLHopCount {
		return nil, fmt.Errorf("core: %s elides the hop counter; use DecodeHeaderAt with the TTL-derived hop count", u.cfg)
	}
	return u.decode(buf, 0)
}

// DecodeHeaderAt decodes a header whose hop counter is not carried on
// the wire (Config.TTLHopCount): hops supplies the externally derived
// count of hops the packet has already taken — e.g. initial TTL minus
// current TTL (footnote 3 of the paper). hops must be at most 255, the
// range of an IP TTL, so that the phase lookup table covers it.
func (u *Unroller) DecodeHeaderAt(buf []byte, hops uint64) (*State, error) {
	if !u.cfg.TTLHopCount {
		return nil, fmt.Errorf("core: %s carries its own hop counter; use DecodeHeader", u.cfg)
	}
	return u.decode(buf, hops)
}

// DecodeHeaderInto is DecodeHeader decoding into st instead of
// allocating a fresh state. st must have been created by the same
// Unroller (NewPacketState or an earlier decode); every field is
// overwritten, so pooled or otherwise reused states carry nothing
// across packets. The emulator's hop loop uses this to keep per-hop
// allocation flat.
func (u *Unroller) DecodeHeaderInto(st *State, buf []byte) error {
	if u.cfg.TTLHopCount {
		return fmt.Errorf("core: %s elides the hop counter; use DecodeHeaderAtInto with the TTL-derived hop count", u.cfg)
	}
	return u.decodeInto(st, buf, 0)
}

// DecodeHeaderAtInto is DecodeHeaderAt decoding into st, under the same
// reuse contract as DecodeHeaderInto.
func (u *Unroller) DecodeHeaderAtInto(st *State, buf []byte, hops uint64) error {
	if !u.cfg.TTLHopCount {
		return fmt.Errorf("core: %s carries its own hop counter; use DecodeHeaderInto", u.cfg)
	}
	return u.decodeInto(st, buf, hops)
}

func (u *Unroller) decode(buf []byte, hops uint64) (*State, error) {
	s := u.NewPacketState()
	if err := u.decodeInto(s, buf, hops); err != nil {
		return nil, err
	}
	return s, nil
}

// decodeInto checks that buf can hold a header for u and that st is u's,
// then unpacks it. hops is the externally derived hop count when the
// configuration elides Xcnt, and 0 otherwise.
func (u *Unroller) decodeInto(s *State, buf []byte, hops uint64) error {
	if s.det != u {
		return fmt.Errorf("core: decode target state belongs to a different detector")
	}
	if len(buf) < u.hdrBytes {
		return fmt.Errorf("%w: need %d bytes, have %d", ErrHeaderTooShort, u.hdrBytes, len(buf))
	}
	if hops >= uint64(len(u.phases)) {
		return fmt.Errorf("core: hop count %d exceeds 255, the most an IP TTL allows", hops)
	}
	s.unpack(buf, hops)
	return nil
}

// unpack overwrites every field of s from the header in buf, which
// decodeInto has checked is long enough, so no read can fail. Thcnt is
// zero when Th = 1 leaves it off the wire, and the phase cache comes
// from the hop counter, so a reused state is indistinguishable from a
// fresh one.
//
//unroller:hotpath
func (s *State) unpack(buf []byte, hops uint64) {
	u := s.det
	r := bitpack.NewReader(buf)
	s.x = hops
	if u.hopBits > 0 {
		s.x, _ = r.ReadBits(u.hopBits)
	}
	for i := range s.slots {
		s.slots[i], _ = r.ReadBits(u.cfg.ZBits)
	}
	s.thcnt = 0
	if u.thBits > 0 {
		th, _ := r.ReadBits(u.thBits)
		s.thcnt = int(th)
	}
	s.rebuildPhase()
}

// rebuildPhase recomputes the cached phase and chunk-reset flags from the
// hop counter, making decoded state bit-equivalent to the state that was
// encoded: one read of the phase table, then a closed form per chunk.
// Chunk j's window starts at offset ⌈j·len/c⌉ of its phase, so it has
// reset this phase iff the window is non-empty and starts at or before
// the current offset. A pristine packet (x = 0) gets the zero phase and
// no resets; its first Visit starts phase 0.
//
//unroller:hotpath
func (s *State) rebuildPhase() {
	s.ph = s.det.phases[s.x]
	c := uint64(len(s.reset))
	off := s.x - s.ph.start
	for j := range s.reset {
		s.reset[j] = s.x > 0 && chunkReset(uint64(j), off, s.ph.len, c)
	}
}

// chunkReset reports whether chunk j of c has reset by offset off of a
// phase of length plen: its window [⌈j·plen/c⌉, ⌈(j+1)·plen/c⌉) is
// non-empty and j·plen ≤ off·c, i.e. the window starts at or before off.
// Windows are empty only when plen < c, where the products are small.
//
//unroller:hotpath
func chunkReset(j, off, plen, c uint64) bool {
	hiJ, loJ := bits.Mul64(j, plen)
	hiO, loO := bits.Mul64(off, c)
	if hiJ > hiO || hiJ == hiO && loJ > loO {
		return false
	}
	return plen >= c || (j*plen+c-1)/c < ((j+1)*plen+c-1)/c
}
