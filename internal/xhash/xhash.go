// Package xhash provides the seeded hash families used to randomise switch
// identifiers.
//
// Unroller's average-case guarantee (§3.2 of the paper) requires each switch
// to be equally likely to hold the minimum identifier. When operators assign
// structured IDs, the algorithm instead stores h(id) for a hash h shared by
// all switches; the compression variant (§3.3) truncates that hash to z
// bits. The multi-hash extension (Appendix B) needs H independent functions
// h_1..h_H. This package implements those families with strong 64-bit
// mixers, stdlib-only.
package xhash

// Mix64 is a full-avalanche 64-bit mixer (the SplitMix64 finaliser). Every
// input bit affects every output bit; it is the default way to turn a
// structured switch ID into a uniform-looking one.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Mix32 is a full-avalanche 32-bit mixer (Murmur3 finaliser).
func Mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

// Func is a seeded hash from a 32-bit switch identifier to a 64-bit value.
// Distinct seeds give (empirically) independent functions; the simulation
// harness and the data plane share the same family so their outputs agree.
type Func struct {
	seed uint64
}

// NewFunc returns the family member selected by seed.
func NewFunc(seed uint64) Func { return Func{seed: Mix64(seed ^ 0x6a09e667f3bcc908)} }

// Hash64 maps id to a uniform 64-bit value.
func (f Func) Hash64(id uint32) uint64 {
	return Mix64(uint64(id) ^ f.seed)
}

// HashBits maps id to a z-bit value, 1 <= z <= 64. The top bits of the
// 64-bit hash are used: for multiply-based mixers the high bits have the
// best avalanche behaviour.
func (f Func) HashBits(id uint32, z uint) uint64 {
	if z == 0 || z > 64 {
		panic("xhash: HashBits width out of range")
	}
	return f.Hash64(id) >> (64 - z)
}

// Family is an ordered set of H hash functions derived from one seed, as
// needed by the Appendix B multi-hash detector.
type Family []Func

// NewFamily returns h hash functions derived from seed. Successive calls
// with the same arguments return identical families.
func NewFamily(seed uint64, h int) Family {
	fam := make(Family, h)
	s := seed
	for i := range fam {
		s = Mix64(s + 0x9e3779b97f4a7c15)
		fam[i] = NewFunc(s)
	}
	return fam
}
