package xhash

import "testing"

// TestMix64Avalanche: flipping any single input bit flips roughly half
// the output bits on average.
func TestMix64Avalanche(t *testing.T) {
	inputs := []uint64{0, 1, 0xdeadbeef, 1 << 63, 0x0123456789abcdef}
	for _, x := range inputs {
		base := Mix64(x)
		totalFlips := 0
		for bit := 0; bit < 64; bit++ {
			d := Mix64(x^1<<bit) ^ base
			totalFlips += popcount(d)
		}
		avg := float64(totalFlips) / 64
		if avg < 24 || avg > 40 {
			t.Errorf("Mix64(%#x): average flip count %.1f, want ≈32", x, avg)
		}
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// TestMix32Injective32k: no collisions over a contiguous 32k range
// (Mix32 is a bijection, so any collision is a bug).
func TestMix32Injective32k(t *testing.T) {
	seen := make(map[uint32]uint32, 1<<15)
	for x := uint32(0); x < 1<<15; x++ {
		h := Mix32(x)
		if prev, dup := seen[h]; dup {
			t.Fatalf("Mix32 collision: %d and %d", prev, x)
		}
		seen[h] = x
	}
}

// TestFuncDeterministicAndSeedSensitive.
func TestFuncDeterministicAndSeedSensitive(t *testing.T) {
	f1, f2 := NewFunc(1), NewFunc(1)
	g := NewFunc(2)
	diff := 0
	for id := uint32(0); id < 1000; id++ {
		if f1.Hash64(id) != f2.Hash64(id) {
			t.Fatal("same seed disagrees")
		}
		if f1.Hash64(id) != g.Hash64(id) {
			diff++
		}
	}
	if diff < 990 {
		t.Fatalf("different seeds too similar: only %d/1000 differ", diff)
	}
}

// TestHashBitsRange: outputs fit in z bits for every z, and panic guards
// hold.
func TestHashBitsRange(t *testing.T) {
	f := NewFunc(42)
	for z := uint(1); z <= 64; z++ {
		for id := uint32(0); id < 100; id++ {
			v := f.HashBits(id, z)
			if z < 64 && v >= 1<<z {
				t.Fatalf("HashBits(%d, %d) = %d overflows", id, z, v)
			}
		}
	}
	for _, z := range []uint{0, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("HashBits width %d should panic", z)
				}
			}()
			f.HashBits(1, z)
		}()
	}
}

// TestHashBitsUniform: bucket balance at z=4 over many ids.
func TestHashBitsUniform(t *testing.T) {
	f := NewFunc(7)
	var counts [16]int
	const draws = 64000
	for id := uint32(0); id < draws; id++ {
		counts[f.HashBits(id, 4)]++
	}
	for b, c := range counts {
		if c < draws/16*85/100 || c > draws/16*115/100 {
			t.Errorf("bucket %d has %d, expected ≈%d", b, c, draws/16)
		}
	}
}

// TestFamilyIndependence: two family members collide on z-bit outputs at
// roughly the 2^-z birthday rate, not more.
func TestFamilyIndependence(t *testing.T) {
	fam := NewFamily(99, 4)
	if len(fam) != 4 {
		t.Fatalf("family size %d", len(fam))
	}
	const z, draws = 12, 20000
	agree := 0
	for id := uint32(0); id < draws; id++ {
		if fam[0].HashBits(id, z) == fam[1].HashBits(id, z) {
			agree++
		}
	}
	// Expected ≈ draws/2^z ≈ 4.9; allow generous slack.
	if agree > 30 {
		t.Errorf("family members agree %d/%d times at z=%d", agree, draws, z)
	}
}

// TestFamilyReproducible: same (seed, H) gives the same functions.
func TestFamilyReproducible(t *testing.T) {
	a, b := NewFamily(5, 3), NewFamily(5, 3)
	for i := range a {
		for id := uint32(0); id < 50; id++ {
			if a[i].Hash64(id) != b[i].Hash64(id) {
				t.Fatal("families diverge")
			}
		}
	}
}
