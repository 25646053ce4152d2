package core

import (
	"testing"

	"github.com/unroller/unroller/internal/bitpack"
	"github.com/unroller/unroller/internal/detect"
	"github.com/unroller/unroller/internal/xrand"
)

// fractionalConfig builds the §3 "optimize the ratio further" detector:
// the optimal real base run through a lookup table.
func fractionalConfig() Config {
	cfg := DefaultConfig()
	cfg.Schedule = ScheduleLookup
	cfg.PhaseTable = FractionalPhaseTable(OptimalWorstCaseBase(), 32)
	return cfg
}

// TestFractionalBaseDetects: the lookup-table schedule with the optimal
// fractional base detects every loop within its analytic bound — which
// is strictly tighter than the integer b=4 guarantee.
func TestFractionalBaseDetects(t *testing.T) {
	u := MustNew(fractionalConfig())
	b := OptimalWorstCaseBase()
	rng := xrand.New(0xF12AC)
	for B := 0; B <= 20; B += 4 {
		for L := 1; L <= 25; L += 3 {
			bound := WorstCaseBoundFloat(b, B, L)
			// The fractional base optimises the worst-case factor:
			// its bound stays within b*·X + O(1) at every shape,
			// whereas b=4 exceeds 4.6·X in the loop-dominated
			// regime.
			if float64(bound) > b*float64(B+L)+b+3 {
				t.Fatalf("B=%d L=%d: fractional bound %d exceeds %.3f·X+O(1)", B, L, bound, b)
			}
			for rep := 0; rep < 6; rep++ {
				prefix, loop := randomWalkIDs(rng, B, L)
				got := drive(t, u, prefix, loop, bound+1)
				if got == 0 {
					t.Fatalf("B=%d L=%d: not detected within fractional bound %d", B, L, bound)
				}
				if got < B+L {
					t.Fatalf("B=%d L=%d: detected at %d < X", B, L, got)
				}
			}
		}
	}
}

// TestOptimalWorstCaseBase: the closed form beats every integer base and
// sits at the intersection of the two regimes.
func TestOptimalWorstCaseBase(t *testing.T) {
	b := OptimalWorstCaseBase()
	if b < 4.56 || b > 4.562 {
		t.Fatalf("optimal base %v, want ≈4.5616", b)
	}
	// At the optimum the loop-dominated factor equals b itself.
	grow := 2 + 2*b/(b-1)
	if diff := grow - b; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("regimes do not intersect at the claimed base: %v vs %v", grow, b)
	}
	// Strictly better than the integer optimum.
	if b >= WorstCaseFactor(4) {
		t.Fatalf("fractional factor %v should beat 4.67", b)
	}
}

// TestLookupScheduleValidation: the config matrix for ScheduleLookup.
func TestLookupScheduleValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Schedule = ScheduleLookup
	if cfg.Validate() == nil {
		t.Error("lookup schedule without a table accepted")
	}
	cfg.PhaseTable = []uint64{1}
	if cfg.Validate() == nil {
		t.Error("single-entry table accepted")
	}
	cfg.PhaseTable = []uint64{1, 0}
	if cfg.Validate() == nil {
		t.Error("zero-length phase accepted")
	}
	cfg.PhaseTable = []uint64{1, 4}
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid lookup config rejected: %v", err)
	}
	// PhaseTable on a closed-form schedule is a misconfiguration.
	bad := DefaultConfig()
	bad.PhaseTable = []uint64{1, 4}
	if bad.Validate() == nil {
		t.Error("PhaseTable with analysis schedule accepted")
	}
}

// TestTTLHopCountHeader: the footnote-3 variant drops the 8-bit counter
// from the wire, and round-trips through DecodeHeaderAt with an
// externally supplied hop count.
func TestTTLHopCountHeader(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TTLHopCount = true
	u := MustNew(cfg)

	plain := DefaultConfig()
	if got, want := cfg.HeaderBits(), plain.HeaderBits()-8; got != want {
		t.Fatalf("TTL-derived header is %d bits, want %d", got, want)
	}

	st := u.NewPacketState()
	ids := []detect.SwitchID{9, 5, 7, 3, 8, 5}
	var hops uint64
	for _, id := range ids[:4] {
		if st.Visit(id) != detect.Continue {
			t.Fatal("premature verdict")
		}
		hops++
	}
	var w bitpack.Writer
	if err := st.EncodeHeader(&w); err != nil {
		t.Fatal(err)
	}
	if got := w.Len(); got != uint(cfg.HeaderBits()) {
		t.Fatalf("encoded %d bits, want %d", got, cfg.HeaderBits())
	}
	dec, err := u.DecodeHeaderAt(w.Bytes(), hops)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Hops() != st.Hops() {
		t.Fatalf("decoded hops %d, want %d", dec.Hops(), st.Hops())
	}
	// Both must agree on the rest of the walk (hop 6 revisits switch 5,
	// stored as the minimum since hop 2's phase... drive and compare).
	for _, id := range ids[4:] {
		v1, v2 := st.Visit(id), dec.Visit(id)
		if v1 != v2 {
			t.Fatalf("decoded state diverged on %v: %v vs %v", id, v1, v2)
		}
	}

	// Mode confusion is rejected loudly.
	if _, err := u.DecodeHeader(w.Bytes()); err == nil {
		t.Fatal("DecodeHeader must reject TTL-mode configs")
	}
	plainDet := MustNew(plain)
	buf, err := plainDet.NewPacketState().AppendHeader(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plainDet.DecodeHeaderAt(buf, 0); err == nil {
		t.Fatal("DecodeHeaderAt must reject self-counting configs")
	}
}

// TestTTLHopCountNoOverflowGuard: with an external counter the state can
// exceed 255 hops without wire errors (the TTL itself bounds lifetime).
func TestTTLHopCountNoOverflowGuard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TTLHopCount = true
	u := MustNew(cfg)
	st := u.NewPacketState()
	rng := xrand.New(1)
	for i := 0; i < 300; i++ {
		st.Visit(detect.SwitchID(rng.Uint32()))
	}
	var w bitpack.Writer
	if err := st.EncodeHeader(&w); err != nil {
		t.Fatalf("TTL-mode encode must not overflow: %v", err)
	}
}

// TestDecodeHeaderAtHopBound: an externally supplied hop count above
// 255 — more than an IP TTL can account for — is refused by both TTL
// decoders, so every decoded state is covered by the phase table; 255
// itself decodes.
func TestDecodeHeaderAtHopBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TTLHopCount = true
	u := MustNew(cfg)
	buf, err := u.NewPacketState().AppendHeader(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.DecodeHeaderAt(buf, 256); err == nil {
		t.Fatal("DecodeHeaderAt accepted 256 hops")
	}
	if err := u.DecodeHeaderAtInto(u.NewPacketState(), buf, 1<<40); err == nil {
		t.Fatal("DecodeHeaderAtInto accepted 2^40 hops")
	}
	st, err := u.DecodeHeaderAt(buf, 255)
	if err != nil {
		t.Fatalf("255 hops: %v", err)
	}
	if want := phaseAt(255, &cfg); st.Hops() != 255 || st.ph != want {
		t.Fatalf("255 hops decoded to x=%d phase %+v, want phase %+v", st.Hops(), st.ph, want)
	}
}
