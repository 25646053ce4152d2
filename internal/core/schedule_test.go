package core

import (
	"testing"
	"testing/quick"
)

// cfgFor builds a minimal valid config for schedule unit tests.
func cfgFor(b int, k ScheduleKind) *Config {
	c := DefaultConfig()
	c.Base = b
	c.Schedule = k
	if k == ScheduleLookup {
		c.PhaseTable = FractionalPhaseTable(float64(b), 24)
	}
	return &c
}

// TestAnalysisPhaseBoundaries enumerates the first phases for small bases
// and checks starts and lengths against the closed forms: phase i lasts
// b^i and starts at 1 + (b^i − 1)/(b − 1).
func TestAnalysisPhaseBoundaries(t *testing.T) {
	for _, b := range []int{2, 3, 4, 6, 10} {
		cfg := cfgFor(b, ScheduleAnalysis)
		p := firstPhase(cfg)
		wantStart := uint64(1)
		wantLen := uint64(1)
		for i := 0; i < 8; i++ {
			if p.index != i || p.start != wantStart || p.len != wantLen {
				t.Fatalf("b=%d phase %d: got {%d %d %d}, want start=%d len=%d",
					b, i, p.index, p.start, p.len, wantStart, wantLen)
			}
			wantStart += wantLen
			wantLen *= uint64(b)
			p = p.next(cfg)
		}
	}
}

// TestHardwarePhaseBoundaries checks that hardware-schedule resets land
// exactly on powers of b.
func TestHardwarePhaseBoundaries(t *testing.T) {
	for _, b := range []int{2, 4, 6} {
		cfg := cfgFor(b, ScheduleHardware)
		p := firstPhase(cfg)
		pow := uint64(1)
		for i := 0; i < 8; i++ {
			if p.start != pow {
				t.Fatalf("b=%d phase %d starts at %d, want %d", b, i, p.start, pow)
			}
			if p.len != pow*uint64(b)-pow {
				t.Fatalf("b=%d phase %d length %d, want %d", b, i, p.len, pow*uint64(b)-pow)
			}
			pow *= uint64(b)
			p = p.next(cfg)
		}
	}
}

// TestLookupPhaseBoundaries: a lookup schedule follows its table exactly
// and keeps growing past the table's end.
func TestLookupPhaseBoundaries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Schedule = ScheduleLookup
	cfg.PhaseTable = []uint64{1, 3, 5, 17}
	p := firstPhase(&cfg)
	wantLens := []uint64{1, 3, 5, 17}
	start := uint64(1)
	for i, want := range wantLens {
		if p.index != i || p.len != want || p.start != start {
			t.Fatalf("phase %d: got {%d %d %d}, want len=%d start=%d", i, p.index, p.start, p.len, want, start)
		}
		start += want
		p = p.next(&cfg)
	}
	// Past the table: tail ratio ceil(17/5)=4.
	if p.len != 17*4 {
		t.Fatalf("post-table phase length %d, want 68", p.len)
	}
	q := p.next(&cfg)
	if q.len <= p.len {
		t.Fatal("phases must keep growing past the table")
	}
}

// TestPhaseAt cross-checks the random-access phase lookup against the
// incremental iteration for every hop up to 5000.
func TestPhaseAt(t *testing.T) {
	for _, b := range []int{2, 3, 4, 7} {
		for _, k := range []ScheduleKind{ScheduleAnalysis, ScheduleHardware, ScheduleLookup} {
			cfg := cfgFor(b, k)
			p := firstPhase(cfg)
			for x := uint64(1); x <= 5000; x++ {
				if x >= p.start+p.len {
					p = p.next(cfg)
				}
				got := phaseAt(x, cfg)
				if got != p {
					t.Fatalf("b=%d %v: phaseAt(%d) = %+v, want %+v", b, k, x, got, p)
				}
			}
		}
	}
}

// TestPhaseStartTable checks the P4 lookup-table register, rendered
// from the decoder's phase table, against phase starts.
func TestPhaseStartTable(t *testing.T) {
	for _, b := range []int{2, 3, 4, 6} {
		for _, k := range []ScheduleKind{ScheduleAnalysis, ScheduleHardware} {
			cfg := cfgFor(b, k)
			tab := MustNew(*cfg).PhaseStartLUT()
			if len(tab) != 256 {
				t.Fatalf("table size %d", len(tab))
			}
			if tab[0] {
				t.Errorf("b=%d %v: unused entry 0 is set", b, k)
			}
			for x := uint64(1); x < 256; x++ {
				want := phaseAt(x, cfg).start == x
				if tab[x] != want {
					t.Errorf("b=%d %v: table[%d]=%v, want %v", b, k, x, tab[x], want)
				}
			}
		}
	}
}

// TestPhaseTableMatchesIterative: for every hop counter value a header
// can carry, the decoder's table read and closed-form chunk resets
// equal what the iterative reference computes — phaseAt walking the
// schedule from phase 0, then every offset of the phase up to x marking
// the chunks whose window opens there. Covers every schedule kind,
// bases 2–6, a fractional lookup table, and chunk counts 1–8 and 200
// (where most windows of the early phases are empty).
func TestPhaseTableMatchesIterative(t *testing.T) {
	var cfgs []Config
	for b := 2; b <= 6; b++ {
		for _, k := range []ScheduleKind{ScheduleAnalysis, ScheduleHardware, ScheduleLookup} {
			cfgs = append(cfgs, *cfgFor(b, k))
		}
	}
	frac := DefaultConfig()
	frac.Schedule, frac.PhaseTable = ScheduleLookup, FractionalPhaseTable(OptimalWorstCaseBase(), 12)
	cfgs = append(cfgs, frac)
	for _, base := range cfgs {
		for _, c := range []int{1, 2, 3, 4, 5, 6, 7, 8, 200} {
			cfg := base
			cfg.Chunks = c
			u := MustNew(cfg)
			st := u.NewPacketState()
			for x := uint64(1); x < 256; x++ {
				st.x = x
				st.rebuildPhase()
				want := phaseAt(x, &cfg)
				if st.ph != want {
					t.Fatalf("%v x=%d: table phase %+v, iterative %+v", cfg, x, st.ph, want)
				}
				wantReset := make([]bool, c)
				for off := uint64(0); off <= x-want.start; off++ {
					if j, first := chunkIndex(off, want.len, c); first {
						wantReset[j] = true
					}
				}
				for j := range wantReset {
					if st.reset[j] != wantReset[j] {
						t.Fatalf("%v x=%d: chunk %d reset %v, iterative %v", cfg, x, j, st.reset[j], wantReset[j])
					}
				}
			}
		}
	}
}

// TestFractionalPhaseTable: rounding, monotonicity, and validation.
func TestFractionalPhaseTable(t *testing.T) {
	tab := FractionalPhaseTable(OptimalWorstCaseBase(), 12)
	if len(tab) != 12 || tab[0] != 1 {
		t.Fatalf("table %v", tab)
	}
	for i := 1; i < len(tab); i++ {
		if tab[i] < tab[i-1] {
			t.Fatalf("table not monotone: %v", tab)
		}
	}
	// round(4.56²) = round(20.8) = 21.
	if tab[2] != 21 {
		t.Fatalf("tab[2] = %d, want 21", tab[2])
	}
	for _, bad := range []func(){
		func() { FractionalPhaseTable(1.0, 5) },
		func() { FractionalPhaseTable(3.5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid fractional table args should panic")
				}
			}()
			bad()
		}()
	}
}

// TestIsPowerOf compares the bitwise fast paths against naive iteration,
// exhaustively to 10^6 and via quick-check beyond.
func TestIsPowerOf(t *testing.T) {
	naive := func(x uint64, base int) bool {
		if x == 0 {
			return false
		}
		v := uint64(1)
		for v < x {
			old := v
			v *= uint64(base)
			if v < old { // overflow
				return false
			}
		}
		return v == x
	}
	for _, base := range []int{2, 3, 4, 5, 6, 10} {
		for x := uint64(0); x <= 1_000_000; x++ {
			if got, want := IsPowerOf(x, base), naive(x, base); got != want {
				t.Fatalf("IsPowerOf(%d, %d) = %v, want %v", x, base, got, want)
			}
		}
	}
	f := func(x uint64) bool {
		return IsPowerOf(x, 2) == naive(x, 2) && IsPowerOf(x, 4) == naive(x, 4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestChunkIndexPartition checks that chunk windows partition each phase:
// indices are non-decreasing, cover [0, c), and "first" flags fire
// exactly at window openings.
func TestChunkIndexPartition(t *testing.T) {
	for _, c := range []int{1, 2, 3, 4, 8} {
		for _, plen := range []uint64{1, 2, 3, 4, 7, 8, 16, 100} {
			prev := -1
			firsts := 0
			for off := uint64(0); off < plen; off++ {
				idx, first := chunkIndex(off, plen, c)
				if idx < 0 || idx >= c {
					t.Fatalf("c=%d plen=%d off=%d: index %d out of range", c, plen, off, idx)
				}
				if idx < prev {
					t.Fatalf("c=%d plen=%d: chunk index decreased %d→%d", c, plen, prev, idx)
				}
				if first != (idx != prev) {
					t.Fatalf("c=%d plen=%d off=%d: first=%v but idx %d prev %d", c, plen, off, first, idx, prev)
				}
				if first {
					firsts++
				}
				prev = idx
			}
			wantWindows := c
			if plen < uint64(c) {
				wantWindows = int(plen) // short phases skip some windows
			}
			if firsts != wantWindows {
				t.Fatalf("c=%d plen=%d: %d window openings, want %d", c, plen, firsts, wantWindows)
			}
		}
	}
}

// TestSatMul covers the saturation arithmetic.
func TestSatMul(t *testing.T) {
	if got := satMul(maxHop/2, 4); got != maxHop {
		t.Errorf("satMul should saturate, got %d", got)
	}
	if got := satMul(3, 7); got != 21 {
		t.Errorf("satMul(3,7) = %d", got)
	}
	if got := satMul(0, 9); got != 0 {
		t.Errorf("satMul(0,9) = %d", got)
	}
}

// TestScheduleKindString covers the stringer.
func TestScheduleKindString(t *testing.T) {
	if ScheduleAnalysis.String() != "analysis" || ScheduleHardware.String() != "hardware" {
		t.Error("schedule names changed")
	}
	if ScheduleKind(9).String() == "" {
		t.Error("unknown kinds must still format")
	}
}
