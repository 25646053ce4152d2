package core

import (
	"testing"

	"github.com/unroller/unroller/internal/detect"
)

// FuzzDecodeHeader throws arbitrary bytes at the header decoder across
// several configurations: it must either error or return a state whose
// fields are in range — never panic, never produce a slot wider than z —
// whose phase is the one the schedule walk gives, and which survives a
// re-encode unchanged.
func FuzzDecodeHeader(f *testing.F) {
	f.Add([]byte{0x05, 0xDE, 0xAD, 0xBE, 0xEF}, uint8(0))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		cfgs := configsUnderTest()
		cfg := cfgs[int(which)%len(cfgs)]
		u := MustNew(cfg)
		st, err := u.DecodeHeader(data)
		if err != nil {
			return
		}
		if st.Hops() > 255 {
			t.Fatalf("decoded hop counter %d exceeds the wire width", st.Hops())
		}
		sent := slotSentinel(cfg.ZBits)
		for i, sv := range st.Slots() {
			if sv > sent {
				t.Fatalf("slot %d holds %d, beyond the %d-bit sentinel", i, sv, cfg.ZBits)
			}
		}
		if x := st.Hops(); x > 0 && st.ph != phaseAt(x, &cfg) {
			t.Fatalf("hop %d: table phase %+v, iterative %+v", x, st.ph, phaseAt(x, &cfg))
		}
		// Re-encoding and decoding again reproduces the state.
		wire, err := st.AppendHeader(nil)
		if err != nil {
			t.Fatal(err)
		}
		again, err := u.DecodeHeader(wire)
		if err != nil {
			t.Fatal(err)
		}
		if again.Hops() != st.Hops() || again.Matches() != st.Matches() || !equalSlots(again.Slots(), st.Slots()) {
			t.Fatalf("re-encoded state differs: %d/%d/%v vs %d/%d/%v",
				again.Hops(), again.Matches(), again.Slots(), st.Hops(), st.Matches(), st.Slots())
		}
		// A decoded state must keep functioning.
		for h := 0; h < 10; h++ {
			st.Visit(5)
		}
	})
}

// FuzzVisitSequence drives arbitrary visit sequences through a
// compressed multi-slot detector: whatever the sequence, internal
// invariants hold (slots within range, hop counter monotone).
func FuzzVisitSequence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 3})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, seq []byte) {
		cfg := DefaultConfig()
		cfg.Chunks, cfg.Hashes, cfg.ZBits, cfg.HashIDs, cfg.Threshold = 2, 2, 9, true, 2
		u := MustNew(cfg)
		st := u.NewPacketState()
		sent := slotSentinel(cfg.ZBits)
		for i, b := range seq {
			if i > 200 {
				break
			}
			st.Visit(detect.SwitchID(b) + 1)
			if st.Hops() != uint64(i+1) {
				t.Fatalf("hop counter %d after %d visits", st.Hops(), i+1)
			}
			for _, sv := range st.Slots() {
				if sv > sent {
					t.Fatalf("slot %d out of range", sv)
				}
			}
			if st.Matches() >= cfg.Threshold {
				return // reported; state is dead from here on
			}
		}
	})
}
