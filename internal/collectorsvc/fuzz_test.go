package collectorsvc

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
)

// FuzzReportFrame throws arbitrary bytes at the frame decoder. The
// invariants under fuzz:
//
//   - no panic, whatever the input (truncated payloads, oversized length
//     prefixes, unknown versions, garbage member counts);
//   - no allocation proportional to a hostile length prefix — the
//     stream reader decodes in place and allocates less than
//     MaxFrameBody bytes per frame;
//   - DecodeFrame and ReadFrameBuffered agree: same frame or same
//     error class;
//   - anything that decodes successfully re-encodes to bytes that decode
//     to the identical frame (the codec is self-consistent).
func FuzzReportFrame(f *testing.F) {
	ev := dataplane.LoopEvent{
		Report:  detect.Report{Reporter: 0xDEADBEEF, Hops: 6},
		Node:    3,
		Flow:    77,
		Members: []detect.SwitchID{0xA, 0xB},
	}
	report, err := AppendReport(nil, 12, ev, 6)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(report)
	f.Add(AppendHello(nil, 1))
	f.Add(AppendTick(nil, 2))
	f.Add(AppendAck(nil, 3))
	f.Add(report[:len(report)-3])           // truncated mid-body
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})   // absurd length prefix
	f.Add([]byte{0, 0, 0, 2, 9, FrameTick}) // unknown version

	f.Fuzz(func(t *testing.T, data []byte) {
		df, dn, derr := DecodeFrame(data)

		// allocBytes reads process-wide counters, so allocations by the
		// fuzzing engine's own goroutines can land inside the window.
		// Others' allocations only add, so the least of three reads
		// through fresh readers is the reader's own cost.
		var sf Frame
		var serr error
		n := ^uint64(0)
		for k := 0; k < 3; k++ {
			br := newFrameReader(bytes.NewReader(data))
			n = min(n, allocBytes(func() { sf, serr = ReadFrameBuffered(br) }))
		}
		if n >= MaxFrameBody {
			t.Fatalf("stream reader allocated %d bytes (>= MaxFrameBody %d) on %d input bytes", n, MaxFrameBody, len(data))
		}
		if (derr == nil) != (serr == nil) {
			t.Fatalf("decoders disagree: DecodeFrame err=%v, ReadFrameBuffered err=%v", derr, serr)
		}
		if derr != nil {
			return
		}
		if dn <= 0 || dn > len(data) {
			t.Fatalf("consumed %d of %d bytes", dn, len(data))
		}
		if !reflect.DeepEqual(df, sf) {
			t.Fatalf("decoders disagree on frame: %+v vs %+v", df, sf)
		}

		// Re-encode and decode again: the codec must be a fixed point.
		var out []byte
		var err error
		switch df.Type {
		case FrameHello:
			out = AppendHello(nil, df.ClientID)
		case FrameReport:
			out, err = AppendReport(nil, df.Seq, df.Event, df.Hop)
		case FrameTick:
			out = AppendTick(nil, df.Seq)
		case FrameAck:
			out = AppendAck(nil, df.Seq)
		case FrameHeartbeat:
			out = AppendHeartbeat(nil, df.Seq)
		default:
			t.Fatalf("decoder produced unknown type %d", df.Type)
		}
		if err != nil {
			t.Fatalf("re-encoding a decoded frame: %v", err)
		}
		back, bn, err := DecodeFrame(out)
		if err != nil {
			t.Fatalf("decoding a re-encoded frame: %v", err)
		}
		if bn != len(out) || !reflect.DeepEqual(back, df) {
			t.Fatalf("round trip drifted: %+v vs %+v", back, df)
		}
	})
}
