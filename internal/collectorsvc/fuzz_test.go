package collectorsvc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
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
//     to the identical frame (the codec is self-consistent);
//   - a decoded report's item re-encodes to the very frame bytes it was
//     decoded from, and the journal sub-record written from that item
//     decodes back to an equal item: one item serves both codecs;
//   - encode then decode is the identity or an error: a report whose
//     hop, report hops and node are read from the input's first 24
//     bytes (as signed 64-bit values) is either refused with ErrBadFrame
//     or decodes to exactly those values, never to truncated ones.
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
	f.Add(wideFields(1<<32+5, 3, 1<<32+3))  // wider than the wire: refused
	f.Add(wideFields(math.MaxUint32, math.MaxUint32, math.MaxUint32))
	f.Add(wideFields(-1, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 24 {
			hop := int(int64(binary.BigEndian.Uint64(data)))
			ev := dataplane.LoopEvent{
				Report: detect.Report{Reporter: 9, Hops: int(int64(binary.BigEndian.Uint64(data[8:])))},
				Node:   int(int64(binary.BigEndian.Uint64(data[16:]))),
			}
			out, err := AppendReport(nil, 1, ev, hop)
			if err != nil {
				if !errors.Is(err, ErrBadFrame) {
					t.Fatalf("encoding hop %d, report hops %d, node %d: %v, want ErrBadFrame", hop, ev.Hops, ev.Node, err)
				}
			} else if back, _, err := DecodeFrame(out); err != nil || int(back.hop) != hop || back.event().Hops != ev.Hops || back.event().Node != ev.Node {
				t.Fatalf("hop %d, report hops %d, node %d decoded as %+v, %v", hop, ev.Hops, ev.Node, back, err)
			}
		}

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

		if df.Type == FrameReport {
			if out := df.appendFrame(nil); !bytes.Equal(out, data[:dn]) {
				t.Fatalf("report item re-encodes to %x, decoded from %x", out, data[:dn])
			}
			var rec journalRecord
			n := 0
			err := eachRecord(append([]byte{jrecBatch}, appendJournalItem(nil, 5, &df.item)...), &rec, func() error {
				n++
				return nil
			})
			if err != nil || n != 1 || rec.kind != jrecReport || rec.clientID != 5 || !reflect.DeepEqual(rec.it, df.item) {
				t.Fatalf("journal sub-record of %+v decoded as %d records, kind %d, client %d, %+v, %v", df.item, n, rec.kind, rec.clientID, rec.it, err)
			}
		}

		// Re-encode and decode again: the codec must be a fixed point.
		var out []byte
		var err error
		switch df.Type {
		case FrameHello:
			out = AppendHello(nil, df.ClientID)
		case FrameReport:
			out, err = AppendReport(nil, df.seq, df.event(), int(df.hop))
		case FrameTick:
			out = AppendTick(nil, df.seq)
		case FrameAck:
			out = AppendAck(nil, df.seq)
		case FrameHeartbeat:
			out = AppendHeartbeat(nil, df.seq)
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

// wideFields is a FuzzReportFrame seed whose first 24 bytes pick a
// report's hop, report hops and node for the encode-then-decode check.
func wideFields(hop, hops, node int64) []byte {
	b := binary.BigEndian.AppendUint64(nil, uint64(hop))
	b = binary.BigEndian.AppendUint64(b, uint64(hops))
	return binary.BigEndian.AppendUint64(b, uint64(node))
}
