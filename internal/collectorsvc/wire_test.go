package collectorsvc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
)

// testItem is the item a client queues for report ev at journey hop
// hop, numbered seq. ev must be one the wire can carry.
func testItem(seq uint64, ev dataplane.LoopEvent, hop int) item {
	it, err := reportItem(ev, hop)
	if err != nil {
		panic(err)
	}
	it.seq = seq
	return it
}

// TestFrameRoundTrip encodes every frame type and decodes it back, both
// through DecodeFrame (buffer) and ReadFrameBuffered (stream).
func TestFrameRoundTrip(t *testing.T) {
	ev := dataplane.LoopEvent{
		Report:  detect.Report{Reporter: 0xDEADBEEF, Hops: 17},
		Node:    42,
		Flow:    0x01020304,
		Members: []detect.SwitchID{1, 2, 0xFFFFFFFF},
	}
	report, err := AppendReport(nil, 7, ev, 23)
	if err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{
		AppendHello(nil, 0xCAFEBABE12345678),
		report,
		AppendTick(nil, 99),
		AppendAck(nil, 100),
	}
	want := []Frame{
		{Type: FrameHello, ClientID: 0xCAFEBABE12345678},
		{Type: FrameReport, item: item{seq: 7, flow: 0x01020304, reporter: 0xDEADBEEF, hops: 17, node: 42, hop: 23, members: ev.Members}},
		{Type: FrameTick, item: item{seq: 99, kind: itemTick}},
		{Type: FrameAck, item: item{seq: 100}},
	}

	var stream []byte
	for i, buf := range frames {
		f, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if n != len(buf) {
			t.Errorf("frame %d: consumed %d of %d bytes", i, n, len(buf))
		}
		if !reflect.DeepEqual(f, want[i]) {
			t.Errorf("frame %d: got %+v want %+v", i, f, want[i])
		}
		if f.Type == FrameReport && !reflect.DeepEqual(f.event(), ev) {
			t.Errorf("report delivers event %+v, want %+v", f.event(), ev)
		}
		stream = append(stream, buf...)
	}

	// The same four frames back to back through the stream reader.
	br := newFrameReader(bytes.NewReader(stream))
	for i := range want {
		f, err := ReadFrameBuffered(br)
		if err != nil {
			t.Fatalf("stream frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(f, want[i]) {
			t.Errorf("stream frame %d: got %+v want %+v", i, f, want[i])
		}
	}
	if _, err := ReadFrameBuffered(br); !errors.Is(err, io.EOF) {
		t.Errorf("end of stream: got %v, want io.EOF", err)
	}
}

// TestDecodeFrameErrors feeds the decoder structurally broken input and
// checks each failure maps to the right sentinel error.
func TestDecodeFrameErrors(t *testing.T) {
	good, err := AppendReport(nil, 1, dataplane.LoopEvent{
		Report: detect.Report{Reporter: 5, Hops: 3},
		Flow:   9,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	oversize := binary.BigEndian.AppendUint32(nil, MaxFrameBody+1)
	badVersion := append([]byte(nil), good...)
	badVersion[lenPrefixSize] = WireVersion + 1
	badType := append([]byte(nil), good...)
	badType[lenPrefixSize+1] = 200
	// A report frame whose member count promises more members than the
	// body carries.
	badCount := append([]byte(nil), good...)
	binary.BigEndian.PutUint16(badCount[lenPrefixSize+frameOverhead+28:], 3)
	hugeCount := append([]byte(nil), good...)
	binary.BigEndian.PutUint16(hugeCount[lenPrefixSize+frameOverhead+28:], MaxMembers+1)
	// A length prefix smaller than version+type.
	tiny := binary.BigEndian.AppendUint32(nil, 1)
	tiny = append(tiny, WireVersion)

	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrShortFrame},
		{"short prefix", good[:3], ErrShortFrame},
		{"truncated body", good[:len(good)-2], ErrShortFrame},
		{"oversize prefix", oversize, ErrOversizeFrame},
		{"sub-header prefix", tiny, ErrBadFrame},
		{"unknown version", badVersion, ErrBadVersion},
		{"unknown type", badType, ErrBadFrame},
		{"member count overruns body", badCount, ErrBadFrame},
		{"member count over cap", hugeCount, ErrBadFrame},
	}
	for _, tc := range cases {
		if _, _, err := DecodeFrame(tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestReadFrameTruncation: a stream that dies mid-frame is
// io.ErrUnexpectedEOF (transport), not a wire-format error — the server
// must not count a connection kill as a bad frame. A stream that dies
// inside the length prefix is a short frame, also not a wire error.
func TestReadFrameTruncation(t *testing.T) {
	buf := AppendTick(nil, 4)
	for cut := 1; cut < len(buf); cut++ {
		_, err := ReadFrameBuffered(newFrameReader(bytes.NewReader(buf[:cut])))
		if err == nil {
			t.Fatalf("cut %d: decoded a truncated frame", cut)
		}
		if isWireError(err) {
			t.Errorf("cut %d: truncation classified as wire error: %v", cut, err)
		}
		if cut >= lenPrefixSize && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestReadFrameOversizeNoAlloc: a hostile length prefix is rejected
// without allocating anything near its claimed size.
func TestReadFrameOversizeNoAlloc(t *testing.T) {
	in := binary.BigEndian.AppendUint32(nil, 1<<30)
	in = append(in, make([]byte, 64)...)
	br := newFrameReader(bytes.NewReader(in))
	var err error
	n := allocBytes(func() { _, err = ReadFrameBuffered(br) })
	if !errors.Is(err, ErrOversizeFrame) {
		t.Fatalf("got %v, want ErrOversizeFrame", err)
	}
	if n >= MaxFrameBody {
		t.Errorf("rejecting the frame allocated %d bytes", n)
	}
}

// allocBytes reports the heap bytes allocated while f runs.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAppendReportRejectsBadEvents: events the wire format cannot carry
// are refused at encode time, not mangled. The 32-bit fields take every
// value in [0, 2^32) and round-trip it; one past either end is refused,
// where a truncating encoder would send 2^32+5 as 5.
func TestAppendReportRejectsBadEvents(t *testing.T) {
	const wide = math.MaxUint32 + 1
	cases := []struct {
		name string
		ev   dataplane.LoopEvent
		hop  int
		ok   bool
	}{
		{"oversized membership", dataplane.LoopEvent{Members: make([]detect.SwitchID, MaxMembers+1)}, 0, false},
		{"negative hop", dataplane.LoopEvent{}, -1, false},
		{"negative report hops", dataplane.LoopEvent{Report: detect.Report{Hops: -1}}, 0, false},
		{"negative node", dataplane.LoopEvent{Node: -3}, 0, false},
		{"hop 2^32", dataplane.LoopEvent{}, wide, false},
		{"hop 2^32+5", dataplane.LoopEvent{}, wide + 5, false},
		{"report hops 2^32", dataplane.LoopEvent{Report: detect.Report{Hops: wide}}, 0, false},
		{"node 2^32+3", dataplane.LoopEvent{Node: wide + 3}, 0, false},
		{"max hop", dataplane.LoopEvent{}, math.MaxUint32, true},
		{"max report hops and node", dataplane.LoopEvent{Report: detect.Report{Hops: math.MaxUint32}, Node: math.MaxUint32}, 7, true},
	}
	for _, tc := range cases {
		b, err := AppendReport(nil, 1, tc.ev, tc.hop)
		if !tc.ok {
			if !errors.Is(err, ErrBadFrame) {
				t.Errorf("%s: got %v, want ErrBadFrame", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		f, _, err := DecodeFrame(b)
		if err != nil || int(f.hop) != tc.hop || f.event().Hops != tc.ev.Hops || f.event().Node != tc.ev.Node {
			t.Errorf("%s: decoded %+v, %v; want hop %d, report hops %d, node %d", tc.name, f, err, tc.hop, tc.ev.Hops, tc.ev.Node)
		}
	}
}
