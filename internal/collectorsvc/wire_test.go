package collectorsvc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
)

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
		{Type: FrameReport, Seq: 7, Hop: 23, Event: ev},
		{Type: FrameTick, Seq: 99},
		{Type: FrameAck, Seq: 100},
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
// are refused at encode time, not mangled.
func TestAppendReportRejectsBadEvents(t *testing.T) {
	tooMany := dataplane.LoopEvent{Members: make([]detect.SwitchID, MaxMembers+1)}
	if _, err := AppendReport(nil, 1, tooMany, 0); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversized membership: got %v, want ErrBadFrame", err)
	}
	if _, err := AppendReport(nil, 1, dataplane.LoopEvent{}, -1); !errors.Is(err, ErrBadFrame) {
		t.Errorf("negative hop: got %v, want ErrBadFrame", err)
	}
	negNode := dataplane.LoopEvent{Node: -3}
	if _, err := AppendReport(nil, 1, negNode, 0); !errors.Is(err, ErrBadFrame) {
		t.Errorf("negative node: got %v, want ErrBadFrame", err)
	}
}
