// Package collectorsvc is the networked loop-report collector: the
// paper's prototype streams detections from the data plane to a
// control-plane collector in real time (§5), and this package models
// that switch→collector channel as a real, lossy, concurrent transport
// instead of an in-process method call.
//
// The pieces:
//
//   - wire.go: a versioned, length-prefixed binary frame format carrying
//     loop reports (dataplane.LoopEvent + the reporting hop), client
//     hellos, epoch ticks, and acknowledgements;
//   - server.go: a TCP service that ingests frames, shards events by
//     flow hash across N independent dataplane.Controller instances,
//     and absorbs bursts in per-shard queues that, when full, make the
//     connection's reader wait instead of dropping anything;
//   - client.go: a reconnecting sender with capped exponential backoff
//     plus seeded jitter, a bounded local buffer with its own drop
//     accounting, batched writes, and sequence-numbered exactly-once
//     delivery across reconnects;
//   - admin.go: a plaintext /statsz admin listener exposing per-shard
//     and aggregate counters (text and the JSON schema pinned in
//     internal/dataplane).
//
// Accounting is exact end to end: every event a client enqueues is
// eventually delivered to a shard controller or counted as dropped by
// the client — never silently lost, even across connection kills (see
// the package's end-to-end tests).
package collectorsvc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
)

// Wire format. Every frame is length-prefixed so a reader can delimit
// the stream without understanding the body:
//
//	offset  size  field
//	0       4     length of the rest of the frame (version..body), BE
//	4       1     wire version (currently 1)
//	5       1     frame type
//	6       n     body, by type:
//
//	FrameHello   client id (8)
//	FrameReport  seq (8) | flow (4) | reporter (4) | report hops (4) |
//	             node (4) | journey hop (4) | member count (2) |
//	             members (4 each)
//	FrameTick    seq (8)
//	FrameAck     seq (8)
//	FrameHeartbeat  seq (8, the client's highest sent seq; informational)
//
// Field encodings follow the emulator's packet frame: big-endian
// fixed-width integers, switch IDs as their raw 32 bits. Sequence numbers are per-client and strictly increasing;
// the server acknowledges the highest sequence it has accounted for and
// treats anything at or below a client's high-water mark as a transport
// duplicate, which is what turns at-least-once retransmission into
// exactly-once ingest.
const (
	// WireVersion is the frame format version; decoders reject others.
	WireVersion = 1

	// MaxFrameBody caps the post-prefix frame size. Readers validate the
	// length prefix against it before allocating, so a corrupt or
	// hostile 4-byte prefix cannot force a huge allocation.
	MaxFrameBody = 4096

	// MaxMembers caps the loop membership list in one report frame
	// (double the data plane's collection cap, leaving headroom).
	MaxMembers = 64

	lenPrefixSize  = 4
	frameOverhead  = 2 // version + type
	helloBodyLen   = 8
	seqBodyLen     = 8
	reportFixedLen = 30 // seq 8 + flow 4 + reporter 4 + hops 4 + node 4 + hop 4 + count 2
)

// Frame types.
const (
	// FrameHello opens a connection: it binds the connection to a client
	// identity so sequence state survives reconnects.
	FrameHello = 1
	// FrameReport carries one loop report.
	FrameReport = 2
	// FrameTick marks a collector epoch boundary: the server advances
	// every shard controller's logical clock. Meaningful only in
	// single-feeder deployments (concurrent tickers would multiply the
	// clock rate).
	FrameTick = 3
	// FrameAck is the server→client acknowledgement of the highest
	// accounted sequence number.
	FrameAck = 4
	// FrameHeartbeat is a client keep-alive. It is not sequence-accounted
	// (the seq field is informational); the server answers with an ack of
	// its current high-water mark, so an idle but healthy session always
	// has traffic inside both sides' timeout windows.
	FrameHeartbeat = 5
)

// Errors returned by the decoders.
var (
	// ErrShortFrame means the buffer ends before the frame does.
	ErrShortFrame = errors.New("collectorsvc: short frame")
	// ErrOversizeFrame means the length prefix exceeds MaxFrameBody.
	ErrOversizeFrame = errors.New("collectorsvc: oversize frame")
	// ErrBadVersion means an unknown wire version.
	ErrBadVersion = errors.New("collectorsvc: unknown wire version")
	// ErrBadFrame means a structurally invalid frame body.
	ErrBadFrame = errors.New("collectorsvc: malformed frame")
)

// Frame is one decoded frame. Which fields are meaningful depends on
// Type: ClientID for hellos, Seq for reports/ticks/acks, Hop and Event
// for reports.
type Frame struct {
	Type     uint8
	ClientID uint64
	Seq      uint64
	Hop      int
	Event    dataplane.LoopEvent
}

// appendPrefix reserves the length prefix and writes version and type,
// returning the buffer and the prefix offset for patchLen.
func appendPrefix(dst []byte, typ uint8) ([]byte, int) {
	off := len(dst)
	dst = append(dst, 0, 0, 0, 0, WireVersion, typ)
	return dst, off
}

// patchLen fills in the length prefix at off once the body is written.
func patchLen(dst []byte, off int) []byte {
	binary.BigEndian.PutUint32(dst[off:], uint32(len(dst)-off-lenPrefixSize))
	return dst
}

// AppendHello appends a hello frame for the given client identity.
func AppendHello(dst []byte, clientID uint64) []byte {
	dst, off := appendPrefix(dst, FrameHello)
	dst = binary.BigEndian.AppendUint64(dst, clientID)
	return patchLen(dst, off)
}

// AppendReport appends a report frame. hop is the reporting packet's
// journey hop count when the report fired (the dedup context); seq is
// the client's sequence number for exactly-once ingest. hop, ev.Hops
// and ev.Node must lie in [0, 2^32), the wire's 32 bits; anything else
// is rejected with ErrBadFrame rather than truncated.
func AppendReport(dst []byte, seq uint64, ev dataplane.LoopEvent, hop int) ([]byte, error) {
	if len(ev.Members) > MaxMembers {
		return dst, fmt.Errorf("%w: %d members exceeds cap %d", ErrBadFrame, len(ev.Members), MaxMembers)
	}
	// The fields are 32 bits on the wire: a negative or wider value
	// would decode as a different one (uint64 of a negative int is
	// above the bound too).
	if uint64(hop) > math.MaxUint32 || uint64(ev.Hops) > math.MaxUint32 || uint64(ev.Node) > math.MaxUint32 {
		return dst, fmt.Errorf("%w: hop/node outside [0, 2^32) (hop=%d report-hops=%d node=%d)", ErrBadFrame, hop, ev.Hops, ev.Node)
	}
	dst, off := appendPrefix(dst, FrameReport)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, ev.Flow)
	dst = binary.BigEndian.AppendUint32(dst, uint32(ev.Reporter))
	dst = binary.BigEndian.AppendUint32(dst, uint32(ev.Hops))
	dst = binary.BigEndian.AppendUint32(dst, uint32(ev.Node))
	dst = binary.BigEndian.AppendUint32(dst, uint32(hop))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(ev.Members)))
	for _, id := range ev.Members {
		dst = binary.BigEndian.AppendUint32(dst, uint32(id))
	}
	return patchLen(dst, off), nil
}

// AppendTick appends an epoch-tick frame.
func AppendTick(dst []byte, seq uint64) []byte {
	dst, off := appendPrefix(dst, FrameTick)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	return patchLen(dst, off)
}

// AppendAck appends an acknowledgement of the highest accounted seq.
func AppendAck(dst []byte, seq uint64) []byte {
	dst, off := appendPrefix(dst, FrameAck)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	return patchLen(dst, off)
}

// AppendHeartbeat appends a keep-alive frame carrying the client's
// highest sent sequence (informational only).
func AppendHeartbeat(dst []byte, seq uint64) []byte {
	dst, off := appendPrefix(dst, FrameHeartbeat)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	return patchLen(dst, off)
}

// DecodeFrame parses one frame from the front of buf, returning the
// frame and the bytes consumed. It never allocates proportionally to
// the length prefix — only to the member count, which is validated
// against both MaxMembers and the actual body size first.
func DecodeFrame(buf []byte) (Frame, int, error) {
	var f Frame
	if len(buf) < lenPrefixSize {
		return f, 0, fmt.Errorf("%w: %d bytes, need %d for the length prefix", ErrShortFrame, len(buf), lenPrefixSize)
	}
	n := int(binary.BigEndian.Uint32(buf))
	if n > MaxFrameBody {
		return f, 0, fmt.Errorf("%w: length prefix %d exceeds cap %d", ErrOversizeFrame, n, MaxFrameBody)
	}
	if n < frameOverhead {
		return f, 0, fmt.Errorf("%w: length prefix %d below the %d-byte version+type", ErrBadFrame, n, frameOverhead)
	}
	if len(buf) < lenPrefixSize+n {
		return f, 0, fmt.Errorf("%w: %d of %d frame bytes", ErrShortFrame, len(buf)-lenPrefixSize, n)
	}
	if err := decodeBody(&f, buf[lenPrefixSize:lenPrefixSize+n]); err != nil {
		return f, 0, err
	}
	return f, lenPrefixSize + n, nil
}

// decodeBody parses version, type, and the type-specific body.
func decodeBody(f *Frame, b []byte) error {
	if b[0] != WireVersion {
		return fmt.Errorf("%w: %d", ErrBadVersion, b[0])
	}
	f.Type = b[1]
	body := b[frameOverhead:]
	switch f.Type {
	case FrameHello:
		if len(body) != helloBodyLen {
			return fmt.Errorf("%w: hello body of %d bytes, want %d", ErrBadFrame, len(body), helloBodyLen)
		}
		f.ClientID = binary.BigEndian.Uint64(body)
	case FrameTick, FrameAck, FrameHeartbeat:
		if len(body) != seqBodyLen {
			return fmt.Errorf("%w: type-%d body of %d bytes, want %d", ErrBadFrame, f.Type, len(body), seqBodyLen)
		}
		f.Seq = binary.BigEndian.Uint64(body)
	case FrameReport:
		if len(body) < reportFixedLen {
			return fmt.Errorf("%w: report body of %d bytes, want at least %d", ErrBadFrame, len(body), reportFixedLen)
		}
		f.Seq = binary.BigEndian.Uint64(body)
		f.Event.Flow = binary.BigEndian.Uint32(body[8:])
		f.Event.Reporter = detect.SwitchID(binary.BigEndian.Uint32(body[12:]))
		f.Event.Hops = int(binary.BigEndian.Uint32(body[16:]))
		f.Event.Node = int(binary.BigEndian.Uint32(body[20:]))
		f.Hop = int(binary.BigEndian.Uint32(body[24:]))
		count := int(binary.BigEndian.Uint16(body[28:]))
		if count > MaxMembers {
			return fmt.Errorf("%w: %d members exceeds cap %d", ErrBadFrame, count, MaxMembers)
		}
		if len(body) != reportFixedLen+4*count {
			return fmt.Errorf("%w: report body of %d bytes for %d members, want %d", ErrBadFrame, len(body), count, reportFixedLen+4*count)
		}
		if count > 0 {
			members := make([]detect.SwitchID, count)
			for i := range members {
				members[i] = detect.SwitchID(binary.BigEndian.Uint32(body[reportFixedLen+4*i:]))
			}
			f.Event.Members = members
		} else {
			f.Event.Members = nil
		}
	default:
		return fmt.Errorf("%w: unknown frame type %d", ErrBadFrame, f.Type)
	}
	return nil
}

// ReadFrameBuffered reads one frame from br without copying the body
// out of br's internal buffer: the frame is peeked in place, decoded,
// and discarded. br's buffer must be at least lenPrefixSize +
// MaxFrameBody bytes (newFrameReader's is; the server's 32 KiB reader
// is), so any valid frame fits and Peek never fails on size. A hostile
// length prefix is rejected before anything past it is read. io.EOF is
// returned verbatim at a clean frame boundary; a stream truncated
// mid-frame surfaces as io.ErrUnexpectedEOF.
func ReadFrameBuffered(br *bufio.Reader) (Frame, error) {
	var f Frame
	prefix, err := br.Peek(lenPrefixSize)
	if err != nil {
		if errors.Is(err, io.EOF) && len(prefix) > 0 {
			return f, fmt.Errorf("%w: truncated length prefix", ErrShortFrame)
		}
		return f, err
	}
	n := int(binary.BigEndian.Uint32(prefix))
	if n > MaxFrameBody {
		return f, fmt.Errorf("%w: length prefix %d exceeds cap %d", ErrOversizeFrame, n, MaxFrameBody)
	}
	if n < frameOverhead {
		return f, fmt.Errorf("%w: length prefix %d below the %d-byte version+type", ErrBadFrame, n, frameOverhead)
	}
	whole, err := br.Peek(lenPrefixSize + n)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return f, io.ErrUnexpectedEOF
		}
		return f, err
	}
	if err := decodeBody(&f, whole[lenPrefixSize:]); err != nil {
		return f, err
	}
	br.Discard(lenPrefixSize + n)
	return f, nil
}

// newFrameReader wraps r in the smallest reader ReadFrameBuffered
// accepts: one whole maximum-size frame, prefix included.
func newFrameReader(r io.Reader) *bufio.Reader {
	return bufio.NewReaderSize(r, lenPrefixSize+MaxFrameBody)
}

// frameBuffered reports whether a complete frame is already sitting in
// br's buffer, so the next ReadFrameBuffered cannot block on the
// socket. A buffered-but-invalid length prefix also reports true: the
// reader will surface the wire error without blocking.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < lenPrefixSize {
		return false
	}
	prefix, _ := br.Peek(lenPrefixSize)
	n := int(binary.BigEndian.Uint32(prefix))
	if n > MaxFrameBody || n < frameOverhead {
		return true
	}
	return br.Buffered() >= lenPrefixSize+n
}
