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
//     hellos, epoch ticks, and acknowledgements, and the item: the one
//     shape a report or tick takes from the client's rings through the
//     decoded frame, the connection's batch, the journal and the shard
//     rings to delivery;
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

// item is one report, tick or barrier as the collector holds it from
// socket to shard: in the client's rings, in a decoded Frame, in a
// connection's ingest batch, in the shard rings and in recovery. Its
// fields are the wire's, at the wire's widths, so nothing is converted
// or copied between layers; members is decoded once, and the journal
// encoder and the delivered event share it. 56 bytes.
type item struct {
	seq      uint64
	flow     uint32
	reporter uint32
	hops     uint32 // the report's hop count
	node     uint32
	hop      uint32 // the journey hop when the report fired: the dedup context
	kind     uint8  // itemReport, itemTick or itemBarrier
	members  []detect.SwitchID
}

// Item kinds. A barrier carries nothing: the shard it is queued on
// holds the barrier itself (see shard.pushBarrier).
const (
	itemReport = iota
	itemTick
	itemBarrier
)

// reportItem builds the item for report ev at journey hop hop. It
// refuses with ErrBadFrame what the wire cannot carry: more than
// MaxMembers members, or a hop, report hop count or node outside
// [0, 2^32), which would decode as a different value rather than be
// truncated. The item shares ev's members.
func reportItem(ev dataplane.LoopEvent, hop int) (item, error) {
	if len(ev.Members) > MaxMembers {
		return item{}, fmt.Errorf("%w: %d members exceeds cap %d", ErrBadFrame, len(ev.Members), MaxMembers)
	}
	// uint64 of a negative int is above the bound too.
	if uint64(hop) > math.MaxUint32 || uint64(ev.Hops) > math.MaxUint32 || uint64(ev.Node) > math.MaxUint32 {
		return item{}, fmt.Errorf("%w: hop/node outside [0, 2^32) (hop=%d report-hops=%d node=%d)", ErrBadFrame, hop, ev.Hops, ev.Node)
	}
	return item{
		flow:     ev.Flow,
		reporter: uint32(ev.Reporter),
		hops:     uint32(ev.Hops),
		node:     uint32(ev.Node),
		hop:      uint32(hop),
		members:  ev.Members,
	}, nil
}

// event returns the report as the controller takes it. The event shares
// the item's members, so they must never be written again: each report's
// members are a slice of their own.
func (it *item) event() dataplane.LoopEvent {
	ev := dataplane.LoopEvent{
		Report: detect.Report{Reporter: detect.SwitchID(it.reporter), Hops: int(it.hops)},
		Node:   int(it.node),
		Flow:   it.flow,
	}
	if len(it.members) > 0 {
		ev.Members = it.members
	}
	return ev
}

// appendFrame appends the item's wire frame: a tick's or a report's.
func (it *item) appendFrame(dst []byte) []byte {
	if it.kind == itemTick {
		return AppendTick(dst, it.seq)
	}
	dst, off := appendPrefix(dst, FrameReport)
	dst = binary.BigEndian.AppendUint64(dst, it.seq)
	dst = binary.BigEndian.AppendUint32(dst, it.flow)
	dst = binary.BigEndian.AppendUint32(dst, it.reporter)
	dst = binary.BigEndian.AppendUint32(dst, it.hops)
	dst = binary.BigEndian.AppendUint32(dst, it.node)
	dst = binary.BigEndian.AppendUint32(dst, it.hop)
	return patchLen(appendMembers(dst, it.members), off)
}

// appendMembers appends a member count and the members, as both the
// wire and the journal write them.
func appendMembers(dst []byte, members []detect.SwitchID) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(members)))
	for _, id := range members {
		dst = binary.BigEndian.AppendUint32(dst, uint32(id))
	}
	return dst
}

// decodeMembers decodes count members, 4 bytes each, from b: into dst's
// storage when it has room, else into a new slice of exactly count.
func decodeMembers(dst []detect.SwitchID, b []byte, count int) []detect.SwitchID {
	if cap(dst) < count {
		dst = make([]detect.SwitchID, count)
	}
	dst = dst[:count]
	for i := range dst {
		dst[i] = detect.SwitchID(binary.BigEndian.Uint32(b[4*i:]))
	}
	return dst
}

// Frame is one decoded frame. Which fields are meaningful depends on
// Type: ClientID for hellos, the item's seq for reports, ticks, acks and
// heartbeats, and the rest of the item for reports.
type Frame struct {
	Type     uint8
	ClientID uint64
	item
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
	it, err := reportItem(ev, hop)
	if err != nil {
		return dst, err
	}
	it.seq = seq
	return it.appendFrame(dst), nil
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
	n, err := frameLen(buf)
	if err != nil {
		return f, 0, err
	}
	if len(buf) < n {
		return f, 0, fmt.Errorf("%w: %d of %d frame bytes", ErrShortFrame, len(buf)-lenPrefixSize, n-lenPrefixSize)
	}
	if err := decodeBody(&f, buf[lenPrefixSize:n]); err != nil {
		return f, 0, err
	}
	return f, n, nil
}

// frameLen checks the length prefix at the front of prefix and returns
// the whole frame's length, prefix included.
func frameLen(prefix []byte) (int, error) {
	n := int(binary.BigEndian.Uint32(prefix))
	if n > MaxFrameBody {
		return 0, fmt.Errorf("%w: length prefix %d exceeds cap %d", ErrOversizeFrame, n, MaxFrameBody)
	}
	if n < frameOverhead {
		return 0, fmt.Errorf("%w: length prefix %d below the %d-byte version+type", ErrBadFrame, n, frameOverhead)
	}
	return lenPrefixSize + n, nil
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
		f.seq = binary.BigEndian.Uint64(body)
		if f.Type == FrameTick {
			f.kind = itemTick
		}
	case FrameReport:
		if len(body) < reportFixedLen {
			return fmt.Errorf("%w: report body of %d bytes, want at least %d", ErrBadFrame, len(body), reportFixedLen)
		}
		count := int(binary.BigEndian.Uint16(body[28:]))
		if count > MaxMembers {
			return fmt.Errorf("%w: %d members exceeds cap %d", ErrBadFrame, count, MaxMembers)
		}
		if len(body) != reportFixedLen+4*count {
			return fmt.Errorf("%w: report body of %d bytes for %d members, want %d", ErrBadFrame, len(body), count, reportFixedLen+4*count)
		}
		f.seq = binary.BigEndian.Uint64(body)
		f.flow = binary.BigEndian.Uint32(body[8:])
		f.reporter = binary.BigEndian.Uint32(body[12:])
		f.hops = binary.BigEndian.Uint32(body[16:])
		f.node = binary.BigEndian.Uint32(body[20:])
		f.hop = binary.BigEndian.Uint32(body[24:])
		f.members = decodeMembers(nil, body[reportFixedLen:], count)
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
	n, err := frameLen(prefix)
	if err != nil {
		return f, err
	}
	whole, err := br.Peek(n)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return f, io.ErrUnexpectedEOF
		}
		return f, err
	}
	if err := decodeBody(&f, whole[lenPrefixSize:]); err != nil {
		return f, err
	}
	br.Discard(n)
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
	n, err := frameLen(prefix)
	return err != nil || br.Buffered() >= n
}
