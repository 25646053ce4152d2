package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"github.com/unroller/unroller/internal/detect"
)

// Record is one switch observation: packet pkt of flow was seen at
// switch sw (topology node) at the seq'th observation overall.
type Record struct {
	// Seq is the global observation sequence number (collector arrival
	// order).
	Seq uint64
	// Node is the observing topology node.
	Node uint32
	// Switch is the observing switch's identifier.
	Switch detect.SwitchID
	// Flow identifies the flow.
	Flow uint32
	// Packet identifies the packet within the flow.
	Packet uint64
}

const (
	magic      = "UTRC"
	version    = 1
	recordSize = 8 + 4 + 4 + 4 + 8
)

// Writer streams records to an io.Writer in the compact binary trace
// format: the magic and version, then one big-endian record per
// observation.
type Writer struct {
	w   *bufio.Writer
	seq uint64
}

// NewWriter returns a trace writer over w. The header is buffered at
// once, so an empty trace is still well formed; bufio keeps a write
// error and returns it from the next Append or Flush.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	bw.WriteString(magic)
	bw.WriteByte(version)
	return &Writer{w: bw}
}

// Append writes one observation, assigning the next sequence number,
// and returns the record written.
func (t *Writer) Append(node int, sw detect.SwitchID, flow uint32, packet uint64) (Record, error) {
	rec := Record{Seq: t.seq, Node: uint32(node), Switch: sw, Flow: flow, Packet: packet}
	var buf [recordSize]byte
	binary.BigEndian.PutUint64(buf[0:], rec.Seq)
	binary.BigEndian.PutUint32(buf[8:], rec.Node)
	binary.BigEndian.PutUint32(buf[12:], uint32(rec.Switch))
	binary.BigEndian.PutUint32(buf[16:], rec.Flow)
	binary.BigEndian.PutUint64(buf[20:], rec.Packet)
	if _, err := t.w.Write(buf[:]); err != nil {
		return Record{}, err
	}
	t.seq++
	return rec, nil
}

// Flush drains buffered records to the underlying writer.
func (t *Writer) Flush() error { return t.w.Flush() }

// Finding is one loop detected by offline analysis: a packet observed at
// the same switch twice, with the loop membership between the two
// observations.
type Finding struct {
	// Flow and Packet identify the trapped packet.
	Flow   uint32
	Packet uint64
	// Reporter is the switch observed twice.
	Reporter detect.SwitchID
	// FirstSeq and SecondSeq are the two observations' sequence
	// numbers.
	FirstSeq, SecondSeq uint64
	// Members lists the distinct switches visited between the repeat
	// (inclusive) — the loop's membership, in first-visit order.
	Members []detect.SwitchID
	// HopsObserved is the packet's total observation count up to
	// detection — what a collector must ingest before it can answer.
	HopsObserved int
}

// Analyze scans records (any order; they are re-sorted by sequence) and
// returns one finding per trapped packet: the first repeat visit, as a
// real-time detector would have flagged it. Records after a packet's
// first repeat do not produce further findings for that packet.
func Analyze(records []Record) []Finding {
	sorted := append([]Record(nil), records...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })

	type pktKey struct {
		flow uint32
		pkt  uint64
	}
	type pktState struct {
		firstSeen map[detect.SwitchID]uint64
		order     []detect.SwitchID
		hops      int
		done      bool
	}
	states := make(map[pktKey]*pktState)
	var findings []Finding
	for _, rec := range sorted {
		k := pktKey{rec.Flow, rec.Packet}
		st, ok := states[k]
		if !ok {
			st = &pktState{firstSeen: make(map[detect.SwitchID]uint64, 8)}
			states[k] = st
		}
		if st.done {
			continue
		}
		st.hops++
		if first, seen := st.firstSeen[rec.Switch]; seen {
			// Loop closed: members are the switches from the first
			// occurrence of the reporter onwards.
			var members []detect.SwitchID
			started := false
			for _, sw := range st.order {
				if sw == rec.Switch {
					started = true
				}
				if started {
					members = append(members, sw)
				}
			}
			findings = append(findings, Finding{
				Flow:         rec.Flow,
				Packet:       rec.Packet,
				Reporter:     rec.Switch,
				FirstSeq:     first,
				SecondSeq:    rec.Seq,
				Members:      members,
				HopsObserved: st.hops,
			})
			st.done = true
			continue
		}
		st.firstSeen[rec.Switch] = rec.Seq
		st.order = append(st.order, rec.Switch)
	}
	return findings
}

// Summary aggregates findings per flow for reporting.
type Summary struct {
	// Flows maps flow → number of trapped packets.
	Flows map[uint32]int
	// Records is the total observation count analysed.
	Records int
	// Findings is the total number of trapped packets.
	Findings int
}

// Summarize builds the per-flow roll-up.
func Summarize(records []Record, findings []Finding) Summary {
	s := Summary{Flows: make(map[uint32]int), Records: len(records), Findings: len(findings)}
	for _, f := range findings {
		s.Flows[f.Flow]++
	}
	return s
}

// String renders the summary.
func (s Summary) String() string {
	return fmt.Sprintf("trace: %d records, %d trapped packets across %d flows",
		s.Records, s.Findings, len(s.Flows))
}
