package dataplane

import (
	"encoding/binary"
	"fmt"

	"github.com/unroller/unroller/internal/detect"
)

// This file implements the loop-membership collection reaction of §3.5:
// Unroller itself stays lightweight, but once a loop is detected the
// reporting switch can tag the packet (FlagCollect) and let it take one
// more lap while every switch appends its identifier — INT-style, but
// only after detection and only around the loop, so the recording
// overhead is paid exactly once per loop event instead of on every
// packet. When the packet returns to the initiating switch, the full
// membership is delivered to the controller.

// maxCollectIDs bounds a collection record; loops longer than this are
// truncated (the controller still learns a prefix of the membership).
const maxCollectIDs = 32

// collectRecord is the telemetry payload of a FlagCollect packet:
//
//	offset  size  field
//	0       4     initiator switch id
//	4       1     recorded id count
//	5       4·n   recorded switch ids, in hop order
type collectRecord struct {
	Initiator detect.SwitchID
	IDs       []detect.SwitchID
}

// marshalCollect serialises the record.
func (r *collectRecord) marshal() ([]byte, error) {
	if len(r.IDs) > maxCollectIDs {
		return nil, fmt.Errorf("dataplane: collection record with %d ids exceeds cap %d", len(r.IDs), maxCollectIDs)
	}
	buf := make([]byte, 5+4*len(r.IDs))
	binary.BigEndian.PutUint32(buf, uint32(r.Initiator))
	buf[4] = byte(len(r.IDs))
	for i, id := range r.IDs {
		binary.BigEndian.PutUint32(buf[5+4*i:], uint32(id))
	}
	return buf, nil
}

// unmarshalCollect parses a record.
func unmarshalCollect(buf []byte) (*collectRecord, error) {
	if len(buf) < 5 {
		return nil, fmt.Errorf("%w: collection record of %d bytes", ErrMalformed, len(buf))
	}
	n := int(buf[4])
	if n > maxCollectIDs {
		// Reject at parse time: a crafted count byte up to 255 would
		// otherwise parse fine and only fail deep in the pipeline when
		// the record is re-marshalled against the cap.
		return nil, fmt.Errorf("%w: collection record claims %d ids, cap is %d", ErrMalformed, n, maxCollectIDs)
	}
	if len(buf) < 5+4*n {
		return nil, fmt.Errorf("%w: collection record truncated (%d of %d ids)", ErrMalformed, (len(buf)-5)/4, n)
	}
	r := &collectRecord{Initiator: detect.SwitchID(binary.BigEndian.Uint32(buf))}
	for i := 0; i < n; i++ {
		r.IDs = append(r.IDs, detect.SwitchID(binary.BigEndian.Uint32(buf[5+4*i:])))
	}
	return r, nil
}

// LoopAction selects what a switch does with a packet on which it just
// detected a loop.
type LoopAction uint8

const (
	// ActionDrop reports to the controller and discards the packet —
	// the paper's base design (§4).
	ActionDrop LoopAction = iota
	// ActionReroute deflects the packet to the backup port for its
	// destination when one is installed (the §6 PURR-style reaction),
	// falling back to drop otherwise.
	ActionReroute
	// ActionCollect tags the packet to take one more lap recording
	// switch identifiers, then reports the full loop membership when
	// it returns (§3.5).
	ActionCollect
)

// String names the action.
func (a LoopAction) String() string {
	switch a {
	case ActionDrop:
		return "drop"
	case ActionReroute:
		return "reroute"
	case ActionCollect:
		return "collect"
	default:
		return fmt.Sprintf("LoopAction(%d)", uint8(a))
	}
}

// processCollect handles a packet already in collection mode: the
// initiator closes the lap and reports; everyone else appends its
// identifier and forwards along the (still looping) FIB towards the
// destination at node dst.
func (s *Switch) processCollect(p *Packet, dst int) (Decision, error) {
	rec, err := unmarshalCollect(p.Telemetry)
	if err != nil {
		return Decision{}, fmt.Errorf("dataplane: %v: %w", s.ID, err)
	}
	if rec.Initiator == s.ID {
		// Full lap completed: the recorded ids are the loop members
		// (the initiator itself closes the set).
		members := append(rec.IDs, s.ID)
		return Decision{
			Disposition: DropLoop,
			LoopReport:  &detect.Report{Reporter: s.ID, Hops: 0},
			Members:     members,
		}, nil
	}
	if len(rec.IDs) < maxCollectIDs {
		rec.IDs = append(rec.IDs, s.ID)
		tel, err := rec.marshal()
		if err != nil {
			return Decision{}, err
		}
		p.Telemetry = tel
	}
	return s.forward(dst), nil
}
