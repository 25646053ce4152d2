package dataplane

import (
	"errors"
	"strings"
	"testing"

	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/detect"
	"github.com/unroller/unroller/internal/topology"
	"github.com/unroller/unroller/internal/xrand"
)

// These tests cover the pipeline's error paths, which the scenario tests
// never hit: malformed telemetry, inconsistent TTL-derived hop counts,
// and FIB installation on nonexistent ports or destinations.

// unknownID is an identifier NewAssignment never hands out, so no
// network has a switch holding it.
const unknownID = detect.SwitchID(0xFFFFFFFF)

// testSwitch returns node 0 of a 3-node ring: a switch with two ports
// whose tables are keyed by the ring's assignment.
func testSwitch(t *testing.T, cfg core.Config) *Switch {
	t.Helper()
	g, err := topology.Ring(3)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(g, topology.NewAssignment(g, xrand.New(0x11)), cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return n.Switch(0)
}

// TestProcessTruncatedTelemetry pins that a short Unroller header is
// rejected with the package-prefixed, sentinel-wrapped error chain.
func TestProcessTruncatedTelemetry(t *testing.T) {
	sw := testSwitch(t, core.DefaultConfig())
	p := &Packet{TTL: 10, Dst: unknownID, Telemetry: []byte{0x01}}
	_, err := sw.Process(p)
	if err == nil {
		t.Fatal("Process accepted a truncated header")
	}
	if !errors.Is(err, core.ErrHeaderTooShort) {
		t.Fatalf("error chain lost the sentinel: %v", err)
	}
	if !strings.HasPrefix(err.Error(), "dataplane: ") {
		t.Fatalf("error %q lacks the dataplane prefix", err)
	}
}

// TestDecodeInconsistentTTL pins the TTL-derived hop counting guard:
// after Process's per-hop decrement a legitimate packet can never still
// carry InitialTTL, so decodeTelemetry must refuse to derive a hop count
// from it. (TTL is a uint8, so Process itself cannot construct this
// state; the guard is the defence against a corrupted frame.)
func TestDecodeInconsistentTTL(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.TTLHopCount = true
	sw := testSwitch(t, cfg)
	tel, err := sw.unroller.NewPacketState().AppendHeader(nil)
	if err != nil {
		t.Fatalf("AppendHeader: %v", err)
	}
	p := &Packet{TTL: InitialTTL, Dst: unknownID, Telemetry: tel}
	st := sw.unroller.NewPacketState()
	if err := sw.decodeTelemetry(p, st); err == nil {
		t.Fatal("decodeTelemetry accepted a post-decrement TTL of InitialTTL")
	} else if !strings.Contains(err.Error(), "TTL") {
		t.Fatalf("error %q does not name the TTL inconsistency", err)
	}

	// A plausible TTL decodes fine and derives the right hop count.
	p.TTL = InitialTTL - 3 // injected at 255, now entering hop 3
	if err := sw.decodeTelemetry(p, st); err != nil {
		t.Fatalf("decodeTelemetry: %v", err)
	}
	if st.Hops() != 2 {
		t.Fatalf("derived hop count = %d, want 2 (pre-Visit)", st.Hops())
	}
}

// TestSetRouteBadPort pins FIB installation errors for out-of-range
// ports and for destinations outside the network's assignment.
func TestSetRouteBadPort(t *testing.T) {
	sw := testSwitch(t, core.DefaultConfig())
	dst := sw.assign.ID(2)
	for _, port := range []PortID{-1, 2, 99} {
		if err := sw.SetRoute(dst, port); err == nil {
			t.Errorf("SetRoute accepted nonexistent port %d", port)
		}
		if err := sw.SetBackup(dst, port); err == nil {
			t.Errorf("SetBackup accepted nonexistent port %d", port)
		}
	}
	if err := sw.SetRoute(dst, 1); err != nil {
		t.Errorf("SetRoute rejected valid port: %v", err)
	}

	t.Run("unknown destination", func(t *testing.T) {
		sw := testSwitch(t, core.DefaultConfig())
		if err := sw.SetRoute(unknownID, 1); err == nil || !strings.HasPrefix(err.Error(), "dataplane: ") {
			t.Errorf("SetRoute to an ID outside the assignment: err = %v, want a dataplane error", err)
		}
		if err := sw.SetBackup(unknownID, 1); err == nil || !strings.HasPrefix(err.Error(), "dataplane: ") {
			t.Errorf("SetBackup to an ID outside the assignment: err = %v, want a dataplane error", err)
		}
		if r := sw.Routes(); len(r) != 0 {
			t.Errorf("rejected installs left routes %v", r)
		}
		// Lookups and the pipeline treat the ID as unroutable.
		if _, ok := sw.Route(unknownID); ok {
			t.Error("Route found an entry for an ID outside the assignment")
		}
		p := &Packet{TTL: 10, Dst: unknownID}
		if dec, err := sw.Process(p); err != nil || dec.Disposition != DropNoRoute {
			t.Errorf("Process towards an unknown ID: %v, %v; want drop-no-route", dec.Disposition, err)
		}
		p = &Packet{Flags: FlagCollect, TTL: 10, Dst: unknownID, Telemetry: []byte{0, 0, 0, 1, 0}}
		if dec, err := sw.Process(p); err != nil || dec.Disposition != DropNoRoute {
			t.Errorf("collection lap towards an unknown ID: %v, %v; want drop-no-route", dec.Disposition, err)
		}
		if s := sw.Stats(); s.Received != 2 || s.NoRoute != 2 {
			t.Errorf("stats after two unroutable packets: %+v", s)
		}
	})
}
