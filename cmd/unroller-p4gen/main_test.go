package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/p4gen"
)

// TestParseConfig pins the flag → core.Config mapping, including the
// rule that a narrowed or multiplied identifier hashes IDs.
func TestParseConfig(t *testing.T) {
	cases := []struct {
		args []string
		want func(*core.Config)
	}{
		{nil, func(*core.Config) {}},
		{[]string{"-z", "16"}, func(c *core.Config) { c.ZBits, c.HashIDs = 16, true }},
		{[]string{"-c", "2", "-H", "3"}, func(c *core.Config) { c.Chunks, c.Hashes, c.HashIDs = 2, 3, true }},
		{[]string{"-b", "6", "-th", "4", "-schedule", "hardware", "-ttl-hopcount"}, func(c *core.Config) {
			c.Base, c.Threshold, c.Schedule, c.TTLHopCount = 6, 4, core.ScheduleHardware, true
		}},
	}
	for _, tc := range cases {
		got, out, err := parseConfig(tc.args, io.Discard)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		want := core.DefaultConfig()
		tc.want(&want)
		if !reflect.DeepEqual(got, want) || out != "" {
			t.Errorf("%v: got %+v out %q, want %+v", tc.args, got, out, want)
		}
	}
	for _, bad := range [][]string{{"-schedule", "bogus"}, {"-z", "-1"}, {"-nope"}} {
		if _, _, err := parseConfig(bad, io.Discard); !errors.Is(err, errUsage) {
			t.Errorf("%v: err = %v, want a usage error", bad, err)
		}
	}
}

// TestRunEmitsGenerate: the emitted source is p4gen.Generate's for the
// same config, on stdout or in the -o file.
func TestRunEmitsGenerate(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ZBits, cfg.HashIDs = 16, true
	want, err := p4gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var stdout bytes.Buffer
	if err := run([]string{"-z", "16"}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != want.Source {
		t.Fatal("stdout differs from p4gen.Generate")
	}

	path := filepath.Join(t.TempDir(), "unroller.p4")
	var stderr bytes.Buffer
	stdout.Reset()
	if err := run([]string{"-z", "16", "-o", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want.Source || stdout.Len() != 0 {
		t.Fatalf("file differs from p4gen.Generate (stdout %d bytes)", stdout.Len())
	}
	if !strings.Contains(stderr.String(), "wrote "+path+" (24 header bits") {
		t.Fatalf("stderr %q", stderr.String())
	}

	// A config the generator refuses is a plain error, not a usage one.
	if err := run([]string{"-b", "1"}, io.Discard, io.Discard); err == nil || errors.Is(err, errUsage) {
		t.Fatalf("invalid config: err = %v", err)
	}
}
