// Command unroller-p4gen emits the P4₁₆ program implementing Unroller
// for a given configuration (the paper's §4 artifact), so the exact
// variant you simulated is the one you deploy.
//
// Usage:
//
//	unroller-p4gen [-b 4] [-c 1] [-H 1] [-z 32] [-th 1] [-schedule analysis|hardware] [-ttl-hopcount] [-o unroller.p4]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/p4gen"
)

// errUsage marks a bad command line; main exits 2 on it, as flag does.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "unroller-p4gen: %v\n", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// parseConfig maps the command line onto the detector configuration to
// compile and the output path (empty = stdout). A narrowed or multiplied
// identifier (z < 32, c > 1 or H > 1) implies hashed IDs.
func parseConfig(args []string, stderr io.Writer) (core.Config, string, error) {
	fs := flag.NewFlagSet("unroller-p4gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		b        = fs.Int("b", 4, "phase growth base")
		c        = fs.Int("c", 1, "chunks per phase")
		h        = fs.Int("H", 1, "hash functions")
		z        = fs.Uint("z", 32, "identifier width in bits")
		th       = fs.Int("th", 1, "reporting threshold")
		schedule = fs.String("schedule", "analysis", "phase schedule: analysis or hardware")
		ttl      = fs.Bool("ttl-hopcount", false, "derive the hop counter from the TTL (footnote 3)")
		out      = fs.String("o", "", "write to this file instead of stdout")
	)
	if err := fs.Parse(args); err != nil {
		return core.Config{}, "", fmt.Errorf("%w: %w", errUsage, err)
	}

	cfg := core.DefaultConfig()
	cfg.Base, cfg.Chunks, cfg.Hashes, cfg.ZBits, cfg.Threshold = *b, *c, *h, *z, *th
	cfg.HashIDs = cfg.Chunks > 1 || cfg.Hashes > 1 || cfg.ZBits < 32
	cfg.TTLHopCount = *ttl
	switch *schedule {
	case "analysis":
		cfg.Schedule = core.ScheduleAnalysis
	case "hardware":
		cfg.Schedule = core.ScheduleHardware
	default:
		return core.Config{}, "", fmt.Errorf("%w: unknown schedule %q", errUsage, *schedule)
	}
	return cfg, *out, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	cfg, out, err := parseConfig(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	if err != nil {
		return err
	}
	prog, err := p4gen.Generate(cfg)
	if err != nil {
		return err
	}
	if out == "" {
		_, err := io.WriteString(stdout, prog.Source)
		return err
	}
	if err := os.WriteFile(out, []byte(prog.Source), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s (%d header bits, %d slots)\n", out, cfg.HeaderBits(), prog.SlotCount)
	return nil
}
