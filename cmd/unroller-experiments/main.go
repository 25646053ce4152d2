// Command unroller-experiments runs the complete evaluation — every
// figure and table of the paper — and emits a single markdown document
// in the format of EXPERIMENTS.md, ready to diff against the committed
// results.
//
// Usage:
//
//	unroller-experiments [-runs 200000] [-minbits-runs 2000] [-seed 1] [-only figure2,table5] [-o results.md]
//
// The defaults complete in minutes on a laptop; -runs 3000000 and
// -minbits-runs 3000000 reproduce the paper's full Monte Carlo budget.
// -only figure2 (or figure3 … figure7, figureaesop) regenerates one
// sensitivity figure.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/unroller/unroller/internal/experiments"
)

// errUsage marks a bad command line; main exits 2 on it, as flag does.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "unroller-experiments: %v\n", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// section is one figure or table of the document, in output order.
type section struct {
	id    string
	table func() (*experiments.Table, error)
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("unroller-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runs        = fs.Int("runs", 200000, "Monte Carlo runs per figure data point")
		minbitsRuns = fs.Int("minbits-runs", 2000, "runs per candidate in Table 5's zero-FP searches")
		timeRuns    = fs.Int("time-runs", 20000, "runs for Table 5's detection-time column")
		seed        = fs.Uint64("seed", 1, "experiment seed")
		only        = fs.String("only", "", "comma-separated subset, e.g. figure2,table5 (empty = everything)")
		lstep       = fs.Int("lstep", 1, "step of figures' L axes")
		out         = fs.String("o", "", "write markdown to this file instead of stdout")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	opts := experiments.Options{Runs: *runs, Seed: *seed, LStep: *lstep}
	var sections []section
	figs := experiments.Figures()
	var figIDs []string
	for id := range figs {
		figIDs = append(figIDs, id)
	}
	sort.Strings(figIDs)
	for _, id := range figIDs {
		fig := figs[id]
		sections = append(sections, section{"figure" + id, func() (*experiments.Table, error) { return fig(opts), nil }})
	}
	sections = append(sections,
		section{"table4", func() (*experiments.Table, error) {
			return experiments.Table4(experiments.Table4Options{Seed: *seed})
		}},
		section{"appendixA", func() (*experiments.Table, error) { return experiments.AppendixA(120), nil }},
		section{"ablations", func() (*experiments.Table, error) { return experiments.Ablations(opts) }},
		section{"collateral", experiments.Collateral},
		section{"table5", func() (*experiments.Table, error) {
			return experiments.Table5(experiments.Table5Options{
				TimeRuns:    *timeRuns,
				MinBitsRuns: *minbitsRuns,
				Seed:        *seed,
			})
		}},
	)

	want := map[string]bool{}
	if *only != "" {
		valid := map[string]bool{}
		var ids []string
		for _, s := range sections {
			valid[s.id] = true
			ids = append(ids, s.id)
		}
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if !valid[id] {
				return fmt.Errorf("%w: unknown -only ID %q (have %s)", errUsage, id, strings.Join(ids, ", "))
			}
			want[id] = true
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# Unroller reproduction — experiment results\n\n")
	fmt.Fprintf(&b, "Generated by unroller-experiments (runs=%d, minbits-runs=%d, seed=%d).\n\n",
		*runs, *minbitsRuns, *seed)
	for _, s := range sections {
		if len(want) > 0 && !want[s.id] {
			continue
		}
		start := time.Now()
		tab, err := s.table()
		if err != nil {
			return err
		}
		b.WriteString(tab.Markdown())
		b.WriteString("\n")
		fmt.Fprintf(stderr, "%s done in %v\n", s.id, time.Since(start).Round(time.Millisecond))
	}

	if *out == "" {
		_, err := io.WriteString(stdout, b.String())
		return err
	}
	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", *out)
	return nil
}
