package experiments

import (
	"fmt"

	"github.com/unroller/unroller/internal/baseline"
	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/detect"
	"github.com/unroller/unroller/internal/sim"
)

// Options shapes the sensitivity experiments (figures 2–7).
type Options struct {
	// Runs per data point. The paper uses 3M; 100k–300k reproduce the
	// shapes to well within line width. Defaults to 200000.
	Runs int
	// Seed makes every figure reproducible.
	Seed uint64
	// LStep thins the L axis (default 1, the paper's resolution).
	LStep int
	// Workers caps parallelism (0 = GOMAXPROCS).
	Workers int
}

func (o Options) normalise() Options {
	if o.Runs <= 0 {
		o.Runs = 200000
	}
	if o.LStep <= 0 {
		o.LStep = 1
	}
	return o
}

func (o Options) mc() sim.MCConfig {
	return sim.MCConfig{Runs: o.Runs, Seed: o.Seed, Workers: o.Workers}
}

// ints returns from, from+step, …, up to and including to (when it lands
// on the grid): one figure axis. It panics on a non-positive step or an
// empty range.
func ints(from, to, step int) []int {
	if step <= 0 {
		panic("experiments: step must be positive")
	}
	if to < from {
		panic(fmt.Sprintf("experiments: empty range [%d, %d]", from, to))
	}
	out := make([]int, 0, (to-from)/step+1)
	for v := from; v <= to; v += step {
		out = append(out, v)
	}
	return out
}

// avgTime runs one (B, L, cfg) data point and formats the mean hops/X.
func avgTime(cfg core.Config, B, L int, o Options) string {
	det := core.MustNew(cfg)
	res := sim.MonteCarlo(sim.Fixed(det), B, L, o.mc())
	return fmt.Sprintf("%.3f", res.Time.Mean())
}

// Figure2 — average detection time vs loop length L for phase bases
// b ∈ {2, 4, 6}; B = 5, full 32-bit identifiers (the paper's Figure 2).
// Smaller b resets more aggressively and detects slower.
func Figure2(o Options) *Table {
	o = o.normalise()
	t := &Table{
		ID:      "figure2",
		Caption: "Avg detection time (#hops/X) varying L and b; B=5, z=32, c=H=Th=1",
		Headers: []string{"L", "b=2", "b=4", "b=6"},
	}
	for _, L := range ints(1, 30, o.LStep) {
		row := []string{fmt.Sprintf("%d", L)}
		for _, b := range []int{2, 4, 6} {
			cfg := core.DefaultConfig()
			cfg.Base = b
			row = append(row, avgTime(cfg, 5, L, o))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure3 — average detection time vs L for pre-loop lengths
// B ∈ {0, 3, 7}; b = 4. Shorter prefixes mean earlier, smaller phases and
// hence relatively slower detection.
func Figure3(o Options) *Table {
	o = o.normalise()
	t := &Table{
		ID:      "figure3",
		Caption: "Avg detection time (#hops/X) varying L and B; b=4, z=32, c=H=Th=1",
		Headers: []string{"L", "B=0", "B=3", "B=7"},
	}
	for _, L := range ints(1, 30, o.LStep) {
		row := []string{fmt.Sprintf("%d", L)}
		for _, B := range []int{0, 3, 7} {
			row = append(row, avgTime(core.DefaultConfig(), B, L, o))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure4 — average detection time vs L for (c, H) ∈ {(1,1), (2,2),
// (4,4)}; b = 4, B = 5. More stored identifiers detect faster.
func Figure4(o Options) *Table {
	o = o.normalise()
	t := &Table{
		ID:      "figure4",
		Caption: "Avg detection time (#hops/X) varying L and c,H; b=4, B=5",
		Headers: []string{"L", "c=1,H=1", "c=2,H=2", "c=4,H=4"},
	}
	for _, L := range ints(1, 30, o.LStep) {
		row := []string{fmt.Sprintf("%d", L)}
		for _, ch := range []int{1, 2, 4} {
			cfg := core.DefaultConfig()
			cfg.Chunks, cfg.Hashes = ch, ch
			cfg.HashIDs = ch > 1
			row = append(row, avgTime(cfg, 5, L, o))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure5a — average detection time vs chunk count c for H ∈ {1, 2, 4};
// L = 20, B = 5. Unroller is more sensitive to c than to H.
func Figure5a(o Options) *Table {
	o = o.normalise()
	t := &Table{
		ID:      "figure5a",
		Caption: "Avg detection time (#hops/X) varying c; L=20, B=5, b=4",
		Headers: []string{"c", "H=1", "H=2", "H=4"},
	}
	for _, c := range ints(1, 8, 1) {
		row := []string{fmt.Sprintf("%d", c)}
		for _, h := range []int{1, 2, 4} {
			cfg := core.DefaultConfig()
			cfg.Chunks, cfg.Hashes = c, h
			cfg.HashIDs = true
			row = append(row, avgTime(cfg, 5, 20, o))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure5b — average detection time vs hash count H for c ∈ {1, 2, 4};
// L = 20, B = 5.
func Figure5b(o Options) *Table {
	o = o.normalise()
	t := &Table{
		ID:      "figure5b",
		Caption: "Avg detection time (#hops/X) varying H; L=20, B=5, b=4",
		Headers: []string{"H", "c=1", "c=2", "c=4"},
	}
	for _, h := range ints(1, 10, 1) {
		row := []string{fmt.Sprintf("%d", h)}
		for _, c := range []int{1, 2, 4} {
			cfg := core.DefaultConfig()
			cfg.Chunks, cfg.Hashes = c, h
			cfg.HashIDs = true
			row = append(row, avgTime(cfg, 5, 20, o))
		}
		t.AddRow(row...)
	}
	return t
}

// fpRate runs one false-positive data point on a 20-hop loop-free path.
func fpRate(cfg core.Config, o Options) string {
	det := core.MustNew(cfg)
	r := sim.FalsePositiveTrial(sim.Fixed(det), 20, o.mc())
	if r.Events() == 0 {
		return fmt.Sprintf("<%.1e", r.UpperBound95())
	}
	return fmt.Sprintf("%.2e", r.Rate())
}

// Figure6a — false-positive rate vs hash width z for (c, H) ∈ {(1,1),
// (2,2), (4,4)} on a loop-free 20-hop path (B = 20, L = 0). More stored
// identifiers mean more collision targets and a higher FP rate at equal z.
func Figure6a(o Options) *Table {
	o = o.normalise()
	t := &Table{
		ID:      "figure6a",
		Caption: "False positives vs z on a loop-free 20-hop path; Th=1",
		Headers: []string{"z", "c=1,H=1", "c=2,H=2", "c=4,H=4"},
	}
	for _, z := range ints(2, 18, 2) {
		row := []string{fmt.Sprintf("%d", z)}
		for _, ch := range []int{1, 2, 4} {
			cfg := core.DefaultConfig()
			cfg.ZBits = uint(z)
			cfg.Chunks, cfg.Hashes = ch, ch
			cfg.HashIDs = true
			row = append(row, fpRate(cfg, o))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure6b — false-positive rate vs z for thresholds Th ∈ {1, 2, 4};
// c = H = 1. The threshold counter cuts false positives exponentially.
func Figure6b(o Options) *Table {
	o = o.normalise()
	t := &Table{
		ID:      "figure6b",
		Caption: "False positives vs z on a loop-free 20-hop path; c=H=1",
		Headers: []string{"z", "Th=1", "Th=2", "Th=4"},
	}
	for _, z := range ints(2, 18, 2) {
		row := []string{fmt.Sprintf("%d", z)}
		for _, th := range []int{1, 2, 4} {
			cfg := core.DefaultConfig()
			cfg.ZBits = uint(z)
			cfg.Threshold = th
			cfg.HashIDs = true
			row = append(row, fpRate(cfg, o))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure7 — average detection time vs L for Th ∈ {1, 2, 4}; b = 4,
// B = 5, z = 32. Each extra required match costs about one extra loop
// traversal.
func Figure7(o Options) *Table {
	o = o.normalise()
	t := &Table{
		ID:      "figure7",
		Caption: "Avg detection time (#hops/X) using the counting technique, varying Th; b=4, B=5",
		Headers: []string{"L", "Th=1", "Th=2", "Th=4"},
	}
	for _, L := range ints(1, 30, o.LStep) {
		row := []string{fmt.Sprintf("%d", L)}
		for _, th := range []int{1, 2, 4} {
			cfg := core.DefaultConfig()
			cfg.Threshold = th
			row = append(row, avgTime(cfg, 5, L, o))
		}
		t.AddRow(row...)
	}
	return t
}

// FigureAesop — the §5-style comparison the paper never ran: average
// detection time of Unroller (b = 4) against the Aesop/Brent
// hop-limit-free baseline and the INT full-path encoder, varying L at
// B = 5. INT is the optimum (exactly X hops, at linear header cost);
// Aesop's doubling windows cost roughly one extra loop traversal plus
// the teleport latency; Unroller's phase schedule sits between them at
// constant header size. The emulator-side counterpart is the churn
// oracle's per-scenario confusion matrices (unroller-emu -scenario ...
// -baseline aesop).
func FigureAesop(o Options) *Table {
	o = o.normalise()
	t := &Table{
		ID:      "aesop",
		Caption: "Avg detection time (#hops/X): unroller b=4 vs aesop (Brent) vs INT; B=5, z=32",
		Headers: []string{"L", "unroller", "aesop", "int"},
	}
	avgDet := func(det detect.Detector, L int) string {
		res := sim.MonteCarlo(sim.Fixed(det), 5, L, o.mc())
		return fmt.Sprintf("%.3f", res.Time.Mean())
	}
	for _, L := range ints(1, 30, o.LStep) {
		t.AddRow(
			fmt.Sprintf("%d", L),
			avgTime(core.DefaultConfig(), 5, L, o),
			avgDet(baseline.Aesop{}, L),
			avgDet(baseline.INT{}, L),
		)
	}
	return t
}

// Figures maps figure IDs to drivers, for the CLI.
func Figures() map[string]func(Options) *Table {
	return map[string]func(Options) *Table{
		"2":     Figure2,
		"3":     Figure3,
		"4":     Figure4,
		"5a":    Figure5a,
		"5b":    Figure5b,
		"6a":    Figure6a,
		"6b":    Figure6b,
		"7":     Figure7,
		"aesop": FigureAesop,
	}
}
