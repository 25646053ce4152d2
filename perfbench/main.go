// Command perfbench is the repository's benchmark: it runs one named
// workload for a fixed time, checks the program's outputs, and prints
// every metric by name with its unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// With -trace 0 the metrics are the gated end-to-end ones, measured with
// tracing off. With -trace 1 the run records spans around the calls it
// makes into each layer and prints the per-layer metrics instead; that
// run covers the layers of all three workloads, so every layer metric is
// measured whichever workload is named. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload fwd-fattree32 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int64
	problems          []string
	e2e               metrics // gated end-to-end metrics (untraced)
	layer             metrics // per-layer metrics (traced run)
	counts            string  // seed-determined totals, identical across runs of a seed
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workload is one named input set (README.md says why each was chosen).
// dev is the seed to tune against; heldout is kept for confirming a claim
// on inputs not used while the change was written.
type workload struct {
	name         string
	dev, heldout uint64
	// run measures the workload with tracing off for d and fills the
	// end-to-end metrics.
	run func(seed uint64, d time.Duration, o *outcome) error
	// traced runs the workload for d/2 untraced and d/2 traced (the
	// difference is the tracing overhead) and fills its layer metrics.
	traced func(seed uint64, d time.Duration, tr *tracer, o *outcome) (traceStats, error)
	// minCoverage is the least span coverage a traced pass may show
	// (README.md states it).
	minCoverage float64
}

// traceStats is what a traced pass reports about the measurement itself.
type traceStats struct {
	overheadFrac float64 // traced minus untraced cpu_us_per_op, over untraced
	coverage     float64 // share of the traced region covered by layer spans, waits left out
}

var workloads = []workload{
	{name: "fwd-fattree32", dev: 1, heldout: 1001, run: runFwd, traced: tracedFwd, minCoverage: 0.95},
	{name: "churn-microloop", dev: 2, heldout: 1002, run: runChurn, traced: tracedChurn, minCoverage: 0.95},
	// Ingest's coverage is of the client's time outside ack waits, which
	// the benchmark's own probe bookkeeping takes a larger share of.
	{name: "ingest-journal", dev: 3, heldout: 1003, run: runIngest, traced: tracedIngest, minCoverage: 0.75},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name (see -list)")
		seed    = flag.Uint64("seed", 0, "input seed")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced per-layer run, 0 = gated end-to-end run")
		out     = flag.String("out", ".bench_build", "directory for run files (journals, spans)")
		list    = flag.Bool("list", false, "list workloads with their development and held-out seeds")
	)
	flag.Parse()
	if *list {
		for _, w := range workloads {
			fmt.Printf("%-16s dev-seed=%-4d heldout-seed=%d\n", w.name, w.dev, w.heldout)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %v), -seconds >= 1 and -trace 0|1\n", names())
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	runDir = *out
	d := time.Duration(*seconds) * time.Second
	var (
		o   *outcome
		err error
	)
	if *trace == 1 {
		o, err = tracedRun(w, *seed, d)
	} else {
		o = &outcome{e2e: metrics{}}
		before := takeSample()
		err = w.run(*seed, d, o)
		fmt.Printf("# steal_frac=%.4f over the whole run\n", between(before, takeSample()).stealFrac)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		os.Exit(1)
	}
	h, _ := json.Marshal(thisHost()) // a struct of plain fields always marshals
	fmt.Printf("# host %s\n", h)
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("# counts %s\n", o.counts)
	ms := o.e2e
	if *trace == 1 {
		ms = o.layer
	}
	for _, k := range sortedKeys(ms) {
		fmt.Printf("# %-40s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
	for _, p := range o.problems {
		fmt.Printf("# CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{len(o.problems) == 0, o.attempted, o.failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if len(o.problems) > 0 {
		os.Exit(1)
	}
}

// runDir holds the run's files (journals, spans).
var runDir string

// tracedRun runs every workload's traced pass, the named one first, with
// an equal share of the time each, and reports the per-layer metrics.
func tracedRun(w workload, seed uint64, d time.Duration) (*outcome, error) {
	o := &outcome{layer: metrics{}}
	tr := newTracer(1 << 21)
	before := takeSample()
	order := []workload{w}
	for _, x := range workloads {
		if x.name != w.name {
			order = append(order, x)
		}
	}
	overhead, coverage := math.Inf(-1), 1.0
	var counts []string
	for _, x := range order {
		s := seed
		if x.name != w.name {
			s = x.dev
		}
		xo := &outcome{layer: o.layer}
		st, err := x.traced(s, d/time.Duration(len(order)), tr, xo)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", x.name, err)
		}
		o.attempted += xo.attempted
		o.failed += xo.failed
		for _, p := range xo.problems {
			o.problem("%s: %s", x.name, p)
		}
		counts = append(counts, x.name+"{"+xo.counts+"}")
		fmt.Printf("# %s: trace overhead %.4f, span coverage %.4f\n", x.name, st.overheadFrac, st.coverage)
		if err := checkCoverage(st.coverage, x.minCoverage); err != nil {
			o.problem("%s: %v", x.name, err)
		}
		overhead = math.Max(overhead, st.overheadFrac)
		coverage = math.Min(coverage, st.coverage)
	}
	o.counts = fmt.Sprint(counts)
	o.layer.set("host.steal_frac", "ratio", between(before, takeSample()).stealFrac)
	o.layer.set("bench.trace_overhead_frac", "ratio", overhead)
	o.layer.set("bench.span_coverage", "ratio", coverage)
	path := filepath.Join(runDir, fmt.Sprintf("spans-%s-seed%d.txt", w.name, seed))
	if err := tr.writeFile(path); err != nil {
		return nil, err
	}
	fmt.Printf("# spans written to %s (%d spans)\n", path, len(tr.spans))
	return o, nil
}

func names() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

func sortedKeys(m metrics) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median of their CPU times. CPU rather than wall time, because steal on a
// shared host moved the wall time of one churn set-up from 0.77 to 1.42 s
// within one set of runs.
const setupReps = 5

// medianSetup runs setup setupReps times, keeping the state of the last
// rep, and returns the median process CPU and wall seconds of a set-up.
func medianSetup(setup func() error) (cpuS, wallS float64, err error) {
	var cpu, wall []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := takeSample()
		if err := setup(); err != nil {
			return 0, 0, err
		}
		iv := between(start, takeSample())
		cpu = append(cpu, iv.cpu.Seconds())
		wall = append(wall, iv.wall.Seconds())
	}
	return median(cpu), median(wall), nil
}

func printSetup(cpuS, wallS float64) {
	fmt.Printf("# setup: median of %d: %.4fs cpu, %.4fs wall\n", setupReps, cpuS, wallS)
}
