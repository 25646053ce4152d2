package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is one reading of the clocks a timed region is judged by: wall
// time, the process's user+sys CPU time, and the host's CPU jiffies from
// /proc/stat (to attribute a slow run to steal time).
type sample struct {
	wall        time.Time
	cpu         time.Duration
	steal, host uint64
}

func takeSample() sample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	steal, host := readProcStat()
	return sample{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		steal: steal,
		host:  host,
	}
}

// readProcStat returns the aggregate steal and total jiffies of the
// host's "cpu" line; zeros where /proc/stat is unavailable.
func readProcStat() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0, 0
	}
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already included in user.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// interval is the difference between two samples.
type interval struct {
	wall, cpu time.Duration
	stealFrac float64
}

func between(a, b sample) interval {
	iv := interval{wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu}
	if b.host > a.host {
		iv.stealFrac = float64(b.steal-a.steal) / float64(b.host-a.host)
	}
	return iv
}

// startRegion collects garbage left over from preparation, so it is not
// billed to the timed region, and then takes the opening sample.
func startRegion() sample {
	runtime.GC()
	return takeSample()
}

// liveHeapMB returns the live heap in MiB after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// memCounters returns the cumulative heap allocation count and bytes and
// the number of completed GC cycles.
func memCounters() (allocs, bytes uint64, gcs uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc, ms.NumGC
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tail is the highest percentile of a latency sample that still has at
// least tailBeyond samples above it.
type tail struct {
	value, pct float64
	n          int
}

const tailBeyond = 10

// tailOf returns the median and the tail of xs; xs is sorted in place.
// With fewer than tailBeyond+1 samples there is no tail and ok is false.
func tailOf(xs []float64) (p50 float64, t tail, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return median(xs), tail{n: n}, false
	}
	sort.Float64s(xs)
	p50 = median(xs)
	i := n - tailBeyond - 1
	return p50, tail{value: xs[i], pct: 100 * float64(i+1) / float64(n), n: n}, true
}

// host describes the machine a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func thisHost() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// phase sums the timed segments run on one side of a traced pass.
type phase struct {
	cpu, wall     time.Duration
	ops           int64
	allocs, bytes uint64
	gcs           uint32
}

func (p phase) cpuPerOp() float64 { return p.cpu.Seconds() / float64(p.ops) }

// alternateSegments is the number of timed segments in a traced pass.
const alternateSegments = 4

// alternate runs d of untraced and traced segments in turn (untraced
// first), so that a drift in host speed during the pass affects both
// sides alike. Their difference in CPU per op is the tracing overhead.
func alternate(d time.Duration, tr *tracer, run func(time.Duration, *tracer) (interval, int64, error)) (untraced, traced phase, err error) {
	for i := 0; i < alternateSegments; i++ {
		t, p := tr, &traced
		if i%2 == 0 {
			t, p = nil, &untraced
		}
		a0, b0, g0 := memCounters()
		iv, ops, err := run(d/alternateSegments, t)
		if err != nil {
			return untraced, traced, err
		}
		a1, b1, g1 := memCounters()
		p.cpu += iv.cpu
		p.wall += iv.wall
		p.ops += ops
		p.allocs += a1 - a0
		p.bytes += b1 - b0
		p.gcs += g1 - g0
	}
	return untraced, traced, nil
}

// overheadFrac is the tracing overhead: traced minus untraced CPU per op,
// over untraced.
func overheadFrac(u, t phase) float64 { return (t.cpuPerOp() - u.cpuPerOp()) / u.cpuPerOp() }
