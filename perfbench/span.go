package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// spanID indexes a recorded span; noSpan is "no parent" and what a full
// or nil tracer hands out.
type spanID int32

const noSpan spanID = -1

// spanRec is one timed call: which name, which span caused it, when it
// ran (ns since the tracer's origin) and how many operations it covered
// (a span around a loop of n calls reports per-call cost as duration/n).
type spanRec struct {
	name       uint16
	parent     spanID
	n          int32
	start, end int64
}

// tracer keeps spans in memory and writes them out when the run ends.
// It is used from one goroutine. Names are interned up front so that
// recording a span costs two clock reads and an append.
type tracer struct {
	origin time.Time
	names  []string
	index  map[string]uint16
	spans  []spanRec
	limit  int
}

func newTracer(limit int) *tracer {
	return &tracer{origin: time.Now(), index: map[string]uint16{}, limit: limit}
}

// name interns a span name.
func (t *tracer) name(s string) uint16 {
	if id, ok := t.index[s]; ok {
		return id
	}
	id := uint16(len(t.names))
	t.names = append(t.names, s)
	t.index[s] = id
	return id
}

// room reports whether another n spans fit under the limit; callers use
// it to decide whether to take the traced path for the next sample.
func (t *tracer) room(n int) bool { return len(t.spans)+n <= t.limit }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span; end closes it with the number of operations it
// covered.
// Both are no-ops on a nil tracer, so one code path serves traced and
// untraced runs.
func (t *tracer) begin(name string, parent spanID) spanID {
	if t == nil || len(t.spans) >= t.limit {
		return noSpan
	}
	id := t.name(name)
	t.spans = append(t.spans, spanRec{name: id, parent: parent, start: t.now()})
	return spanID(len(t.spans) - 1)
}

func (t *tracer) end(id spanID, n int) {
	if t == nil || id == noSpan {
		return
	}
	s := &t.spans[id]
	s.end = t.now()
	s.n = int32(n)
}

// add records an already-timed span (used where the start and end were
// taken by code that cannot hold a span open, e.g. between observer
// callbacks).
func (t *tracer) add(name string, parent spanID, start, end int64, n int) spanID {
	if t == nil || len(t.spans) >= t.limit {
		return noSpan
	}
	t.spans = append(t.spans, spanRec{name: t.name(name), parent: parent, start: start, end: end, n: int32(n)})
	return spanID(len(t.spans) - 1)
}

// agg is the per-name roll-up of a set of spans.
type agg struct {
	count int64         // spans
	ops   int64         // operations covered
	total time.Duration // summed durations
	self  time.Duration // summed self times
}

// perOp returns the mean self time per covered operation in ns.
func (a agg) perOp() float64 {
	if a.ops == 0 {
		return 0
	}
	return float64(a.self) / float64(a.ops)
}

// covered returns, for every span, how much of its interval the union of
// its children's intervals covers. Children are clipped to the parent, and
// overlapping children are counted once.
func covered(spans []spanRec) []int64 {
	kids := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make([]int64, len(spans))
	for i, ks := range kids {
		if len(ks) == 0 {
			continue
		}
		lo, hi := spans[i].start, spans[i].end
		sort.Slice(ks, func(a, b int) bool { return ks[a][0] < ks[b][0] })
		var sum, curS, curE int64
		open := false
		for _, k := range ks {
			s, e := max(k[0], lo), min(k[1], hi)
			if e <= s {
				continue
			}
			if open && s <= curE {
				curE = max(curE, e)
				continue
			}
			if open {
				sum += curE - curS
			}
			curS, curE, open = s, e, true
		}
		if open {
			sum += curE - curS
		}
		out[i] = sum
	}
	return out
}

// selfTimes rolls the spans up by name. A span's self time is its
// duration minus the part of it that its children cover.
func (t *tracer) selfTimes() map[string]agg {
	cov := covered(t.spans)
	out := map[string]agg{}
	for i, s := range t.spans {
		a := out[t.names[s.name]]
		d := s.end - s.start
		a.count++
		a.ops += int64(s.n)
		a.total += time.Duration(d)
		a.self += time.Duration(d - cov[i])
		out[t.names[s.name]] = a
	}
	return out
}

// coverage is the share of span id's duration spent in layer calls: the
// duration minus the self time of id itself and of every benchmark span
// ("bench.*") below it. It measures how much of a timed region the layer
// spans account for. Benchmark spans named "bench.wait.*" mark the
// thread waiting for work done elsewhere (the collector's goroutines
// acking reports): they are left out of the region, and wait returns
// their share of it.
func (t *tracer) coverage(id spanID) (layer, wait float64) {
	if t == nil || id == noSpan {
		return 0, 0
	}
	d := t.spans[id].end - t.spans[id].start
	if d <= 0 {
		return 0, 0
	}
	cov := covered(t.spans)
	self := func(i spanID) int64 { return t.spans[i].end - t.spans[i].start - cov[i] }
	below := func(i spanID) bool {
		for p := t.spans[i].parent; p != noSpan; p = t.spans[p].parent {
			if p == id {
				return true
			}
		}
		return false
	}
	idle, waited := self(id), int64(0)
	// Spans below id are recorded after it.
	for i := id + 1; int(i) < len(t.spans); i++ {
		name := t.names[t.spans[i].name]
		switch {
		case !strings.HasPrefix(name, "bench.") || !below(i):
		case strings.HasPrefix(name, "bench.wait."):
			waited += self(i)
		default:
			idle += self(i)
		}
	}
	if waited >= d {
		return 0, 1
	}
	return 1 - float64(idle)/float64(d-waited), float64(waited) / float64(d)
}

// writeFile writes every span as one text line:
// "id parent name start_ns end_ns ops".
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# id parent name start_ns end_ns ops")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d %d %s %d %d %d\n", i, s.parent, t.names[s.name], s.start, s.end, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
