package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// fastOpts keeps the drivers quick in unit tests; shape assertions below
// tolerate the extra noise.
func fastOpts() Options {
	return Options{Runs: 4000, Seed: 1, LStep: 7}
}

// cell parses a numeric cell; "<x.xe-y" upper bounds count as their
// bound.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimPrefix(s, "<")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("unparseable cell %q: %v", s, err)
	}
	return v
}

// TestFigure2Shape: smaller b detects slower (the paper's Figure 2
// ordering) and all values are in [1, 4.67].
func TestFigure2Shape(t *testing.T) {
	tab := Figure2(fastOpts())
	if len(tab.Rows) == 0 || len(tab.Headers) != 4 {
		t.Fatal("table shape")
	}
	for _, row := range tab.Rows {
		b2, b4, b6 := cell(t, row[1]), cell(t, row[2]), cell(t, row[3])
		for _, v := range []float64{b2, b4, b6} {
			if v < 1 || v > 4.7 {
				t.Fatalf("L=%s: time %v outside [1, 4.67]", row[0], v)
			}
		}
		if !(b2 >= b4-0.15) {
			t.Errorf("L=%s: b=2 (%v) should not beat b=4 (%v)", row[0], b2, b4)
		}
	}
}

// TestFigure3Shape: larger B detects relatively faster (paper Figure 3).
// The ordering only emerges once the loop dominates the walk (at L=1 a
// self-loop with B=0 trivially detects at 2·X), so assert from L ≥ 8.
func TestFigure3Shape(t *testing.T) {
	tab := Figure3(fastOpts())
	for _, row := range tab.Rows {
		if l, _ := strconv.Atoi(row[0]); l < 8 {
			continue
		}
		b0, b7 := cell(t, row[1]), cell(t, row[3])
		if !(b0 >= b7-0.15) {
			t.Errorf("L=%s: B=0 (%v) should be slower than B=7 (%v)", row[0], b0, b7)
		}
	}
}

// TestFigure4Shape: more chunks/hashes detect faster (paper Figure 4).
func TestFigure4Shape(t *testing.T) {
	tab := Figure4(fastOpts())
	for _, row := range tab.Rows {
		c1, c4 := cell(t, row[1]), cell(t, row[3])
		if !(c4 <= c1+0.15) {
			t.Errorf("L=%s: c=H=4 (%v) should not be slower than c=H=1 (%v)", row[0], c4, c1)
		}
	}
}

// TestFigure5Shapes: both axes improve detection; c matters more than H
// at the far end (the paper's §5 observation).
func TestFigure5Shapes(t *testing.T) {
	o := fastOpts()
	a := Figure5a(o)
	firstA, lastA := a.Rows[0], a.Rows[len(a.Rows)-1]
	if !(cell(t, lastA[1]) <= cell(t, firstA[1])+0.1) {
		t.Errorf("figure5a: c=8 (%s) should beat c=1 (%s) at H=1", lastA[1], firstA[1])
	}
	b := Figure5b(o)
	firstB, lastB := b.Rows[0], b.Rows[len(b.Rows)-1]
	if !(cell(t, lastB[1]) <= cell(t, firstB[1])+0.1) {
		t.Errorf("figure5b: H=10 (%s) should beat H=1 (%s) at c=1", lastB[1], firstB[1])
	}
	// Sensitivity comparison: going c:1→4 at H=1 helps at least as much
	// as going H:1→4 at c=1 (allowing noise).
	gainC := cell(t, a.Rows[0][1]) - cell(t, a.Rows[3][1]) // c=1→4, H=1
	gainH := cell(t, b.Rows[0][1]) - cell(t, b.Rows[3][1]) // H=1→4, c=1
	if gainC < gainH-0.1 {
		t.Errorf("chunks gain %.3f should dominate hashes gain %.3f", gainC, gainH)
	}
}

// TestFigure6Shapes: FP rates fall with z (6a) and with Th (6b).
func TestFigure6Shapes(t *testing.T) {
	o := Options{Runs: 20000, Seed: 2}
	a := Figure6a(o)
	// Compare z=2 (first row) with z=10 (fifth row) at c=H=1.
	if !(cell(t, a.Rows[0][1]) > cell(t, a.Rows[4][1])) {
		t.Errorf("figure6a: FP at z=2 (%s) should exceed z=10 (%s)", a.Rows[0][1], a.Rows[4][1])
	}
	// More slots, more FPs at small z.
	if !(cell(t, a.Rows[0][3]) >= cell(t, a.Rows[0][1])) {
		t.Errorf("figure6a: c=H=4 (%s) should have ≥ FP than c=H=1 (%s) at z=2", a.Rows[0][3], a.Rows[0][1])
	}
	b := Figure6b(o)
	if !(cell(t, b.Rows[1][1]) > cell(t, b.Rows[1][3])) {
		t.Errorf("figure6b: Th=1 (%s) should exceed Th=4 (%s) at z=4", b.Rows[1][1], b.Rows[1][3])
	}
}

// TestFigure7Shape: higher thresholds delay detection.
func TestFigure7Shape(t *testing.T) {
	tab := Figure7(fastOpts())
	for _, row := range tab.Rows {
		t1, t4 := cell(t, row[1]), cell(t, row[3])
		if !(t4 >= t1) {
			t.Errorf("L=%s: Th=4 (%v) should be slower than Th=1 (%v)", row[0], t4, t1)
		}
	}
}

// TestInts: figure axes include both ends when on the grid, never
// overshoot, and reject a zero step or an empty range.
func TestInts(t *testing.T) {
	got := ints(1, 10, 3)
	want := []int{1, 4, 7, 10}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if len(ints(5, 5, 1)) != 1 {
		t.Error("singleton range")
	}
	if g := ints(1, 9, 3); g[len(g)-1] != 7 {
		t.Error("range must not overshoot")
	}
	for _, bad := range []func(){
		func() { ints(1, 10, 0) },
		func() { ints(10, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid range should panic")
				}
			}()
			bad()
		}()
	}
}

// TestFiguresRegistry: every figure id resolves and produces rows.
func TestFiguresRegistry(t *testing.T) {
	reg := Figures()
	want := []string{"2", "3", "4", "5a", "5b", "6a", "6b", "7", "aesop"}
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries", len(reg))
	}
	for _, id := range want {
		if reg[id] == nil {
			t.Fatalf("figure %s missing", id)
		}
	}
}

// TestTable5Quick: one full (small-budget) Table 5 run — every topology
// row present, Unroller beating Bloom on bits everywhere, average times
// in the paper's 1.5–2.5 band.
func TestTable5Quick(t *testing.T) {
	tab, err := Table5(Table5Options{TimeRuns: 400, MinBitsRuns: 250, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("%d topology rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		name := row[0]
		bloom := cell(t, row[4])
		avg := cell(t, row[5])
		unr := cell(t, row[6])
		if bloom <= unr {
			t.Errorf("%s: bloom %v bits should exceed unroller %v", name, bloom, unr)
		}
		if avg < 1.0 || avg > 3.2 {
			t.Errorf("%s: avg time %v outside plausible band", name, avg)
		}
		if unr < 12 || unr > 40 {
			t.Errorf("%s: unroller bits %v outside plausible band", name, unr)
		}
		if name == "FatTree4" && row[3] != "64" {
			t.Errorf("FatTree4 PathDump cell %q, want 64", row[3])
		}
		if name == "UsCarrier" && row[3] != "×" {
			t.Errorf("WAN PathDump cell %q, want ×", row[3])
		}
	}
}

// TestTable4Quick: the throughput table runs and reports sane rates.
func TestTable4Quick(t *testing.T) {
	tab, err := Table4(Table4Options{Packets: 20000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d config rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		ns := cell(t, row[2])
		if ns <= 0 || ns > 100000 {
			t.Errorf("%s: %v ns/packet implausible", row[0], ns)
		}
	}
}

// TestTableRendering: the three output formats agree on content.
func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:      "demo",
		Caption: "cap",
		Headers: []string{"A", "B"},
	}
	tab.AddRow("x", "1,2") // comma forces CSV quoting
	txt, csv, md := tab.Text(), tab.CSV(), tab.Markdown()
	for name, s := range map[string]string{"text": txt, "csv": csv, "markdown": md} {
		if !strings.Contains(s, "x") {
			t.Errorf("%s output lost a cell: %q", name, s)
		}
	}
	if !strings.Contains(csv, `"1,2"`) {
		t.Errorf("csv quoting: %q", csv)
	}
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch should panic")
		}
	}()
	tab.AddRow("only-one")
}
