package stats

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/unroller/unroller/internal/xrand"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// TestSummaryKnown checks mean/variance against hand-computed values.
func TestSummaryKnown(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 || !almost(s.Mean(), 5, 1e-12) {
		t.Fatalf("n=%d mean=%v", s.N(), s.Mean())
	}
	if !almost(s.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("variance = %v, want 32/7", s.Variance())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max %v/%v", s.Min(), s.Max())
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

// TestSummaryEmptyAndSingle cover degenerate sizes.
func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.CI95() != 0 {
		t.Fatal("empty summary should be zeroes")
	}
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Variance() != 0 || s.Min() != 3.5 || s.Max() != 3.5 {
		t.Fatal("single observation")
	}
}

// TestSummaryMergeEquivalence: merging partials must equal one big
// summary, the property the parallel Monte Carlo engine relies on.
func TestSummaryMergeEquivalence(t *testing.T) {
	f := func(seed uint64, split uint8) bool {
		rng := xrand.New(seed)
		n := 500
		k := int(split)%n + 1
		var whole, a, b Summary
		for i := 0; i < n; i++ {
			x := rng.Float64()*100 - 50
			whole.Add(x)
			if i < k {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(b)
		return a.N() == whole.N() &&
			almost(a.Mean(), whole.Mean(), 1e-9) &&
			almost(a.Variance(), whole.Variance(), 1e-7) &&
			a.Min() == whole.Min() && a.Max() == whole.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMergeEmpty edge cases.
func TestMergeEmpty(t *testing.T) {
	var a, b Summary
	a.Add(1)
	a.Merge(b) // merging empty is a no-op
	if a.N() != 1 {
		t.Fatal("merge with empty changed count")
	}
	var c Summary
	c.Merge(a) // merging into empty copies
	if c.N() != 1 || c.Mean() != 1 {
		t.Fatal("merge into empty failed")
	}
}

// TestRateEstimator counting and bounds.
func TestRateEstimator(t *testing.T) {
	var r RateEstimator
	if r.UpperBound95() != 1 {
		t.Error("no trials: bound must be vacuous")
	}
	for i := 0; i < 1000; i++ {
		r.Record(i%100 == 0)
	}
	if r.Trials() != 1000 || r.Events() != 10 {
		t.Fatalf("counts %d/%d", r.Events(), r.Trials())
	}
	if !almost(r.Rate(), 0.01, 1e-12) {
		t.Fatalf("rate %v", r.Rate())
	}
	if ub := r.UpperBound95(); ub <= r.Rate() || ub > 0.02 {
		t.Fatalf("upper bound %v", ub)
	}
	// Rule of three for zero events.
	var z RateEstimator
	z.Add(0, 3_000_000)
	if !almost(z.UpperBound95(), 1e-6, 1e-9) {
		t.Fatalf("rule of three: %v", z.UpperBound95())
	}
}

// TestCI95ShrinksWithN: more data, tighter interval.
func TestCI95ShrinksWithN(t *testing.T) {
	rng := xrand.New(77)
	var small, large Summary
	for i := 0; i < 100; i++ {
		small.Add(rng.Float64())
	}
	for i := 0; i < 10000; i++ {
		large.Add(rng.Float64())
	}
	if large.CI95() >= small.CI95() {
		t.Errorf("CI did not shrink: %v vs %v", large.CI95(), small.CI95())
	}
}
