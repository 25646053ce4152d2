// Package stats provides the summary statistics used by the evaluation
// harness: streaming mean/variance, confidence intervals and rate
// estimators for rare events (false positives).
package stats

import (
	"fmt"
	"math"
)

// Summary accumulates a stream of observations with O(1) memory using
// Welford's online algorithm. The zero value is an empty summary.
type Summary struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Merge folds other into s. It is used to combine per-worker summaries.
func (s *Summary) Merge(other Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = other
		return
	}
	n1, n2 := float64(s.n), float64(other.n)
	delta := other.mean - s.mean
	total := n1 + n2
	s.mean += delta * n2 / total
	s.m2 += other.m2 + delta*delta*n1*n2/total
	s.n += other.n
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

// N returns the number of observations.
func (s *Summary) N() uint64 { return s.n }

// Mean returns the sample mean, or 0 if empty.
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation, or 0 if empty.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 if empty.
func (s *Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance, or 0 with fewer than two
// observations.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Variance()) }

// StderrMean returns the standard error of the mean.
func (s *Summary) StderrMean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.Stddev() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval around the mean.
func (s *Summary) CI95() float64 { return 1.96 * s.StderrMean() }

// String formats the summary for logs.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.2g [%.4g, %.4g]", s.n, s.mean, s.CI95(), s.min, s.max)
}

// RateEstimator tracks the empirical rate of a rare event (e.g. a false
// positive per run) together with a confidence bound.
type RateEstimator struct {
	events uint64
	trials uint64
}

// Record adds one trial with the given outcome.
func (r *RateEstimator) Record(event bool) {
	r.trials++
	if event {
		r.events++
	}
}

// Add merges counts directly.
func (r *RateEstimator) Add(events, trials uint64) {
	r.events += events
	r.trials += trials
}

// Events returns the number of positive trials.
func (r *RateEstimator) Events() uint64 { return r.events }

// Trials returns the total trial count.
func (r *RateEstimator) Trials() uint64 { return r.trials }

// Rate returns the empirical event rate, or 0 with no trials.
func (r *RateEstimator) Rate() float64 {
	if r.trials == 0 {
		return 0
	}
	return float64(r.events) / float64(r.trials)
}

// UpperBound95 returns an upper 95% confidence bound on the true rate.
// With zero observed events it uses the rule of three (3/n), which is the
// right tool for "no false positives were reported" claims.
func (r *RateEstimator) UpperBound95() float64 {
	if r.trials == 0 {
		return 1
	}
	if r.events == 0 {
		return 3 / float64(r.trials)
	}
	p := r.Rate()
	return p + 1.96*math.Sqrt(p*(1-p)/float64(r.trials))
}
