package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// (choosing-metrics §1): a p99 needs 1000 samples, a p90 needs 100.
const minBeyond = 10

// sample is a set of timings of one operation, in the metric's unit.
type sample []float64

// quantile returns the q-quantile (nearest rank) of s. It refuses a
// percentile with fewer than minBeyond samples beyond it, so a tail that is
// really the maximum of a handful of runs is never printed as a percentile.
// The median is exempt: it needs only one sample.
func (s sample) quantile(q float64) (float64, error) {
	if len(s) == 0 {
		return 0, fmt.Errorf("quantile %.4g of an empty sample", q)
	}
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("quantile %.4g outside (0,1)", q)
	}
	n := len(s)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if q != 0.5 && n-rank < minBeyond {
		return 0, fmt.Errorf("quantile %.4g of %d samples has %d beyond it, need %d", q, n, n-rank, minBeyond)
	}
	return s.atRank(rank), nil
}

// atRank returns the rank-th smallest value (1-based).
func (s sample) atRank(rank int) float64 {
	sorted := append(sample(nil), s...)
	sort.Float64s(sorted)
	return sorted[rank-1]
}

// median is quantile(0.5) of a sample the caller knows is non-empty; an
// empty sample yields 0, which the run then reports as a failed check.
func (s sample) median() float64 {
	v, _ := s.quantile(0.5)
	return v
}

// tail returns the p99 when the sample supports it and otherwise the
// highest percentile that still has minBeyond samples beyond it, together
// with the percentile actually used. Probe phases (see README) are too short
// for a p99; the printed line always names the percentile and the count.
func (s sample) tail() (value, pct float64) {
	if v, err := s.quantile(0.99); err == nil {
		return v, 99
	}
	n := len(s)
	if n < 2*minBeyond {
		return s.median(), 50
	}
	return s.atRank(n - minBeyond), 100 * float64(n-minBeyond) / float64(n)
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}
