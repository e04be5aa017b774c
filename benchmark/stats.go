package main

import (
	"fmt"
	"math"
	"sort"
)

// Minimum sample counts behind a reported percentile: at least ten
// samples must lie beyond it, so a p95 needs 200 and a p99 needs 1000.
const (
	minSamplesP95 = 200
	minSamplesP99 = 1000
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of
// xs. It refuses — rather than silently reporting a number the sample
// cannot support — when fewer than ten samples lie beyond the rank.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile p%g: no samples", p*100)
	}
	if p <= 0 || p > 1 {
		return 0, fmt.Errorf("percentile: p=%g out of range", p)
	}
	if need := minSamplesFor(p); len(xs) < need {
		return 0, fmt.Errorf("percentile p%g: %d samples, need at least %d", p*100, len(xs), need)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], nil
}

// minSamplesFor is the smallest sample count that leaves ten samples
// beyond the p-th percentile (1 for the median and below).
func minSamplesFor(p float64) int {
	if p <= 0.5 {
		return 1
	}
	return int(math.Ceil(10/(1-p) - 1e-9))
}

// median is the p50 of xs, 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the first quartile, median and third quartile of
// xs with the same rule as Python's statistics.quantiles(xs, n=4)
// (exclusive method), which is what the driver applies to a metric's
// values across runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// ratio is a/b, 0 when b is 0 (a per-layer count over an empty base).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
