package benchkit

import (
	"math"
	"sort"
)

// Median returns the median of xs (the mean of the two middle values for an
// even count), or NaN for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs,
// or NaN for an empty slice: the smallest sample with at least p% of the
// samples at or below it.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[percentileRank(len(s), p)-1]
}

// percentileRank is the 1-based nearest rank of the p-th percentile among
// n sorted samples. The small slack keeps 90% of 100 at rank 90 although
// 0.9 has no exact binary form.
func percentileRank(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// tailLadder are the percentiles a tail metric may be clamped to.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// SupportedPercentile clamps a wanted tail percentile to the highest one n
// samples can support: a percentile is reported only when at least ten
// samples lie beyond it, so a p99 needs 1000 samples and a p95 needs 200.
// With fewer than 20 samples only the median is supported.
func SupportedPercentile(n int, want float64) float64 {
	best := 50.0
	for _, p := range tailLadder {
		if p > want {
			break
		}
		if n-percentileRank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// TailPercentile returns the wanted percentile of xs clamped by
// SupportedPercentile, and the percentile actually used.
func TailPercentile(xs []float64, want float64) (value, used float64) {
	used = SupportedPercentile(len(xs), want)
	return Percentile(xs, used), used
}

// Quartiles returns the first, second and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method)
// computes them — the arithmetic the driver applies to the ten runs of a
// workload. It needs at least two values.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	if m < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Spread is the run-to-run spread the driver gates on: the distance between
// the first and third quartile as a share of the median.
func Spread(xs []float64) float64 {
	q1, _, q3 := Quartiles(xs)
	med := Median(xs)
	if med == 0 || math.IsNaN(med) {
		return math.NaN()
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// RangeOverMedian is (max − min) / median, the stricter spread
// REPEATABILITY.md tabulates beside the quartile spread.
func RangeOverMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	med := Median(s)
	if med == 0 {
		return math.NaN()
	}
	return (s[len(s)-1] - s[0]) / math.Abs(med)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
