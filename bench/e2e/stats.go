package main

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a reported percentile
// (choosing-metrics §1): with fewer, the "percentile" is one outlier.
const tailSamples = 10

// median returns the middle of sorted (mean of the two middles when the
// count is even); 0 for no samples.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// highPercentile returns the q-quantile of sorted when at least
// tailSamples samples lie beyond it, otherwise the highest quantile that
// satisfies that, and the quantile actually used. With tailSamples or
// fewer samples nothing qualifies and it falls back to the median.
func highPercentile(sorted []float64, q float64) (value, used float64) {
	n := len(sorted)
	if n <= tailSamples {
		return median(sorted), 0.5
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if max := n - 1 - tailSamples; idx > max {
		idx = max
	}
	return sorted[idx], float64(idx+1) / float64(n)
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// kthBest returns the k-th best (1-based) of the per-segment values: the
// k-th highest when higher is better, else the k-th lowest. k is clamped
// to the count.
func kthBest(values []float64, k int, higherBetter bool) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sortedCopy(values)
	if k > len(s) {
		k = len(s)
	}
	if k < 1 {
		k = 1
	}
	if higherBetter {
		return s[len(s)-k]
	}
	return s[k-1]
}

// iqrPct is the interquartile range of values as a percentage of their
// median, by the same exclusive method as Python's
// statistics.quantiles(values, n=4) — the rule the benchmark's own
// steadiness is judged by.
func iqrPct(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	if n < 2 {
		return 0
	}
	quart := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return 100 * (quart(3) - quart(1)) / med
}
