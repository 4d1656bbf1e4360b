package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported from a sub-window; with fewer, the whole window is used.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of sorted by the
// nearest-rank rule. sorted must be non-empty and ascending.
func percentile(sorted []int64, p float64) int64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// supports reports whether n samples leave at least minBeyond of them
// beyond the p-quantile.
func supports(n int, p float64) bool {
	return float64(n)*(1-p) >= minBeyond
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); xs is not modified. It is 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// subWindowPercentile computes the p-quantile of each sub-window and
// returns the median of those; when any sub-window has too few samples to
// support p, it falls back to the quantile of the whole window. rule names
// which of the two was applied.
func subWindowPercentile(subs [][]int64, p float64) (v float64, n int, rule string) {
	perSub := true
	for _, s := range subs {
		n += len(s)
		if !supports(len(s), p) {
			perSub = false
		}
	}
	if n == 0 {
		return 0, 0, "empty"
	}
	if perSub {
		vals := make([]float64, len(subs))
		for i, s := range subs {
			vals[i] = float64(percentile(sortedCopy(s), p))
		}
		return median(vals), n, "median-of-sub-windows"
	}
	all := make([]int64, 0, n)
	for _, s := range subs {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return float64(percentile(all, p)), n, "whole-window"
}

func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// medianInt64 is the median of a duration sample, as float64.
func medianInt64(xs []int64) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return median(f)
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) (method "exclusive") computes them. It
// needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
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
	return cut(1), cut(3)
}

// spread is the inter-quartile distance of xs as a share of its median,
// the steadiness figure the benchmark contract gates on.
func spread(xs []float64) float64 {
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}
