package main

import (
	"fmt"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p99 over fewer than 1000 samples would be set by a
// handful of outliers.
const minTail = 10

// percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted by the
// nearest-rank rule, and the number of samples strictly beyond that
// rank. It fails when fewer than minTail samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile %g of no samples", q)
	}
	rank := nearestRank(n, q)
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond it, need %d", 100*q, n, beyond, minTail)
	}
	return sorted[rank-1], nil
}

// tailWindow is the half-width, as a share of the samples, of the rank
// window tailPercentile averages over.
const tailWindow = 0.005

// tailPercentile estimates the q-quantile as the mean of the samples
// ranked within ±tailWindow of it. Ops of different sizes form
// separate clusters of latencies, and a plain rank statistic jumps
// between clusters when one sits at the boundary; the window mean moves
// smoothly. It fails when fewer than minTail samples lie beyond the
// window.
func tailPercentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile %g of no samples", q)
	}
	lo, hi := nearestRank(n, q-tailWindow), nearestRank(n, q+tailWindow)
	if beyond := n - hi; beyond < minTail {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond its window, need %d", 100*q, n, beyond, minTail)
	}
	var sum float64
	for _, x := range sorted[lo-1 : hi] {
		sum += x
	}
	return sum / float64(hi-lo+1), nil
}

// nearestRank is the 1-based rank of the q-quantile of n samples:
// the smallest rank whose share of samples at or below it reaches q.
func nearestRank(n int, q float64) int {
	// Integer arithmetic in parts per million keeps 0.99×1000 at
	// exactly 990 instead of 990.0000000000001.
	ppm := int64(q*1e6 + 0.5)
	rank := int((int64(n)*ppm + 1e6 - 1) / 1e6)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
