package main

import "sort"

// orderStat returns the exact pct-th percentile of sorted (ascending,
// non-empty) by the nearest-rank definition: the smallest sample with
// at least ceil(pct·n/100) samples at or below it. The rank is computed
// in integers, so p95 of 200 samples is exactly the 190th, leaving ten
// beyond it. There is no interpolation: the result is always a sample.
func orderStat(sorted []float64, pct int) float64 {
	n := len(sorted)
	rank := (pct*n + 99) / 100
	rank = min(max(rank, 1), n)
	return sorted[rank-1]
}

// median returns the exact median of xs: the middle sample for odd n,
// the mean of the two middle samples for even n. xs is not modified.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// minTail is the number of samples a reported p95 must have beyond it;
// with nearest rank that needs at least 200 samples.
const minTail = 10

// minSamples is the smallest measured-phase request count whose p95
// has minTail samples beyond it.
const minSamples = minTail * 100 / (100 - 95)
