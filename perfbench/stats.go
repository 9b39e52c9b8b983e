package main

import (
	"math"
	"slices"
)

var inf = math.Inf(1)

// percentile returns the p-th percentile (nearest rank) of v, which it
// sorts in place.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	slices.Sort(v)
	rank := int(math.Ceil(p / 100 * float64(len(v))))
	if rank < 1 {
		rank = 1
	}
	return v[rank-1]
}

// median returns the median of v without reordering it.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
