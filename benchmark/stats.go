package main

import (
	"math"
	"slices"
)

// median returns the middle value of vs (mean of the middle two for
// an even count); 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileNS returns the q-quantile (0..1) of ascending-sorted
// nanosecond samples by the nearest-rank rule, in microseconds.
func percentileNS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e3
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vs, n=4) does (the exclusive method), which is
// the rule the acceptance driver applies to repeated runs.
func quartiles(vs []float64) (q1, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the
// median.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}
