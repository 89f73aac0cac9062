package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie strictly beyond its rank, so one outlier can
// never be the reported value.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of xs. It
// refuses, with an error naming the sample count, when fewer than minBeyond
// samples lie beyond the rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples leaves %d beyond it, need %d", 100*p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// quartiles returns the first quartile, median and third quartile of xs
// with the same interpolation as Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method), so the steadiness report matches the spread
// rule it is checked against. One sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// statistics.quantiles, method="exclusive", including its clamp of
		// j to 1..n-1 (which extrapolates for tiny n).
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// median returns the middle value of xs (mean of the middle two when even).
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
