package main

import (
	"math"
	"sort"

	"htdp/internal/vecmath"
)

// Percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule, and whether the sample supports it: at least ten
// samples must lie beyond the percentile, so p90 needs n ≥ 100 and p99
// needs n ≥ 1000. +Inf samples (failed requests) sort last.
func Percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = max(1, min(rank, n))
	return s[rank-1], n-rank >= 10
}

// WindowedPercentile splits xs, in arrival order, into consecutive
// groups of at least minGroup samples (at most maxGroups of them),
// takes the p-th percentile of each group, and returns the median over
// the groups. A stall that slows one stretch of the window moves one
// group's percentile, not the reported value. ok requires every group
// to support its percentile (Percentile's ten-beyond rule).
func WindowedPercentile(xs []float64, p float64, minGroup, maxGroups int) (v float64, groups int, ok bool) {
	groups = max(1, min(maxGroups, len(xs)/minGroup))
	size := len(xs) / groups
	per := make([]float64, groups)
	ok = len(xs) > 0
	for g := range per {
		lo, hi := g*size, (g+1)*size
		if g == groups-1 {
			hi = len(xs)
		}
		var gok bool
		per[g], gok = Percentile(xs[lo:hi], p)
		ok = ok && gok
	}
	return vecmath.Median(per), groups, ok
}
