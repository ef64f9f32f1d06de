package main

import (
	"math"
	"sort"
)

// Metric arithmetic. Every figure the benchmark prints is one of these: a
// median over passes or set-ups, a quantile over per-call samples, or a
// ratio whose base is printed beside it.

// quantile returns the q-quantile (0 < q < 1) of xs by the exclusive
// method that Python's statistics.quantiles uses by default: the value at
// rank q*(n+1), interpolated linearly between its neighbours (and
// extrapolated from the outermost pair for ranks outside the sample). It
// returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	switch len(xs) {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)+1)
	j := min(max(int(math.Floor(pos)), 1), len(s)-1)
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

// median is the 0.5-quantile: the middle value, or the mean of the two
// middle values for an even count.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder lists the percentiles a per-call timing may report as its
// tail, lowest first.
var tailLadder = []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999}

// tailQuantile returns the highest quantile on tailLadder that leaves at
// least ten of n samples beyond it, so that the tail is never one or two
// outliers; 0.5 when n is below 20.
func tailQuantile(n int) float64 {
	q := tailLadder[0]
	for _, c := range tailLadder {
		if float64(n)*(1-c) >= 10-1e-9 {
			q = c
		}
	}
	return q
}

// ratio returns num/base, or 0 when the base is 0 (a layer the workload
// never reached has no failures, stale plans or hits to divide).
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}
