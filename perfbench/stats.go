package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks, the definition NumPy and most
// load tools use. xs is sorted in place. An empty sample has no quantile
// and reports NaN; +Inf entries (failed requests) sort last, so a quantile
// that lands on one is +Inf — a failure misses every latency limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(xs[hi], 1) {
		return xs[hi]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[hi]-xs[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never calls).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
