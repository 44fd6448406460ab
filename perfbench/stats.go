package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs (0 <= q <= 1) by linear
// interpolation between order statistics, the definition Python's
// statistics.quantiles(method="inclusive") and R's type 7 use. It sorts a
// copy, so xs keeps its order. Empty input gives 0. Equal neighbours are
// returned as they are, so two +Inf order statistics (failed requests)
// give +Inf rather than the NaN of Inf-Inf.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if s[lo] == s[hi] {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medians returns the median of each non-empty group, in group order.
func medians(groups [][]float64) []float64 {
	var out []float64
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, median(g))
		}
	}
	return out
}

// perSecond returns how many operations of the given costs in ms fit in a
// second: their count over their sum.
func perSecond(costsMS []float64) float64 {
	var sum float64
	for _, c := range costsMS {
		sum += c
	}
	return ratio(float64(len(costsMS)), sum/1000)
}
