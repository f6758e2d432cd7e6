package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks — the same rule on every
// workload, so a percentile moves smoothly instead of jumping between
// neighbouring samples as the sample count changes.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// median sorts a copy of xs and returns its 0.5-quantile.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// medianNs is median over nanosecond samples.
func medianNs(ns []int64) float64 {
	f := make([]float64, len(ns))
	for i, v := range ns {
		f[i] = float64(v)
	}
	return median(f)
}

// geomean returns the geometric mean of xs; non-positive entries are
// clamped to the smallest positive float so one degenerate sample
// cannot turn the whole mean into NaN.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(math.Max(x, math.SmallestNonzeroFloat64))
	}
	return math.Exp(sum / float64(len(xs)))
}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method: rank
// i·(n+1)/4, clamped), which is how the stability contract measures
// spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		// 1-based rank i·(n+1)/4 split into whole and fractional part.
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// sortedMs converts nanosecond samples to sorted milliseconds.
func sortedMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}
