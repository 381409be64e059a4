package main

import (
	"math"
	"slices"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail read off fewer is one slow sample, not a property of the run.
const minBeyond = 10

// tailPercentile returns the latency at the want-th percentile of the sorted
// samples, lowered to the highest percentile that still has minBeyond samples
// beyond it, and the percentile actually used. With fewer than minBeyond+1
// samples it falls back to the minimum (pct 0): there is no tail to report.
func tailPercentile(sorted []uint32, want float64) (value uint32, pct float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	// Nearest rank; the epsilon keeps 0.99*n from landing just above a
	// whole number.
	idx := int(math.Ceil(want*float64(n)-1e-9)) - 1
	if n-1-idx < minBeyond {
		idx = n - 1 - minBeyond
	}
	if idx < 0 {
		return sorted[0], 0
	}
	return sorted[idx], float64(idx+1) / float64(n)
}

// percentile returns the p-th percentile (nearest rank) of sorted samples.
func percentile(sorted []uint32, p float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

func sortedCopy(xs []uint32) []uint32 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so spreads
// printed here match the ones the acceptance procedure computes. With fewer
// than two values the spread is zero.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
