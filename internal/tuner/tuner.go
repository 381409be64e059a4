// Package tuner implements a concrete instance of the cache-management
// policies the paper's Section 6 calls for: "C&C constraints add more
// dimensions to this problem: even in the case of a cache hit, the local
// data might not be used simply because it does not satisfy consistency or
// currency constraints."
//
// Given the workload's distribution of currency bounds for the queries
// hitting a region, the tuner picks the region's refresh interval f to
// minimize the expected cost rate
//
//	cost(f) = RefreshCost/f + QueryRate * RemotePenalty * (1 - E_B[p(B, d, f)])
//
// where p is the paper's local-probability formula (Section 3.2.4). Longer
// intervals save refresh work but push more queries to the back end; the
// optimum balances the two. The expectation is analytic per bound, and
// between the bounds' kinks the objective is A/f + C, so its minimum is at a
// kink or an end of the range, the points Tune evaluates.
package tuner

import (
	"fmt"
	"math"
	"sort"
	"time"

	"relaxedcc/internal/cc"
)

// BoundShare is one slice of the workload: the fraction of queries
// (Weight) that declare the given currency bound.
type BoundShare struct {
	Bound  time.Duration
	Weight float64
}

// Workload describes the query traffic aimed at one currency region.
type Workload struct {
	// Bounds is the distribution of currency bounds; weights are
	// normalized internally.
	Bounds []BoundShare
	// QueriesPerSecond is the aggregate arrival rate.
	QueriesPerSecond float64
}

// normalized returns the bound shares with weights summing to 1.
func (w Workload) normalized() ([]BoundShare, error) {
	if len(w.Bounds) == 0 {
		return nil, fmt.Errorf("tuner: workload has no bound distribution")
	}
	total := 0.0
	for _, b := range w.Bounds {
		if b.Weight < 0 {
			return nil, fmt.Errorf("tuner: negative weight")
		}
		total += b.Weight
	}
	if total <= 0 {
		return nil, fmt.Errorf("tuner: weights sum to zero")
	}
	out := make([]BoundShare, len(w.Bounds))
	for i, b := range w.Bounds {
		out[i] = BoundShare{Bound: b.Bound, Weight: b.Weight / total}
	}
	return out, nil
}

// Costs parameterizes the trade-off.
type Costs struct {
	// RefreshCost is the cost of one propagation cycle (agent work plus
	// back-end log reading), in abstract cost units.
	RefreshCost float64
	// RemotePenalty is the extra cost of answering one query remotely
	// instead of locally.
	RemotePenalty float64
}

// Result is the tuner's recommendation.
type Result struct {
	Interval time.Duration
	// LocalFraction is the expected fraction of queries answered locally
	// at the chosen interval.
	LocalFraction float64
	// CostRate is the expected cost per second at the chosen interval.
	CostRate float64
}

// ExpectedLocalFraction computes E_B[p(B, d, f)] over the workload's bound
// distribution.
func ExpectedLocalFraction(w Workload, d, f time.Duration) (float64, error) {
	bounds, err := w.normalized()
	if err != nil {
		return 0, err
	}
	p := 0.0
	for _, b := range bounds {
		p += b.Weight * cc.LocalProbability(b.Bound, d, f)
	}
	return p, nil
}

// CostRate evaluates the objective at interval f.
func CostRate(w Workload, c Costs, d, f time.Duration) (float64, error) {
	if f <= 0 {
		return 0, fmt.Errorf("tuner: interval must be positive")
	}
	local, err := ExpectedLocalFraction(w, d, f)
	if err != nil {
		return 0, err
	}
	refreshRate := 1.0 / f.Seconds()
	return c.RefreshCost*refreshRate + w.QueriesPerSecond*c.RemotePenalty*(1-local), nil
}

// searchBounds for the interval, in seconds.
const (
	minIntervalSec = 0.1
	maxIntervalSec = 24 * 3600
)

// Tune picks the refresh interval minimizing the cost rate for a region
// with propagation delay d. Between consecutive kinks f = B − d of the
// workload's bounds the cost is A/f + C (each bound's slice is either always
// local or local with probability (B−d)/f), which is monotone, so its minimum
// lies at a kink or at an extreme of the search range: Tune evaluates those
// and keeps the cheapest.
func Tune(w Workload, c Costs, d time.Duration) (Result, error) {
	bounds, err := w.normalized()
	if err != nil {
		return Result{}, err
	}
	if w.QueriesPerSecond < 0 || c.RefreshCost < 0 || c.RemotePenalty < 0 {
		return Result{}, fmt.Errorf("tuner: negative rates or costs")
	}
	eval := func(fSec float64) float64 {
		rate, err := CostRate(w, c, d, time.Duration(fSec*float64(time.Second)))
		if err != nil {
			return math.Inf(1)
		}
		return rate
	}
	candidates := []float64{minIntervalSec, maxIntervalSec}
	for _, bs := range bounds {
		if k := (bs.Bound - d).Seconds(); k > minIntervalSec && k < maxIntervalSec {
			candidates = append(candidates, k)
		}
	}
	sort.Float64s(candidates)
	bestF, bestRate := candidates[0], eval(candidates[0])
	for _, cand := range candidates[1:] {
		if rate := eval(cand); rate < bestRate {
			bestF, bestRate = cand, rate
		}
	}
	interval := time.Duration(bestF * float64(time.Second)).Round(time.Millisecond)
	local, err := ExpectedLocalFraction(w, d, interval)
	if err != nil {
		return Result{}, err
	}
	return Result{Interval: interval, LocalFraction: local, CostRate: bestRate}, nil
}
