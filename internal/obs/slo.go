package obs

import (
	"sort"
	"strconv"
	"sync"
	"time"
)

// Defaults for the cache's currency-SLO tracker.
const (
	// DefaultSLOTarget is the objective fraction of answers served within
	// their session currency bound.
	DefaultSLOTarget = 0.99
	// DefaultSLOWindow is the sliding window length in guard observations.
	// Count-based (not time-based) windows keep the tracker fully
	// deterministic under the virtual clock.
	DefaultSLOWindow = 1024
)

// gaugeScale converts ratios in [0,1] to parts-per-million for the integer
// gauge registry (slo_within_bound_ratio / slo_error_budget).
const gaugeScale = 1e6

// SLOTracker tracks per-region currency SLOs over a sliding window of guard
// observations: the fraction of answers served within their session bound,
// and the remaining error budget against the target. DEGRADED serves (local
// answers forced by remote unavailability) always count against the budget —
// they are precisely the answers whose currency the guard could not vouch
// for.
//
// Exported metrics, all updated on every observation:
//
//	slo_within_bound_ratio{region}   within-bound fraction of the window, ppm
//	slo_error_budget{region}         remaining error budget fraction, ppm
//	slo_served_staleness_ns{region}  staleness of locally served answers
type SLOTracker struct {
	target float64
	window int

	ratio  *GaugeVec
	budget *GaugeVec
	stale  *HistogramVec

	mu      sync.Mutex
	regions map[int]*regionWindow
}

// sloSample is one guard observation in a region's window.
type sloSample struct {
	within      bool
	degraded    bool
	stalenessNS int64
	known       bool
}

// regionWindow is one region's ring of observations with its instruments
// pre-resolved (label strings are built once, keeping Observe alloc-free).
type regionWindow struct {
	samples  []sloSample
	pos      int
	count    int
	within   int
	degraded int

	ratioG  *Gauge
	budgetG *Gauge
	staleH  *Histogram
}

// NewSLOTracker builds a tracker registering the SLO gauges and histogram on
// reg. target outside (0,1] selects DefaultSLOTarget; window <= 0 selects
// DefaultSLOWindow.
func NewSLOTracker(reg *Registry, target float64, window int) *SLOTracker {
	if target <= 0 || target > 1 {
		target = DefaultSLOTarget
	}
	if window <= 0 {
		window = DefaultSLOWindow
	}
	return &SLOTracker{
		target:  target,
		window:  window,
		ratio:   reg.GaugeVec("slo_within_bound_ratio", "region"),
		budget:  reg.GaugeVec("slo_error_budget", "region"),
		stale:   reg.HistogramVec("slo_served_staleness_ns", "region"),
		regions: map[int]*regionWindow{},
	}
}

// Reconfigure replaces the tracker's target and window and resets every
// region's accumulated observations (mixed-window counts would be
// meaningless). target outside (0,1] selects DefaultSLOTarget; window <= 0
// selects DefaultSLOWindow. Harness scenarios use it to size the window to
// the run length before any traffic flows.
func (s *SLOTracker) Reconfigure(target float64, window int) {
	if target <= 0 || target > 1 {
		target = DefaultSLOTarget
	}
	if window <= 0 {
		window = DefaultSLOWindow
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.target = target
	s.window = window
	// Region windows are rebuilt lazily at their next observation; dropping
	// them here also resets the within/degraded counts.
	s.regions = map[int]*regionWindow{}
}

// Observe feeds one guard outcome into the region's window and republishes
// the gauges. Within-bound semantics:
//
//   - degraded serve: NOT within bound (the guard wanted remote; counts
//     against the budget regardless of observed staleness);
//   - remote serve: within bound (master data is current by definition);
//   - local serve: within bound iff the observed staleness satisfies the
//     bound (unknown staleness or an unbounded query trusts the guard).
//
// Nil-safe; zero allocations after a region's first observation.
func (s *SLOTracker) Observe(g GuardEvent) {
	if s == nil {
		return
	}
	within := true
	switch {
	case g.Degraded:
		within = false
	case g.Chosen != 0:
		within = true
	case g.StalenessKnown && g.Bound > 0:
		within = g.Staleness <= g.Bound
	}

	s.mu.Lock()
	rw := s.regions[g.Region]
	if rw == nil {
		label := strconv.Itoa(g.Region)
		rw = &regionWindow{
			samples: make([]sloSample, s.window),
			ratioG:  s.ratio.With(label),
			budgetG: s.budget.With(label),
			staleH:  s.stale.With(label),
		}
		s.regions[g.Region] = rw
	}
	if rw.count == len(rw.samples) {
		old := rw.samples[rw.pos]
		if old.within {
			rw.within--
		}
		if old.degraded {
			rw.degraded--
		}
	} else {
		rw.count++
	}
	smp := sloSample{within: within, degraded: g.Degraded}
	if g.Chosen == 0 && g.StalenessKnown {
		smp.stalenessNS = int64(g.Staleness)
		smp.known = true
	}
	rw.samples[rw.pos] = smp
	rw.pos = (rw.pos + 1) % len(rw.samples)
	if within {
		rw.within++
	}
	if g.Degraded {
		rw.degraded++
	}
	rw.ratioG.Set(int64(float64(rw.within) / float64(rw.count) * gaugeScale))
	rw.budgetG.Set(int64(ErrorBudget(s.target, rw.within, rw.count) * gaugeScale))
	s.mu.Unlock()

	// Histogram observation outside the lock: the instrument is atomic.
	if smp.known {
		rw.staleH.Observe(smp.stalenessNS)
	}
}

// ErrorBudget returns the remaining error-budget fraction in [0,1]: 1 means
// untouched, 0 means spent (or overspent). With target t over a window of
// count observations, the budget allows (1-t)*count misses.
func ErrorBudget(target float64, within, count int) float64 {
	if count == 0 {
		return 1
	}
	allowed := (1 - target) * float64(count)
	missed := float64(count - within)
	if allowed <= 0 {
		if missed > 0 {
			return 0
		}
		return 1
	}
	rem := 1 - missed/allowed
	if rem < 0 {
		return 0
	}
	return rem
}

// RegionSLO is one region's SLO state in a snapshot.
type RegionSLO struct {
	Region       int     `json:"region"`
	Observations int     `json:"observations"`
	Within       int     `json:"within"`
	Degraded     int     `json:"degraded"`
	WithinRatio  float64 `json:"within_ratio"`
	ErrorBudget  float64 `json:"error_budget"`
	// Staleness percentiles (nearest-rank) over the locally served answers
	// in the window with known staleness.
	StalenessP50NS int64 `json:"staleness_p50_ns"`
	StalenessP95NS int64 `json:"staleness_p95_ns"`
	StalenessP99NS int64 `json:"staleness_p99_ns"`
	StalenessMaxNS int64 `json:"staleness_max_ns"`
}

// SLOSnapshot is the /slo endpoint's payload: fully deterministic under a
// virtual clock (count-based windows, no wall-clock fields, regions sorted
// by id).
type SLOSnapshot struct {
	Target  float64     `json:"target"`
	Window  int         `json:"window"`
	Regions []RegionSLO `json:"regions"`
}

// Snapshot returns the current per-region SLO state, sorted by region id.
func (s *SLOTracker) Snapshot() SLOSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := SLOSnapshot{Target: s.target, Window: s.window, Regions: []RegionSLO{}}
	ids := make([]int, 0, len(s.regions))
	for id := range s.regions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		rw := s.regions[id]
		r := RegionSLO{
			Region:       id,
			Observations: rw.count,
			Within:       rw.within,
			Degraded:     rw.degraded,
			ErrorBudget:  ErrorBudget(s.target, rw.within, rw.count),
		}
		if rw.count > 0 {
			r.WithinRatio = float64(rw.within) / float64(rw.count)
		}
		var stale []int64
		for i := 0; i < rw.count; i++ {
			if smp := rw.samples[i]; smp.known {
				stale = append(stale, smp.stalenessNS)
			}
		}
		sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
		r.StalenessP50NS = NearestRank(stale, 0.50)
		r.StalenessP95NS = NearestRank(stale, 0.95)
		r.StalenessP99NS = NearestRank(stale, 0.99)
		r.StalenessMaxNS = NearestRank(stale, 1.00)
		snap.Regions = append(snap.Regions, r)
	}
	return snap
}

// NearestRank returns the p-quantile of sorted samples (zero when empty).
func NearestRank[T ~int64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// NormalizeBound maps a planner bound to the normalization used across obs:
// durations <= 0 or the planner's "unconstrained" sentinel (max duration)
// mean no finite bound and return 0.
func NormalizeBound(d time.Duration) time.Duration {
	if d <= 0 || d == time.Duration(1<<63-1) {
		return 0
	}
	return d
}
