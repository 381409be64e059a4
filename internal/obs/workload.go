package obs

import (
	"sort"
	"sync"
	"time"
)

// Capacity limits for the workload observer's per-region state. Both exist
// to bound memory under adversarial workloads without losing determinism:
// overflow handling depends only on the values seen, never on map order or
// wall-clock time.
const (
	// workloadMaxBounds caps the distinct currency bounds tracked per
	// region; further bounds fold into the nearest tracked one.
	workloadMaxBounds = 32
	// workloadStalenessCap caps the per-region served-staleness sample ring;
	// older samples are overwritten in arrival order.
	workloadStalenessCap = 512
)

// BoundCount is one bar of a region's bound-mix histogram: how many queries
// in the window declared the given currency bound.
type BoundCount struct {
	BoundNS int64 `json:"bound_ns"`
	Count   int64 `json:"count"`
}

// WorkloadProfile is one region's observed workload over one window: the
// inputs the autotuning loop feeds into the paper's Section 6 cost model.
// Durations are nanoseconds for stable JSON.
type WorkloadProfile struct {
	Region int `json:"region"`
	// WindowNS is the observation window length (now minus the window
	// start).
	WindowNS int64 `json:"window_ns"`
	// Queries is the number of guard decisions observed in the window;
	// QueriesPerSecond is the derived arrival rate.
	Queries          int64   `json:"queries"`
	QueriesPerSecond float64 `json:"queries_per_second"`
	// Guard pick counts: Local and Remote partition the decisions by chosen
	// branch; Degraded counts local serves forced by remote unavailability
	// (a subset of Local).
	Local    int64 `json:"local"`
	Remote   int64 `json:"remote"`
	Degraded int64 `json:"degraded"`
	// Unbounded counts queries with no finite currency bound; they are
	// excluded from the bound mix.
	Unbounded int64 `json:"unbounded"`
	// Bounds is the bound-mix histogram, ascending by bound.
	Bounds []BoundCount `json:"bounds"`
	// Served-staleness percentiles (nearest-rank) over the window's local
	// serves with known staleness.
	StalenessP50NS int64 `json:"staleness_p50_ns"`
	StalenessP95NS int64 `json:"staleness_p95_ns"`
	StalenessMaxNS int64 `json:"staleness_max_ns"`
}

// WorkloadObserver aggregates every guard decision into per-region windowed
// workload profiles: bound-mix histogram, arrival rate, guard pick ratios
// and served-staleness distribution. It is the observation layer of the
// closed-loop autotuner — it only aggregates what the system already sees,
// and is fully deterministic under the virtual clock (windows are cut by
// the caller, never by wall-clock timers).
//
// Safe for concurrent use: Record is called from query sessions while
// Snapshot/Cut run from the tuner loop or the ops surface.
type WorkloadObserver struct {
	mu          sync.Mutex
	windowStart time.Time
	regions     map[int]*regionWorkload
}

// regionWorkload is one region's accumulation for the current window.
type regionWorkload struct {
	queries   int64
	local     int64
	remote    int64
	degraded  int64
	unbounded int64
	bounds    map[time.Duration]int64

	stale      [workloadStalenessCap]int64
	stalePos   int
	staleCount int
}

// NewWorkloadObserver starts an observer with its first window opening at
// start (the current virtual time).
func NewWorkloadObserver(start time.Time) *WorkloadObserver {
	return &WorkloadObserver{windowStart: start, regions: map[int]*regionWorkload{}}
}

// Record folds one guard decision into the region's current window.
// Nil-safe, so unwired callers can always invoke it.
func (w *WorkloadObserver) Record(now time.Time, g GuardEvent) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	rw := w.regions[g.Region]
	if rw == nil {
		rw = &regionWorkload{bounds: map[time.Duration]int64{}}
		w.regions[g.Region] = rw
	}
	rw.queries++
	if g.Chosen == 0 {
		rw.local++
	} else {
		rw.remote++
	}
	if g.Degraded {
		rw.degraded++
	}
	if b := NormalizeBound(g.Bound); b == 0 {
		rw.unbounded++
	} else {
		rw.addBound(b)
	}
	if g.Chosen == 0 && g.StalenessKnown {
		rw.stale[rw.stalePos] = int64(g.Staleness)
		rw.stalePos = (rw.stalePos + 1) % workloadStalenessCap
		if rw.staleCount < workloadStalenessCap {
			rw.staleCount++
		}
	}
}

// addBound counts one occurrence of bound b, folding into the nearest
// tracked bound once the per-region cap is reached. Nearest is by absolute
// distance with ties to the smaller bound — a rule that depends only on the
// tracked values, keeping overflow deterministic.
func (rw *regionWorkload) addBound(b time.Duration) {
	if _, ok := rw.bounds[b]; ok || len(rw.bounds) < workloadMaxBounds {
		rw.bounds[b]++
		return
	}
	var nearest time.Duration
	bestDist := time.Duration(-1)
	for have := range rw.bounds {
		dist := have - b
		if dist < 0 {
			dist = -dist
		}
		if bestDist < 0 || dist < bestDist || (dist == bestDist && have < nearest) {
			nearest, bestDist = have, dist
		}
	}
	rw.bounds[nearest]++
}

// Snapshot returns the profiles of the current (still accumulating) window
// at time now, sorted by region id, without resetting anything.
func (w *WorkloadObserver) Snapshot(now time.Time) []WorkloadProfile {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.profilesLocked(now)
}

// Cut closes the current window at time now: it returns the window's
// profiles and starts a fresh window. The tuner loop calls it once per
// cadence tick so each decision sees exactly one window of traffic.
func (w *WorkloadObserver) Cut(now time.Time) []WorkloadProfile {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.profilesLocked(now)
	w.windowStart = now
	for _, rw := range w.regions {
		*rw = regionWorkload{bounds: map[time.Duration]int64{}}
	}
	return out
}

// WindowStart returns when the current window opened.
func (w *WorkloadObserver) WindowStart() time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.windowStart
}

func (w *WorkloadObserver) profilesLocked(now time.Time) []WorkloadProfile {
	window := now.Sub(w.windowStart)
	ids := make([]int, 0, len(w.regions))
	for id := range w.regions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]WorkloadProfile, 0, len(ids))
	for _, id := range ids {
		rw := w.regions[id]
		p := WorkloadProfile{
			Region:    id,
			WindowNS:  int64(window),
			Queries:   rw.queries,
			Local:     rw.local,
			Remote:    rw.remote,
			Degraded:  rw.degraded,
			Unbounded: rw.unbounded,
			Bounds:    []BoundCount{},
		}
		if window > 0 {
			p.QueriesPerSecond = float64(rw.queries) / window.Seconds()
		}
		for b, n := range rw.bounds {
			p.Bounds = append(p.Bounds, BoundCount{BoundNS: int64(b), Count: n})
		}
		sort.Slice(p.Bounds, func(i, j int) bool { return p.Bounds[i].BoundNS < p.Bounds[j].BoundNS })
		if rw.staleCount > 0 {
			stale := append([]int64(nil), rw.stale[:rw.staleCount]...)
			sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
			p.StalenessP50NS = NearestRank(stale, 0.50)
			p.StalenessP95NS = NearestRank(stale, 0.95)
			p.StalenessMaxNS = NearestRank(stale, 1.00)
		}
		out = append(out, p)
	}
	return out
}
