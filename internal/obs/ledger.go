package obs

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The ledger's default currency SLO: the objective fraction of answers
// served within their session bound, over a sliding window counted in guard
// decisions (count-based windows keep the ledger deterministic under the
// virtual clock).
const (
	DefaultSLOTarget = 0.99
	DefaultSLOWindow = 1024
)

// gaugeScale converts ratios in [0,1] to parts-per-million for the integer
// gauge registry (slo_within_bound_ratio / slo_error_budget).
const gaugeScale = 1e6

// Capacity limits of a region's workload window, which bound memory under
// adversarial workloads without losing determinism (overflow depends only on
// the values seen, never on map order or wall-clock time): the distinct
// currency bounds tracked (further bounds fold into the nearest tracked one)
// and the served-staleness sample ring (older samples are overwritten in
// arrival order).
const (
	workloadMaxBounds    = 32
	workloadStalenessCap = 512
)

// RegionLedger folds every guard decision, once, into everything kept per
// currency region:
//
//   - the guard metrics, updated on every decision;
//   - the currency-SLO half: a sliding window of the last window decisions,
//     the fraction served within their session bound and the remaining
//     error budget against the target. Reconfigure resets it;
//   - the workload half: the autotuner's window of bound mix, arrival rate,
//     guard picks and served staleness (the inputs of the paper's Section 6
//     cost model). Cut closes it and starts the next.
//
// A region's record and its instruments are made the first time the region is
// seen, so folding a decision takes the one mutex and does no label lookup.
// Everything is deterministic under the virtual clock: windows are counted in
// decisions or cut by the caller, never by wall-clock timers. Safe for
// concurrent use: sessions Observe while the tuner loop and the ops surface
// read.
//
// Exported metrics:
//
//	guard_local_total{region}        guard decisions that took the local branch
//	guard_remote_total{region}       guard decisions that fell back remote
//	guard_latency_ns                 selector evaluation time (the paper's c_cg)
//	guard_staleness_ns               region staleness observed at decision time
//	region_staleness_ns{region}      current staleness gauge per region
//	degraded_reads_total{region}     local branches served on remote failure
//	guard_block_waits_total          guard re-evaluations performed by blocking sessions
//	slo_within_bound_ratio{region}   within-bound fraction of the SLO window, ppm
//	slo_error_budget{region}         remaining error budget fraction, ppm
//	slo_served_staleness_ns{region}  staleness of locally served answers
type RegionLedger struct {
	reg                  *Registry
	latencyAll, staleAll *Histogram
	blockWaits           *Counter

	mu          sync.Mutex
	target      float64
	window      int
	windowStart time.Time
	regions     map[int]*regionRecord
}

// regionRecord is one region's entry: its instruments, resolved once, and
// the two halves of its state.
type regionRecord struct {
	id                        int
	local, remote, degraded   *Counter
	staleness, within, budget *Gauge
	served                    *Histogram

	slo sloWindow
	// seen marks a region with a decision: only those have workload
	// profiles (staleness gauges make records too).
	seen bool
	win  workloadWindow
}

// sloWindow is a region's ring of the last decisions; samples is allocated
// at the first decision after a Reconfigure.
type sloWindow struct {
	samples                      []sloSample
	pos, count, within, degraded int
}

// sloSample is one guard decision in a region's SLO window: within and
// degraded are 0 or 1, stalenessNS is the served staleness when known.
type sloSample struct {
	within, degraded int
	stalenessNS      int64
	known            bool
}

// workloadWindow is a region's accumulation for the current workload window.
type workloadWindow struct {
	queries, local, remote, degraded, unbounded int64
	// bounds[:nBounds] are the distinct bounds seen and their counts, in
	// arrival order: a slab searched linearly, so folding a decision in
	// updates no map.
	bounds  [workloadMaxBounds]BoundCount
	nBounds int

	stale                [workloadStalenessCap]int64
	stalePos, staleCount int
}

// NewRegionLedger registers the guard and SLO instruments on reg and opens
// the first workload window at start (the current virtual time), with the
// default SLO target and window.
func NewRegionLedger(reg *Registry, start time.Time) *RegionLedger {
	return &RegionLedger{
		reg:         reg,
		latencyAll:  reg.Histogram("guard_latency_ns"),
		staleAll:    reg.Histogram("guard_staleness_ns"),
		blockWaits:  reg.Counter("guard_block_waits_total"),
		target:      DefaultSLOTarget,
		window:      DefaultSLOWindow,
		windowStart: start,
		regions:     map[int]*regionRecord{},
	}
}

// regionLocked returns the region's record, made on first sight.
func (l *RegionLedger) regionLocked(id int) *regionRecord {
	r := l.regions[id]
	if r == nil {
		label := strconv.Itoa(id)
		r = &regionRecord{
			id:        id,
			local:     l.reg.CounterVec("guard_local_total", "region").With(label),
			remote:    l.reg.CounterVec("guard_remote_total", "region").With(label),
			degraded:  l.reg.CounterVec("degraded_reads_total", "region").With(label),
			staleness: l.reg.GaugeVec("region_staleness_ns", "region").With(label),
			within:    l.reg.GaugeVec("slo_within_bound_ratio", "region").With(label),
			budget:    l.reg.GaugeVec("slo_error_budget", "region").With(label),
			served:    l.reg.HistogramVec("slo_served_staleness_ns", "region").With(label),
		}
		l.regions[id] = r
	}
	return r
}

// Observe folds one guard decision into its region: the guard metrics
// (degraded reads and block waits included), the SLO window and the
// workload window. Within-bound semantics:
//
//   - degraded serve: NOT within bound (the guard wanted remote; counts
//     against the budget regardless of observed staleness);
//   - remote serve: within bound (master data is current by definition);
//   - local serve: within bound iff the observed staleness satisfies the
//     bound (unknown staleness or an unbounded query trusts the guard).
//
// Nil-safe; zero allocations after a region's first decision.
func (l *RegionLedger) Observe(g GuardEvent) {
	if l == nil {
		return
	}
	smp := sloSample{stalenessNS: int64(g.Staleness), known: g.Chosen == 0 && g.StalenessKnown}
	if !g.Degraded && (g.Chosen != 0 || !g.StalenessKnown || g.Bound <= 0 || g.Staleness <= g.Bound) {
		smp.within = 1
	}
	if g.Degraded {
		smp.degraded = 1
	}

	l.mu.Lock()
	r := l.regionLocked(g.Region)
	r.seen = true
	s := &r.slo
	if s.samples == nil {
		s.samples = make([]sloSample, l.window)
	}
	if s.count < len(s.samples) {
		s.count++
	} else {
		old := s.samples[s.pos]
		s.within, s.degraded = s.within-old.within, s.degraded-old.degraded
	}
	s.samples[s.pos], s.pos = smp, (s.pos+1)%len(s.samples)
	s.within, s.degraded = s.within+smp.within, s.degraded+smp.degraded
	r.within.Set(int64(float64(s.within) / float64(s.count) * gaugeScale))
	r.budget.Set(int64(ErrorBudget(l.target, s.within, s.count) * gaugeScale))
	r.win.add(g)
	l.mu.Unlock()

	// The instruments are atomic: no lock needed.
	if g.Chosen == 0 {
		r.local.Inc()
	} else {
		r.remote.Inc()
	}
	if g.Degraded {
		r.degraded.Inc()
	}
	if g.BlockWaits > 0 {
		l.blockWaits.Add(int64(g.BlockWaits))
	}
	l.latencyAll.ObserveDuration(g.GuardTime)
	if g.StalenessKnown {
		l.staleAll.ObserveDuration(g.Staleness)
		r.staleness.SetDuration(g.Staleness)
	}
	if smp.known {
		r.served.Observe(smp.stalenessNS)
	}
}

// add folds one decision into the workload window.
func (w *workloadWindow) add(g GuardEvent) {
	w.queries++
	if g.Chosen == 0 {
		w.local++
	} else {
		w.remote++
	}
	if g.Degraded {
		w.degraded++
	}
	if b := NormalizeBound(g.Bound); b == 0 {
		w.unbounded++
	} else {
		w.addBound(b)
	}
	if g.Chosen == 0 && g.StalenessKnown {
		w.stale[w.stalePos] = int64(g.Staleness)
		w.stalePos = (w.stalePos + 1) % workloadStalenessCap
		if w.staleCount < workloadStalenessCap {
			w.staleCount++
		}
	}
}

// addBound counts one occurrence of bound b, folding into the nearest
// tracked bound once the per-region cap is reached. Nearest is by absolute
// distance with ties to the smaller bound — a rule that depends only on the
// tracked values, keeping overflow deterministic.
func (w *workloadWindow) addBound(b time.Duration) {
	i, tracked := 0, w.bounds[:w.nBounds]
	for i < len(tracked) && tracked[i].BoundNS != int64(b) {
		i++
	}
	switch {
	case i < len(tracked):
	case w.nBounds < workloadMaxBounds:
		w.bounds[i].BoundNS, w.nBounds = int64(b), w.nBounds+1
	default:
		i = 0
		for j, t := range tracked {
			dj, di := max(t.BoundNS-int64(b), int64(b)-t.BoundNS), max(tracked[i].BoundNS-int64(b), int64(b)-tracked[i].BoundNS)
			if dj < di || dj == di && t.BoundNS < tracked[i].BoundNS {
				i = j
			}
		}
	}
	w.bounds[i].Count++
}

// SetStaleness sets the region's staleness gauge (region_staleness_ns)
// outside a guard decision, e.g. from the published heartbeat between queries.
func (l *RegionLedger) SetStaleness(region int, d time.Duration) {
	l.mu.Lock()
	r := l.regionLocked(region)
	l.mu.Unlock()
	r.staleness.SetDuration(d)
}

// Reconfigure replaces the SLO target and window and resets every region's
// SLO window (mixed-window counts would be meaningless); the workload
// windows and the metrics are left as they are. target outside (0,1]
// selects DefaultSLOTarget; window <= 0 selects DefaultSLOWindow. Harness
// scenarios use it to size the window to the run length before any traffic
// flows.
func (l *RegionLedger) Reconfigure(target float64, window int) {
	if target <= 0 || target > 1 {
		target = DefaultSLOTarget
	}
	if window <= 0 {
		window = DefaultSLOWindow
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.target, l.window = target, window
	for _, r := range l.regions {
		r.slo = sloWindow{}
	}
}

// ErrorBudget returns the remaining error-budget fraction in [0,1]: 1 means
// untouched, 0 means spent (or overspent). With target t over a window of
// count observations, the budget allows (1-t)*count misses.
func ErrorBudget(target float64, within, count int) float64 {
	missed, allowed := float64(count-within), (1-target)*float64(count)
	switch {
	case missed == 0:
		return 1
	case allowed <= 0:
		return 0
	}
	return max(0, 1-missed/allowed)
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

// byIDLocked returns the records sorted by region id.
func (l *RegionLedger) byIDLocked() []*regionRecord {
	out := make([]*regionRecord, 0, len(l.regions))
	for _, r := range l.regions {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// SLO returns the per-region SLO state, sorted by region id: every region
// with a decision since the last Reconfigure.
func (l *RegionLedger) SLO() SLOSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	snap := SLOSnapshot{Target: l.target, Window: l.window, Regions: []RegionSLO{}}
	for _, rec := range l.byIDLocked() {
		s := &rec.slo
		if s.count == 0 {
			continue
		}
		r := RegionSLO{
			Region:       rec.id,
			Observations: s.count,
			Within:       s.within,
			Degraded:     s.degraded,
			WithinRatio:  float64(s.within) / float64(s.count),
			ErrorBudget:  ErrorBudget(l.target, s.within, s.count),
		}
		var stale []int64
		for _, smp := range s.samples[:s.count] {
			if smp.known {
				stale = append(stale, smp.stalenessNS)
			}
		}
		r.StalenessP50NS, r.StalenessP95NS, r.StalenessP99NS, r.StalenessMaxNS = quantiles(stale)
		snap.Regions = append(snap.Regions, r)
	}
	return snap
}

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

// Snapshot returns the profiles of the current (still accumulating) workload
// window at time now, sorted by region id, without resetting anything.
func (l *RegionLedger) Snapshot(now time.Time) []WorkloadProfile {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.profilesLocked(now)
}

// Cut closes the current workload window at time now: it returns the
// window's profiles and starts a fresh window; the SLO windows and the
// metrics are left as they are. The tuner loop calls it once per cadence
// tick so each decision sees exactly one window of traffic.
func (l *RegionLedger) Cut(now time.Time) []WorkloadProfile {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.profilesLocked(now)
	l.windowStart = now
	for _, r := range l.regions {
		r.win = workloadWindow{}
	}
	return out
}

// profilesLocked builds one profile per region with a decision.
func (l *RegionLedger) profilesLocked(now time.Time) []WorkloadProfile {
	window := now.Sub(l.windowStart)
	out := make([]WorkloadProfile, 0, len(l.regions))
	for _, r := range l.byIDLocked() {
		if !r.seen {
			continue
		}
		w := &r.win
		p := WorkloadProfile{
			Region:    r.id,
			WindowNS:  int64(window),
			Queries:   w.queries,
			Local:     w.local,
			Remote:    w.remote,
			Degraded:  w.degraded,
			Unbounded: w.unbounded,
			Bounds:    []BoundCount{},
		}
		if window > 0 {
			p.QueriesPerSecond = float64(w.queries) / window.Seconds()
		}
		p.Bounds = append(p.Bounds, w.bounds[:w.nBounds]...)
		sort.Slice(p.Bounds, func(i, j int) bool { return p.Bounds[i].BoundNS < p.Bounds[j].BoundNS })
		stale := append([]int64(nil), w.stale[:w.staleCount]...)
		p.StalenessP50NS, p.StalenessP95NS, _, p.StalenessMaxNS = quantiles(stale)
		out = append(out, p)
	}
	return out
}

// quantiles sorts samples and returns their nearest-rank p50, p95, p99 and
// maximum (zeros when empty).
func quantiles(samples []int64) (p50, p95, p99, max int64) {
	slices.Sort(samples)
	return NearestRank(samples, 0.50), NearestRank(samples, 0.95), NearestRank(samples, 0.99), NearestRank(samples, 1)
}

// NearestRank returns the p-quantile of sorted samples by the nearest-rank
// rule, the ⌈p·N⌉-th smallest (zero when empty). The epsilon keeps an exact
// product such as 0.99×100 from rounding up past its whole number.
func NearestRank[T ~int64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted))-1e-9)) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
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
