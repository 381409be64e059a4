package tuner

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"relaxedcc/internal/obs"
)

// RegionActuator is the loop's handle on one currency region's replication
// knobs. core.System adapts repl.Agent to it; the indirection keeps the
// tuner importable from tests without a full system.
type RegionActuator interface {
	// Region returns the currency region id.
	Region() int
	// Delay returns the region's propagation delay (the paper's d).
	Delay() time.Duration
	// Interval returns the current effective refresh interval (the paper's
	// f); SetInterval retunes it live.
	Interval() time.Duration
	SetInterval(time.Duration)
	// HeartbeatInterval returns the current effective heartbeat cadence;
	// SetHeartbeatInterval retunes it live.
	HeartbeatInterval() time.Duration
	SetHeartbeatInterval(time.Duration)
}

// DefaultCadence is the tick interval of an autotuned rccsql or rccbench
// run. Each tick cuts one observation window and makes at most one decision
// per region.
const DefaultCadence = 10 * time.Second

// The loop's fixed settings; DESIGN "Closed-loop autotuning" gives the reason
// for each. Only the cadence differs between callers.
const (
	// minSamples is the fewest observed queries in a window that justify a
	// decision; thinner windows hold.
	minSamples = 8
	// deadBand is the relative interval change below which the loop holds:
	// re-solving on every tick would chase noise.
	deadBand = 0.15
	// maxStep caps the per-round interval change factor: a retune moves at
	// most maxStep times shorter or longer per tick, so one aberrant window
	// cannot slam the fabric.
	maxStep = 4
	// minInterval and maxInterval clamp applied intervals.
	minInterval = 100 * time.Millisecond
	maxInterval = 10 * time.Minute
	// targetSlack shrinks observed bounds before solving: the analytic
	// optimum sits exactly at f = B - d, where heartbeat granularity would
	// leave served staleness grazing the bound; solving for
	// B*(1-targetSlack) buys the margin that keeps serves within bound.
	targetSlack = 0.25
	// heartbeatFraction sets the heartbeat cadence as a fraction of the
	// applied interval, clamped to [minHeartbeat, maxHeartbeat]: staleness
	// is only observable at heartbeat granularity, so the heartbeat follows
	// the interval down.
	heartbeatFraction = 0.1
	minHeartbeat      = 100 * time.Millisecond
	maxHeartbeat      = 5 * time.Second
	// ringSize caps the retained decision timeline.
	ringSize = 256
)

// loopCosts prices the Section 6 objective: answering remotely is expensive
// relative to one propagation cycle, so bounded workloads pull the interval
// down.
var loopCosts = Costs{RefreshCost: 1, RemotePenalty: 10}

// Decision records one per-region loop decision: the observed inputs, the
// solved interval, what was applied (or held) and why. Durations are
// nanoseconds for stable JSON.
type Decision struct {
	Seq    int64 `json:"seq"`
	AtNS   int64 `json:"at_unix_ns"`
	Region int   `json:"region"`

	// Observed inputs.
	Queries          int64            `json:"queries"`
	QueriesPerSecond float64          `json:"queries_per_second"`
	LocalRatio       float64          `json:"local_ratio"`
	Unbounded        int64            `json:"unbounded"`
	Bounds           []obs.BoundCount `json:"bounds"`

	// Solver output and actuation.
	PrevIntervalNS    int64   `json:"prev_interval_ns"`
	SolvedIntervalNS  int64   `json:"solved_interval_ns"`
	AppliedIntervalNS int64   `json:"applied_interval_ns"`
	HeartbeatNS       int64   `json:"heartbeat_ns"`
	PredictedLocal    float64 `json:"predicted_local"`
	CostRate          float64 `json:"cost_rate"`

	Applied bool `json:"applied"`
	// Reason is "applied", "applied:max-step", or one of the hold reasons
	// "held:min-samples", "held:no-bounds", "held:dead-band",
	// "held:solver-error".
	Reason string `json:"reason"`
}

// regionState is the loop's per-actuator bookkeeping. retunes and held are
// the region's tuner_retunes_total and tuner_held_total children, registered
// by the region's first decision of that kind (nil until then), so a region
// the loop never decided on adds no series.
type regionState struct {
	act           RegionActuator
	label         string
	retunes, held *obs.Counter
	mTarget       *obs.Gauge
}

// Loop is the closed-loop autotuner: each Tick cuts one window of per-region
// workload profiles, re-solves the Section 6 optimization per region, and
// retunes replication intervals through the registered actuators — with
// hysteresis (dead-band plus max step per round) so the loop is stable.
// Every decision lands in a bounded ring served on /tuner and in the
// tuner_* metrics.
type Loop struct {
	cadence time.Duration
	// cut closes one window of workload profiles (obs.RegionLedger.Cut).
	cut func(now time.Time) []obs.WorkloadProfile

	mRetunes *obs.CounterVec // tuner_retunes_total{region}
	mHeld    *obs.CounterVec // tuner_held_total{region}
	mTarget  *obs.GaugeVec   // tuner_target_interval_ns{region}

	mu      sync.Mutex
	regions map[int]*regionState
	// decisions is the retained timeline; a decision's Seq is its publish
	// sequence there.
	decisions *obs.Ring[Decision]
}

// NewLoop builds a loop ticking every cadence over the window cut, with zero
// registered regions. reg receives the loop's metrics.
func NewLoop(cadence time.Duration, cut func(now time.Time) []obs.WorkloadProfile, reg *obs.Registry) *Loop {
	return &Loop{
		cadence:   cadence,
		cut:       cut,
		mRetunes:  reg.CounterVec("tuner_retunes_total", "region"),
		mHeld:     reg.CounterVec("tuner_held_total", "region"),
		mTarget:   reg.GaugeVec("tuner_target_interval_ns", "region"),
		regions:   map[int]*regionState{},
		decisions: obs.NewRing[Decision](ringSize),
	}
}

// Cadence returns the loop's tick interval.
func (l *Loop) Cadence() time.Duration { return l.cadence }

// AddRegion registers an actuator; idempotent per region id. The target
// gauge starts at the region's current interval.
func (l *Loop) AddRegion(act RegionActuator) {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := act.Region()
	if _, ok := l.regions[id]; ok {
		return
	}
	rs := &regionState{act: act, label: strconv.Itoa(id)}
	rs.mTarget = l.mTarget.With(rs.label)
	rs.mTarget.SetDuration(act.Interval())
	l.regions[id] = rs
}

// Tick is one loop round at virtual time now: cut the observation window,
// decide per profiled region, actuate. Schedule it with
// Coordinator.AddPeriodic(loop.Cadence, loop.Tick). It never fails — a
// region the solver cannot price is held with a recorded reason — so the
// coordinator drain is never aborted by the tuner.
func (l *Loop) Tick(now time.Time) error {
	profiles := l.cut(now)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range profiles {
		rs := l.regions[p.Region]
		if rs == nil || p.Queries == 0 {
			// An unregistered or idle region yields no decision: there is
			// nothing to actuate, or no evidence to act on.
			continue
		}
		l.decideLocked(now, rs, p)
	}
	return nil
}

// decideLocked makes and records one region's decision.
func (l *Loop) decideLocked(now time.Time, rs *regionState, p obs.WorkloadProfile) {
	prev := rs.act.Interval()
	d := Decision{
		AtNS:             now.UnixNano(),
		Region:           p.Region,
		Queries:          p.Queries,
		QueriesPerSecond: p.QueriesPerSecond,
		Unbounded:        p.Unbounded,
		Bounds:           p.Bounds,
		PrevIntervalNS:   int64(prev),
	}
	if p.Queries > 0 {
		d.LocalRatio = float64(p.Local) / float64(p.Queries)
	}

	hold := func(reason string) {
		d.Reason = reason
		d.AppliedIntervalNS = int64(prev)
		d.HeartbeatNS = int64(rs.act.HeartbeatInterval())
		l.recordLocked(rs, d)
	}

	if p.Queries < minSamples {
		hold("held:min-samples")
		return
	}
	if len(p.Bounds) == 0 {
		// An all-unbounded window exerts no currency pressure; leave the
		// configured interval alone.
		hold("held:no-bounds")
		return
	}

	// Solve the Section 6 objective on the observed bound mix. Bounds are
	// shrunk by the target slack, and the arrival rate scaled to the
	// bounded fraction (unbounded queries never fall back remote). The
	// solve runs twice: the first pass picks an interval assuming perfect
	// staleness observation, the second folds in the heartbeat cadence that
	// interval implies — guards only see staleness at heartbeat
	// granularity, so the effective delay is d + heartbeat.
	var bounded int64
	w := Workload{}
	for _, bc := range p.Bounds {
		bounded += bc.Count
		scaled := time.Duration(float64(bc.BoundNS) * (1 - targetSlack))
		w.Bounds = append(w.Bounds, BoundShare{Bound: scaled, Weight: float64(bc.Count)})
	}
	w.QueriesPerSecond = p.QueriesPerSecond * float64(bounded) / float64(p.Queries)
	delay := rs.act.Delay()
	first, err := Tune(w, loopCosts, delay)
	if err != nil {
		hold("held:solver-error")
		return
	}
	hb := clampHeartbeat(first.Interval)
	res, err := Tune(w, loopCosts, delay+hb)
	if err != nil {
		hold("held:solver-error")
		return
	}
	solved := clampDur(res.Interval, minInterval, maxInterval)
	d.SolvedIntervalNS = int64(solved)
	d.PredictedLocal = res.LocalFraction
	d.CostRate = res.CostRate

	// Hysteresis: hold inside the dead-band, cap the per-round step.
	if relDiff(solved, prev) <= deadBand {
		hold("held:dead-band")
		return
	}
	applied, reason := solved, "applied"
	if lo := time.Duration(float64(prev) / maxStep); applied < lo {
		applied, reason = lo, "applied:max-step"
	}
	if hi := time.Duration(float64(prev) * maxStep); applied > hi {
		applied, reason = hi, "applied:max-step"
	}
	applied = clampDur(applied, minInterval, maxInterval)
	hb = clampHeartbeat(applied)

	rs.act.SetInterval(applied)
	rs.act.SetHeartbeatInterval(hb)
	d.Applied = true
	d.Reason = reason
	d.AppliedIntervalNS = int64(applied)
	d.HeartbeatNS = int64(hb)
	l.recordLocked(rs, d)
}

// clampHeartbeat derives the heartbeat cadence for an interval: a fraction
// of it, clamped to [minHeartbeat, maxHeartbeat] and never slower than the
// interval itself.
func clampHeartbeat(interval time.Duration) time.Duration {
	hb := time.Duration(float64(interval) * heartbeatFraction)
	hb = clampDur(hb, minHeartbeat, maxHeartbeat)
	if hb > interval {
		hb = interval
	}
	return hb
}

func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// relDiff is |a-b| relative to b (0 when b is 0 and a is 0).
func relDiff(a, b time.Duration) float64 {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if b <= 0 {
		if diff == 0 {
			return 0
		}
		return 1
	}
	return float64(diff) / float64(b)
}

// recordLocked counts the decision as its region's retune or hold, points
// the region's target gauge at the interval it leaves, and publishes it on
// the bounded timeline.
func (l *Loop) recordLocked(rs *regionState, d Decision) {
	c, family := &rs.held, l.mHeld
	if d.Applied {
		c, family = &rs.retunes, l.mRetunes
	}
	if *c == nil {
		*c = family.With(rs.label)
	}
	(*c).Inc()
	rs.mTarget.Set(d.AppliedIntervalNS)
	if d.Bounds == nil {
		d.Bounds = []obs.BoundCount{}
	}
	l.decisions.Push(d)
}

// RegionTunerState is one region's row in a loop snapshot.
type RegionTunerState struct {
	Region      int   `json:"region"`
	IntervalNS  int64 `json:"interval_ns"`
	HeartbeatNS int64 `json:"heartbeat_ns"`
	DelayNS     int64 `json:"delay_ns"`
	Retunes     int64 `json:"retunes"`
	Held        int64 `json:"held"`
}

// Snapshot is the /tuner payload: the loop's hysteresis configuration, the
// per-region effective state, and the retained decision timeline, oldest
// first. Fully deterministic under the virtual clock (counts and virtual
// timestamps only, regions sorted by id).
type Snapshot struct {
	CadenceNS   int64              `json:"cadence_ns"`
	DeadBand    float64            `json:"dead_band"`
	MaxStep     float64            `json:"max_step"`
	MinSamples  int64              `json:"min_samples"`
	TargetSlack float64            `json:"target_slack"`
	Regions     []RegionTunerState `json:"regions"`
	Decisions   []Decision         `json:"decisions"`
}

// Snapshot returns the loop's current state for the ops surface.
func (l *Loop) Snapshot() Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	snap := Snapshot{
		CadenceNS:   int64(l.cadence),
		DeadBand:    deadBand,
		MaxStep:     maxStep,
		MinSamples:  minSamples,
		TargetSlack: targetSlack,
		Regions:     []RegionTunerState{},
		Decisions:   []Decision{},
	}
	l.decisions.Each(func(seq uint64, d Decision) {
		d.Seq = int64(seq)
		snap.Decisions = append(snap.Decisions, d)
	})
	ids := make([]int, 0, len(l.regions))
	for id := range l.regions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	count := func(c *obs.Counter) int64 { // 0 before the region's first such decision
		if c == nil {
			return 0
		}
		return c.Value()
	}
	for _, id := range ids {
		rs := l.regions[id]
		snap.Regions = append(snap.Regions, RegionTunerState{
			Region:      id,
			IntervalNS:  int64(rs.act.Interval()),
			HeartbeatNS: int64(rs.act.HeartbeatInterval()),
			DelayNS:     int64(rs.act.Delay()),
			Retunes:     count(rs.retunes),
			Held:        count(rs.held),
		})
	}
	return snap
}
