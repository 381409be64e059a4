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

// LoopConfig parameterizes the closed-loop autotuner. The zero value of
// every field selects the default noted on it.
type LoopConfig struct {
	// Cadence is the virtual time between loop ticks (default 10s). Each
	// tick cuts one observation window and makes at most one decision per
	// region.
	Cadence time.Duration
	// Costs parameterizes the Section 6 objective (default RefreshCost 1,
	// RemotePenalty 10: answering remotely is expensive relative to one
	// propagation cycle, so bounded workloads pull the interval down).
	Costs Costs
	// MinSamples is the fewest observed queries in a window that justify a
	// decision (default 8); thinner windows hold.
	MinSamples int64
	// DeadBand is the relative interval change below which the loop holds
	// (default 0.15): re-solving on every tick would chase noise.
	DeadBand float64
	// MaxStep caps the per-round interval change factor (default 4): a
	// retune moves at most MaxStep times shorter or longer per tick, so one
	// aberrant window cannot slam the fabric.
	MaxStep float64
	// MinInterval / MaxInterval clamp applied intervals (defaults 100ms and
	// 10min).
	MinInterval time.Duration
	MaxInterval time.Duration
	// TargetSlack shrinks observed bounds before solving (default 0.25):
	// the analytic optimum sits exactly at f = B - d, where heartbeat
	// granularity would leave served staleness grazing the bound; solving
	// for B*(1-TargetSlack) buys the margin that keeps serves within bound.
	TargetSlack float64
	// HeartbeatFraction sets the heartbeat cadence as a fraction of the
	// applied interval (default 0.1), clamped to [MinHeartbeat,
	// MaxHeartbeat] (defaults 100ms and 5s): staleness is only observable
	// at heartbeat granularity, so the heartbeat follows the interval down.
	HeartbeatFraction float64
	MinHeartbeat      time.Duration
	MaxHeartbeat      time.Duration
	// RingSize caps the retained decision timeline (default 256).
	RingSize int
}

// withDefaults resolves zero fields to their defaults.
func (c LoopConfig) withDefaults() LoopConfig {
	if c.Cadence <= 0 {
		c.Cadence = 10 * time.Second
	}
	if c.Costs == (Costs{}) {
		c.Costs = Costs{RefreshCost: 1, RemotePenalty: 10}
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.DeadBand <= 0 {
		c.DeadBand = 0.15
	}
	if c.MaxStep <= 1 {
		c.MaxStep = 4
	}
	if c.MinInterval <= 0 {
		c.MinInterval = 100 * time.Millisecond
	}
	if c.MaxInterval <= 0 {
		c.MaxInterval = 10 * time.Minute
	}
	if c.TargetSlack <= 0 || c.TargetSlack >= 1 {
		c.TargetSlack = 0.25
	}
	if c.HeartbeatFraction <= 0 || c.HeartbeatFraction >= 1 {
		c.HeartbeatFraction = 0.1
	}
	if c.MinHeartbeat <= 0 {
		c.MinHeartbeat = 100 * time.Millisecond
	}
	if c.MaxHeartbeat <= 0 {
		c.MaxHeartbeat = 5 * time.Second
	}
	if c.RingSize <= 0 {
		c.RingSize = 256
	}
	return c
}

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

// regionState is the loop's per-actuator bookkeeping.
type regionState struct {
	act     RegionActuator
	retunes int64
	held    int64

	label   string
	mTarget *obs.Gauge
}

// Loop is the closed-loop autotuner: each Tick cuts one window of per-region
// workload profiles, re-solves the Section 6 optimization per region, and
// retunes replication intervals through the registered actuators — with
// hysteresis (dead-band plus max step per round) so the loop is stable.
// Every decision lands in a bounded ring served on /tuner and in the
// tuner_* metrics.
type Loop struct {
	cfg LoopConfig
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

// NewLoop builds a loop over the window cut with zero registered regions.
// reg, when non-nil, receives the loop's metrics. Zero config fields select
// the defaults documented on LoopConfig.
func NewLoop(cfg LoopConfig, cut func(now time.Time) []obs.WorkloadProfile, reg *obs.Registry) *Loop {
	cfg = cfg.withDefaults()
	l := &Loop{
		cfg:       cfg,
		cut:       cut,
		regions:   map[int]*regionState{},
		decisions: obs.NewRing[Decision](cfg.RingSize),
	}
	if reg != nil {
		l.mRetunes = reg.CounterVec("tuner_retunes_total", "region")
		l.mHeld = reg.CounterVec("tuner_held_total", "region")
		l.mTarget = reg.GaugeVec("tuner_target_interval_ns", "region")
	}
	return l
}

// Cadence returns the loop's tick interval.
func (l *Loop) Cadence() time.Duration { return l.cfg.Cadence }

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
	if l.mTarget != nil {
		rs.mTarget = l.mTarget.With(rs.label)
		rs.mTarget.SetDuration(act.Interval())
	}
	l.regions[id] = rs
}

// Tick is one loop round at virtual time now: cut the observation window,
// decide per profiled region, actuate. Schedule it with
// Coordinator.AddPeriodic(loop.Cadence(), loop.Tick). It never fails — a
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
		rs.held++
		if l.mHeld != nil {
			l.mHeld.With(rs.label).Inc()
		}
		if rs.mTarget != nil {
			rs.mTarget.SetDuration(prev)
		}
		l.recordLocked(d)
	}

	if p.Queries < l.cfg.MinSamples {
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
		scaled := time.Duration(float64(bc.BoundNS) * (1 - l.cfg.TargetSlack))
		w.Bounds = append(w.Bounds, BoundShare{Bound: scaled, Weight: float64(bc.Count)})
	}
	w.QueriesPerSecond = p.QueriesPerSecond * float64(bounded) / float64(p.Queries)
	delay := rs.act.Delay()
	first, err := Tune(w, l.cfg.Costs, delay)
	if err != nil {
		hold("held:solver-error")
		return
	}
	hb := l.clampHeartbeat(first.Interval)
	res, err := Tune(w, l.cfg.Costs, delay+hb)
	if err != nil {
		hold("held:solver-error")
		return
	}
	solved := clampDur(res.Interval, l.cfg.MinInterval, l.cfg.MaxInterval)
	d.SolvedIntervalNS = int64(solved)
	d.PredictedLocal = res.LocalFraction
	d.CostRate = res.CostRate

	// Hysteresis: hold inside the dead-band, cap the per-round step.
	if relDiff(solved, prev) <= l.cfg.DeadBand {
		hold("held:dead-band")
		return
	}
	applied, reason := solved, "applied"
	if lo := time.Duration(float64(prev) / l.cfg.MaxStep); applied < lo {
		applied, reason = lo, "applied:max-step"
	}
	if hi := time.Duration(float64(prev) * l.cfg.MaxStep); applied > hi {
		applied, reason = hi, "applied:max-step"
	}
	applied = clampDur(applied, l.cfg.MinInterval, l.cfg.MaxInterval)
	hb = l.clampHeartbeat(applied)

	rs.act.SetInterval(applied)
	rs.act.SetHeartbeatInterval(hb)
	d.Applied = true
	d.Reason = reason
	d.AppliedIntervalNS = int64(applied)
	d.HeartbeatNS = int64(hb)
	rs.retunes++
	if l.mRetunes != nil {
		l.mRetunes.With(rs.label).Inc()
	}
	if rs.mTarget != nil {
		rs.mTarget.SetDuration(applied)
	}
	l.recordLocked(d)
}

// clampHeartbeat derives the heartbeat cadence for an interval: a fraction
// of it, clamped to the configured band and never slower than the interval
// itself.
func (l *Loop) clampHeartbeat(interval time.Duration) time.Duration {
	hb := time.Duration(float64(interval) * l.cfg.HeartbeatFraction)
	hb = clampDur(hb, l.cfg.MinHeartbeat, l.cfg.MaxHeartbeat)
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

// recordLocked publishes the decision on the bounded timeline.
func (l *Loop) recordLocked(d Decision) {
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
		CadenceNS:   int64(l.cfg.Cadence),
		DeadBand:    l.cfg.DeadBand,
		MaxStep:     l.cfg.MaxStep,
		MinSamples:  l.cfg.MinSamples,
		TargetSlack: l.cfg.TargetSlack,
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
	for _, id := range ids {
		rs := l.regions[id]
		snap.Regions = append(snap.Regions, RegionTunerState{
			Region:      id,
			IntervalNS:  int64(rs.act.Interval()),
			HeartbeatNS: int64(rs.act.HeartbeatInterval()),
			DelayNS:     int64(rs.act.Delay()),
			Retunes:     rs.retunes,
			Held:        rs.held,
		})
	}
	return snap
}
