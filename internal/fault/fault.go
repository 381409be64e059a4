// Package fault is a deterministic fault injector for the cache↔back-end
// link and the replication fabric. It models the failures a mid-tier cache
// must survive — added link latency, transient request errors, hard
// partitions, and wedged distribution agents — so the violation-action
// machinery (serve stale, block, fail fast) can be exercised exactly.
//
// Determinism is the design constraint: every random draw comes from one
// seeded generator, and every time-dependent decision (partition windows,
// latency budgets) is driven by the caller-supplied clock reading, never by
// the wall clock. A chaos run with the same seed and the same virtual-clock
// schedule replays the same faults, which is what makes the chaos tests
// runnable under -race in CI without flaking.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected is the base class of every injector-produced failure;
// errors.Is(err, ErrInjected) identifies synthetic faults in tests.
var ErrInjected = errors.New("fault: injected failure")

// ErrPartition is returned while a hard partition is in force. It wraps
// ErrInjected.
var ErrPartition = fmt.Errorf("%w: link partitioned", ErrInjected)

// ErrTransient is a one-shot request failure (dropped packet, throttled
// connection). It wraps ErrInjected.
var ErrTransient = fmt.Errorf("%w: transient link error", ErrInjected)

// Stats counts what the injector has done.
type Stats struct {
	// Transients is how many transient errors were injected.
	Transients int64
	// PartitionDenials is how many calls were refused by a partition.
	PartitionDenials int64
	// Latency is the total synthetic latency imposed.
	Latency time.Duration
	// Stalls is how many agent wake-ups were swallowed by a stall.
	Stalls int64
}

// Injector imposes faults on demand. The zero value injects nothing; it is
// safe for concurrent use.
type Injector struct {
	mu  sync.Mutex
	rng *rand.Rand

	latencyBase   time.Duration
	latencyJitter time.Duration
	errorRate     float64

	partitioned    bool
	partitionUntil time.Time

	stalled       map[int]bool
	stallSurvives bool // a stall that survives agent restarts (hard wedge)
	stats         Stats
}

// New creates an injector whose random draws are fully determined by seed.
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed)), stalled: map[int]bool{}}
}

// SetLatency makes every injected call cost base plus a uniform draw in
// [0, jitter) of synthetic latency.
func (i *Injector) SetLatency(base, jitter time.Duration) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.latencyBase, i.latencyJitter = base, jitter
}

// SetErrorRate makes each call fail with ErrTransient with probability p
// (clamped to [0, 1]).
func (i *Injector) SetErrorRate(p float64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	i.errorRate = p
}

// SetPartitioned opens (or heals) a hard partition: every call fails with
// ErrPartition until cleared.
func (i *Injector) SetPartitioned(down bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.partitioned = down
	i.partitionUntil = time.Time{}
}

// PartitionUntil opens a partition that heals itself once the caller's
// clock reaches t — a deterministic outage window on a virtual timeline.
func (i *Injector) PartitionUntil(t time.Time) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.partitioned = true
	i.partitionUntil = t
}

// Partitioned reports whether a partition is in force at time now.
func (i *Injector) Partitioned(now time.Time) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.partitionedLocked(now)
}

func (i *Injector) partitionedLocked(now time.Time) bool {
	if !i.partitioned {
		return false
	}
	if !i.partitionUntil.IsZero() && !now.Before(i.partitionUntil) {
		i.partitioned = false
		i.partitionUntil = time.Time{}
		return false
	}
	return true
}

// Inject decides the fate of one link call at time now: the synthetic
// latency the call must pay (even failed calls pay it — the network does
// not refund round trips) and the injected error, if any. It implements
// remote.Fault.
func (i *Injector) Inject(now time.Time) (time.Duration, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	lat := i.latencyBase
	if i.latencyJitter > 0 && i.rng != nil {
		lat += time.Duration(i.rng.Int63n(int64(i.latencyJitter)))
	}
	i.stats.Latency += lat
	if i.partitionedLocked(now) {
		i.stats.PartitionDenials++
		return lat, ErrPartition
	}
	if i.errorRate > 0 && i.rng != nil && i.rng.Float64() < i.errorRate {
		i.stats.Transients++
		return lat, ErrTransient
	}
	return lat, nil
}

// StallAgent wedges (or unwedges) the distribution agent of one region:
// its wake-ups run but make no progress, so region staleness grows. By
// default a restart clears the wedge (the fault models a stuck process);
// see SetStallSurvivesRestart.
func (i *Injector) StallAgent(regionID int, stalled bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if stalled {
		if i.stalled == nil {
			i.stalled = map[int]bool{}
		}
		i.stalled[regionID] = true
	} else {
		delete(i.stalled, regionID)
	}
}

// SetStallSurvivesRestart makes injected stalls persist across agent
// restarts (a hard wedge, e.g. corrupted state rather than a stuck
// process).
func (i *Injector) SetStallSurvivesRestart(hard bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.stallSurvives = hard
}

// AgentStalled reports whether the region's agent is wedged; each stalled
// wake-up is counted. It implements repl.StallProbe.
func (i *Injector) AgentStalled(regionID int) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.stalled[regionID] {
		i.stats.Stalls++
		return true
	}
	return false
}

// AgentRestarted tells the injector a supervisor restarted the region's
// agent; soft stalls are cleared by the fresh process. It implements
// repl.StallProbe.
func (i *Injector) AgentRestarted(regionID int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.stallSurvives {
		delete(i.stalled, regionID)
	}
}

// Stats returns a snapshot of injection counters.
func (i *Injector) Stats() Stats {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.stats
}
