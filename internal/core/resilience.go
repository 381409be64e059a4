package core

import (
	"time"

	"relaxedcc/internal/fault"
	"relaxedcc/internal/remote"
	"relaxedcc/internal/repl"
)

// EnableResilience hardens the system's cache↔back-end link and replication
// fabric against the failures the chaos harness injects:
//
//   - the remote link gets remote.DefaultPolicy's retries, backoff, deadline
//     and circuit breaker, with the breaker cooldown set to the slowest
//     region's heartbeat cadence so a half-open probe lines up with the next
//     freshness signal;
//   - every distribution agent gets a watchdog that restarts it on stall,
//     scheduled on the agent's own propagation cadence.
//
// Call it after regions are registered; regions added later are adopted
// automatically.
func (s *System) EnableResilience() {
	p := remote.DefaultPolicy()
	p.BreakerCooldown = s.heartbeatCadence()
	s.Cache.Link().Configure(p)
	s.resilient = true
	s.adoptAll()
}

// InjectFaults points the link and every distribution agent at the fault
// injector: the link consults it per attempt (latency, transient errors,
// partitions) and agents consult it per propagation step (stalls). Call it
// after regions are registered; regions added later are adopted
// automatically.
func (s *System) InjectFaults(f *fault.Injector) {
	s.faults = f
	s.Cache.Link().SetFault(f)
	s.adoptAll()
}

// watch puts one agent under watchdog supervision (idempotent per region).
func (s *System) watch(a *repl.Agent) {
	if s.watched == nil {
		s.watched = map[int]bool{}
	}
	if s.watched[a.Region.ID] {
		return
	}
	s.watched[a.Region.ID] = true
	wd := repl.NewWatchdog(a)
	wd.Instrument(s.Cache.Obs())
	s.Watchdogs = append(s.Watchdogs, wd)
	// Check on the agent's own cadence — re-read every due-time computation
	// so the watchdog follows autotuner retunes: the default stall threshold
	// is three (effective) update intervals, so a wedged agent is caught on
	// the third missed propagation at whatever cadence it runs.
	s.Coord.AddPeriodic(func() time.Duration {
		if iv := a.Interval(); iv > 0 {
			return iv
		}
		return time.Second
	}, wd.Check)
}

// heartbeatCadence is the slowest heartbeat interval across the cache's
// regions, and at least a second — the natural pace for breaker half-open
// probes, since no fresher currency signal arrives sooner.
func (s *System) heartbeatCadence() time.Duration {
	cadence := time.Second
	for _, r := range s.Cache.Catalog().Regions() {
		if r.HeartbeatInterval > cadence {
			cadence = r.HeartbeatInterval
		}
	}
	return cadence
}
