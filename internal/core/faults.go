package core

import (
	"time"

	"relaxedcc/internal/fault"
	"relaxedcc/internal/repl"
)

// InjectFaults points the link and every distribution agent at the fault
// injector: the link consults it per attempt (latency, transient errors,
// partitions) and agents consult it per propagation step (stalls). Since the
// injector is the one thing that can stall an agent, each agent also gets a
// watchdog that restarts it on stall, scheduled on the agent's own
// propagation cadence. Call it after regions are registered; regions added
// later are adopted automatically.
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
	wd := repl.NewWatchdog(a, s.Cache.Obs())
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
