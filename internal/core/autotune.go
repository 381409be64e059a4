package core

import (
	"time"

	"relaxedcc/internal/repl"
	"relaxedcc/internal/tuner"
)

// agentActuator adapts a distribution agent to the tuner loop's actuator
// interface: the tuner retunes the agent's effective cadence, never the
// catalog's configured baseline.
type agentActuator struct{ a *repl.Agent }

func (t agentActuator) Region() int                          { return t.a.Region.ID }
func (t agentActuator) Delay() time.Duration                 { return t.a.Region.UpdateDelay }
func (t agentActuator) Interval() time.Duration              { return t.a.Interval() }
func (t agentActuator) SetInterval(d time.Duration)          { t.a.SetInterval(d) }
func (t agentActuator) HeartbeatInterval() time.Duration     { return t.a.HeartbeatInterval() }
func (t agentActuator) SetHeartbeatInterval(d time.Duration) { t.a.SetHeartbeatInterval(d) }

// EnableAutotune closes the loop between the primary cache's region ledger
// and its replication fabric: a tuner.Loop ticks on the coordinator's
// schedule, cuts the ledger's workload window, re-solves the Section 6
// optimization per region, and retunes each agent's propagation interval
// and heartbeat cadence with hysteresis. Decisions are recorded on the
// loop's ring (served on /tuner) and in the tuner_* metrics of the cache's
// registry.
//
// Call it after regions are registered; regions added later are adopted
// automatically. Idempotent: a second call returns the existing loop.
func (s *System) EnableAutotune(cfg tuner.LoopConfig) *tuner.Loop {
	if s.tuner != nil {
		return s.tuner
	}
	loop := tuner.NewLoop(cfg, s.Cache.Ledger().Cut, s.Cache.Obs())
	s.tuner = loop
	s.adoptAll()
	s.Coord.AddPeriodic(loop.Cadence(), loop.Tick)
	return loop
}

// Tuner returns the autotuning loop installed by EnableAutotune, or nil.
func (s *System) Tuner() *tuner.Loop { return s.tuner }
