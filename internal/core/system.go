// Package core wires the full system of the paper together: a back-end
// server, a mid-tier cache (MTCache), transactional replication with
// currency regions, and a deterministic simulation driver for heartbeats
// and distribution agents. It is the top-level entry point used by the
// examples, the experiment harness and the benchmarks.
package core

import (
	"fmt"
	"time"

	"relaxedcc/internal/backend"
	"relaxedcc/internal/catalog"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/fault"
	"relaxedcc/internal/mtcache"
	"relaxedcc/internal/repl"
	"relaxedcc/internal/tuner"
	"relaxedcc/internal/vclock"
)

// System is a running back end + cache pair on a shared virtual clock.
type System struct {
	Clock   *vclock.Virtual
	Backend *backend.Server
	Cache   *mtcache.Cache
	Coord   *repl.Coordinator

	// Watchdogs supervise the primary cache's distribution agents once
	// InjectFaults has run (see faults.go).
	Watchdogs []*repl.Watchdog

	watched map[int]bool
	faults  *fault.Injector
	// tuner is the closed-loop autotuner installed by EnableAutotune (see
	// autotune.go); nil until enabled.
	tuner *tuner.Loop
}

// NewSystem creates an empty system on a fresh virtual clock. The
// coordinator is the one driver of that clock: every cache it builds waits
// through it (block waits, link backoff, injected latency), so replication
// keeps running while a query waits.
func NewSystem() *System {
	clock := vclock.NewVirtual()
	b := backend.New(clock)
	coord := repl.NewCoordinator(clock)
	return &System{
		Clock:   clock,
		Backend: b,
		Cache:   mtcache.New(clock, b, coord.Wait),
		Coord:   coord,
	}
}

// AddCache attaches an additional mid-tier cache to the same back end —
// the paper's scale-out deployment ("we replicate part of the database to
// other database servers that act as caches"). The new cache needs its own
// currency regions (distinct ids) and views, wired via AddCacheRegion and
// mtcache.CreateView.
func (s *System) AddCache() *mtcache.Cache {
	return mtcache.New(s.Clock, s.Backend, s.Coord.Wait)
}

// AddCacheRegion creates a currency region for an additional cache and
// schedules its heartbeat and distribution agent on the shared coordinator.
func (s *System) AddCacheRegion(c *mtcache.Cache, r *catalog.Region) error {
	agent, err := c.AddRegion(r)
	if err != nil {
		return err
	}
	s.Coord.AddHeartbeat(r.ID, agent.HeartbeatInterval, s.Backend.Beat)
	s.Coord.AddAgent(agent)
	return nil
}

// MustExec runs DDL/DML on the back end, panicking on error (setup helper).
func (s *System) MustExec(sql string) {
	if _, err := s.Backend.Exec(sql); err != nil {
		panic(fmt.Sprintf("core: %s: %v", sql, err))
	}
}

// AddRegion creates a currency region end to end: catalog entries on both
// servers, the heartbeat row and beater on the back end, and the
// distribution agent on the coordinator's schedule.
func (s *System) AddRegion(r *catalog.Region) error {
	agent, err := s.Cache.AddRegion(r)
	if err != nil {
		return err
	}
	// Heartbeats follow the agent's effective cadence so autotuner retunes
	// apply to the freshness signal too, not just propagation.
	s.Coord.AddHeartbeat(r.ID, agent.HeartbeatInterval, s.Backend.Beat)
	s.Coord.AddAgent(agent)
	s.adopt(agent)
	return nil
}

// adopt applies every subsystem that is enabled to one distribution agent of
// the primary cache: the fault injector's stall probe with its watchdog and
// the autotuner's actuator. Each step is idempotent, so AddRegion adopts the
// new agent and InjectFaults and EnableAutotune re-adopt every agent
// (adoptAll): that is the only wiring either does per agent, in either order
// of enabling and adding.
func (s *System) adopt(a *repl.Agent) {
	if s.faults != nil {
		a.SetStallProbe(s.faults)
		s.watch(a)
	}
	if s.tuner != nil {
		s.tuner.AddRegion(agentActuator{a})
	}
}

func (s *System) adoptAll() {
	for _, a := range s.Cache.Agents() {
		s.adopt(a)
	}
}

// CreateView defines a cached materialized view (see mtcache.CreateView).
func (s *System) CreateView(v *catalog.View, extraIndexes ...*catalog.Index) error {
	return s.Cache.CreateView(v, extraIndexes...)
}

// Analyze refreshes statistics on the back end and mirrors them into the
// cache's shadow catalog.
func (s *System) Analyze() error {
	s.Backend.AnalyzeAll()
	return s.Cache.RefreshShadowStats()
}

// Run advances simulated time by d, firing heartbeats and replication
// agents deterministically.
func (s *System) Run(d time.Duration) error { return s.Coord.Advance(d) }

// RunTo advances simulated time to t.
func (s *System) RunTo(t time.Time) error { return s.Coord.AdvanceTo(t) }

// Query runs a SELECT at the cache with full C&C enforcement.
func (s *System) Query(sql string) (*mtcache.QueryResult, error) {
	return s.Cache.Query(sql)
}

// ExplainAnalyze runs a SELECT at the cache with per-operator tracing: the
// returned result's Trace field holds the annotated plan tree (per-node
// time and rows, guard verdicts, region staleness at decision time).
func (s *System) ExplainAnalyze(sql string) (*mtcache.QueryResult, error) {
	return s.Cache.ExplainAnalyze(sql)
}

// QueryBackend runs a SELECT directly on the back end (bypassing the
// cache), e.g. to verify cached answers against master data.
func (s *System) QueryBackend(sql string) (*exec.Result, error) {
	return s.Backend.Query(sql)
}

// Exec forwards DML through the cache to the back end, as applications
// would.
func (s *System) Exec(sql string) (int, error) {
	return s.Cache.Exec(sql)
}
