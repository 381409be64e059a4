package harness

import (
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/core"
	"relaxedcc/internal/fault"
	"relaxedcc/internal/mtcache"
	"relaxedcc/internal/remote"
	"relaxedcc/internal/sqltypes"
)

// Scenario is what the chaos and shift runs share: a single-region system —
// table T with one row, region 1, view t_prj — behind a seeded fault injector
// on a resilient link, driven by the virtual clock, so the same config
// replays the same run byte for byte.
type Scenario struct {
	Seed int64

	// Region cadence as configured.
	UpdateInterval    time.Duration
	UpdateDelay       time.Duration
	HeartbeatInterval time.Duration

	// Latency plus jitter is imposed on every remote call.
	Latency       time.Duration
	LatencyJitter time.Duration

	// OnSystem, if set, receives the fully wired system right after fault
	// injection and resilience are enabled, before any virtual time passes.
	// Callers use it to stash the system (e.g. to scrape its ObsHandler
	// endpoints after the run) or to add extra instrumentation. It must not
	// advance the clock or run queries, or determinism is lost.
	OnSystem func(*core.System)
}

// build wires the scenario's system — transient link errors at errorRate,
// resilience with policy p, then the run's own wiring (wire, may be nil) and
// OnSystem — and warms it up for one full propagation cycle, so the region
// has synchronized at least once before the run starts.
func (sc Scenario) build(errorRate float64, p remote.Policy, wire func(*core.System)) (*core.System, *fault.Injector, error) {
	sys := core.NewSystem()
	sys.MustExec("CREATE TABLE T (id BIGINT NOT NULL PRIMARY KEY, v BIGINT)")
	if err := sys.AddRegion(&catalog.Region{
		ID: 1, Name: "R",
		UpdateInterval:    sc.UpdateInterval,
		UpdateDelay:       sc.UpdateDelay,
		HeartbeatInterval: sc.HeartbeatInterval,
	}); err != nil {
		return nil, nil, err
	}
	if err := sys.CreateView(&catalog.View{
		Name: "t_prj", BaseTable: "T", Columns: []string{"id", "v"}, RegionID: 1,
	}); err != nil {
		return nil, nil, err
	}
	if err := sys.Backend.LoadRows("T", []sqltypes.Row{{sqltypes.NewInt(1), sqltypes.NewInt(1)}}); err != nil {
		return nil, nil, err
	}
	if err := sys.Analyze(); err != nil {
		return nil, nil, err
	}
	inj := fault.New(sc.Seed)
	inj.SetLatency(sc.Latency, sc.LatencyJitter)
	inj.SetErrorRate(errorRate)
	sys.InjectFaults(inj)
	sys.EnableResilience(p)
	if wire != nil {
		wire(sys)
	}
	if sc.OnSystem != nil {
		sc.OnSystem(sys)
	}
	if err := sys.Run(sc.UpdateInterval + sc.UpdateDelay + 2*sc.HeartbeatInterval); err != nil {
		return nil, nil, err
	}
	return sys, inj, nil
}

// countServe classifies one answer into a report's three counters — served
// from the local view with the guard's blessing, from the local view because
// the remote fall-back was unavailable (degraded), or from the back end — and
// reports whether the local view answered, either way.
func countServe(res *mtcache.QueryResult, local, degraded, remote *int) bool {
	switch {
	case res.Degraded:
		*degraded++
	case len(res.LocalViews) > 0:
		*local++
	default:
		*remote++
		return false
	}
	return true
}
