package harness

import (
	"fmt"
	"slices"
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/core"
	"relaxedcc/internal/fault"
	"relaxedcc/internal/mtcache"
	"relaxedcc/internal/obs"
	"relaxedcc/internal/remote"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/vclock"
)

// Scenario is the system the chaos and shift runs share: a single-region
// cache — table T with one row, region 1, view t_prj — behind a seeded fault
// injector on a resilient link, driven by the virtual clock, so the same
// config replays the same run byte for byte.
type Scenario struct {
	Seed int64

	// Region cadence as configured; the heartbeat is scenarioHeartbeat.
	UpdateInterval time.Duration
	UpdateDelay    time.Duration

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

// scenarioHeartbeat is the region's heartbeat cadence in every scenario run.
const scenarioHeartbeat = time.Second

// newSingleRegion builds the system every single-region experiment runs on:
// table T with its one row, region 1 at the given cadence, view t_prj.
func newSingleRegion(interval, delay, heartbeat time.Duration) (*core.System, error) {
	sys := core.NewSystem()
	sys.MustExec("CREATE TABLE T (id BIGINT NOT NULL PRIMARY KEY, v BIGINT)")
	if err := sys.AddRegion(&catalog.Region{
		ID: 1, Name: "R", UpdateInterval: interval, UpdateDelay: delay, HeartbeatInterval: heartbeat,
	}); err != nil {
		return nil, err
	}
	if err := sys.CreateView(&catalog.View{
		Name: "t_prj", BaseTable: "T", Columns: []string{"id", "v"}, RegionID: 1,
	}); err != nil {
		return nil, err
	}
	if err := sys.Backend.LoadRows("T", []sqltypes.Row{{sqltypes.NewInt(1), sqltypes.NewInt(1)}}); err != nil {
		return nil, err
	}
	return sys, sys.Analyze()
}

// pointQuery is the one statement the single-region experiments ask.
func pointQuery(bound time.Duration) string {
	return fmt.Sprintf("SELECT v FROM T WHERE id = 1 CURRENCY %d MS ON (T)", bound.Milliseconds())
}

// injectFaults puts sys behind a seeded injector — latency plus jitter on
// every remote call, transient errors at errorRate — on a resilient link with
// the default policy (retry/backoff, deadline, breaker on heartbeat cadence).
func injectFaults(sys *core.System, seed int64, latency, jitter time.Duration, errorRate float64) *fault.Injector {
	inj := fault.New(seed)
	inj.SetLatency(latency, jitter)
	inj.SetErrorRate(errorRate)
	sys.InjectFaults(inj)
	sys.EnableResilience(remote.Policy{})
	return inj
}

// build wires the scenario's system, then the run's own wiring (wire, may be
// nil) and OnSystem, and warms it up for one full propagation cycle, so the
// region has synchronized at least once before the run starts.
func (sc Scenario) build(errorRate float64, wire func(*core.System)) (*core.System, *fault.Injector, error) {
	sys, err := newSingleRegion(sc.UpdateInterval, sc.UpdateDelay, scenarioHeartbeat)
	if err != nil {
		return nil, nil, err
	}
	inj := injectFaults(sys, sc.Seed, sc.Latency, sc.LatencyJitter, errorRate)
	if wire != nil {
		wire(sys)
	}
	if sc.OnSystem != nil {
		sc.OnSystem(sys)
	}
	return sys, inj, sys.Run(sc.UpdateInterval + sc.UpdateDelay + 2*scenarioHeartbeat)
}

// event is one scripted entry of a run's timeline — a partition, an agent
// stall, a master write, a guard lie, a bound flip. Do fires before the query
// of the first arrival whose offset has reached At and, when Every is set,
// again each time an arrival reaches the next multiple after it.
type event struct {
	At, Every time.Duration
	Do        func()
}

// ask is the query of one arrival: the session that issues it and the
// currency bound its text declares.
type ask struct {
	Session *mtcache.Session
	SQL     string
	Bound   time.Duration
}

// serve is one arrival's classified outcome, as the run's observer gets it.
type serve struct {
	Index int           // arrival number
	Off   time.Duration // scheduled offset from the run's first instant
	// Before and After read the virtual clock around the query: it advances
	// by what the query paid in link latency, retries and block waits.
	Before, After time.Time
	Err           error

	// Local: a view answered (guard-approved or degraded). Remote: the back
	// end was asked — a join can be both. Degraded: a guard served its local
	// branch because the fall-back was unavailable. ServedStale: the session
	// downgraded to unguarded local data.
	Local, Remote, Degraded, ServedStale bool
	// Staleness is After minus the snapshot time of the oldest source that
	// answered; Known is false when the result names none (serve-stale).
	Staleness time.Duration
	Known     bool
	// Within is the one within-bound rule, the region ledger's: never for a
	// degraded or serve-stale answer, else iff the staleness, when known,
	// fits the bound asked for (a remote answer is as old as it took).
	Within bool
}

// runner is the one experiment loop. Chaos, shift, the load sweep's steps,
// the Figure 4.2 sweeps and the offload table are configurations of it: a
// system, a timeline, the arrival offsets and what each arrival asks, and an
// observer that folds the serves into that experiment's report.
type runner struct {
	sys      *core.System
	events   []event
	arrivals []time.Duration // offsets from the run's first instant, ascending
	// pace, when set, holds real time to the arrival offsets (rccbench
	// -wall). Nothing measured reads it.
	pace    vclock.Clock
	ask     func(i int) ask
	observe func(s *serve) error
}

// run plays the arrivals in order: clock to the arrival, the events that are
// due (in declaration order), pacing, the query, the observer.
func (r *runner) run() error {
	clock := r.sys.Clock
	start := clock.Now()
	var paceStart time.Time
	if r.pace != nil {
		paceStart = r.pace.Now()
	}
	for i, off := range r.arrivals {
		// Replication, heartbeats and watchdogs catch up to the arrival. A
		// query advances the clock itself, so the arrival may already be in
		// the past: the coordinator then has nothing to do.
		if err := r.sys.RunTo(start.Add(off)); err != nil {
			return err
		}
		for e := range r.events {
			ev := &r.events[e]
			if ev.Do == nil || off < ev.At {
				continue
			}
			ev.Do()
			if ev.Every > 0 {
				ev.At += ev.Every
			} else {
				ev.Do = nil
			}
		}
		if r.pace != nil {
			if wait := off - r.pace.Now().Sub(paceStart); wait > 0 {
				<-r.pace.After(wait)
			}
		}
		a := r.ask(i)
		s := serve{Index: i, Off: off, Before: clock.Now()}
		res, err := a.Session.Query(a.SQL)
		s.After, s.Err = clock.Now(), err
		if err == nil {
			s.Local, s.Remote = len(res.LocalViews) > 0, res.RemoteQueries > 0
			s.Degraded, s.ServedStale = res.Degraded, res.ServedStale
			if s.Known = !res.AsOf.IsZero(); s.Known {
				s.Staleness = s.After.Sub(res.AsOf)
			}
			s.Within = !s.Degraded && !s.ServedStale &&
				(a.Bound <= 0 || !s.Known || s.Staleness <= a.Bound)
		}
		if err := r.observe(&s); err != nil {
			return err
		}
	}
	return nil
}

// every returns the offsets of arrivals at a fixed interval over d.
func every(interval, d time.Duration) []time.Duration {
	var out []time.Duration
	for off := time.Duration(0); off < d; off += interval {
		out = append(out, off)
	}
	return out
}

// oncePerCycle returns n offsets, one per propagation cycle of length f, the
// k-th at phase (k+½)/n of its cycle: together they sample the whole cycle.
func oncePerCycle(n int, f time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for k := range out {
		out[k] = time.Duration(k)*f + time.Duration((float64(k)+0.5)/float64(n)*float64(f))
	}
	return out
}

// serveCounts are the answer counters the chaos and shift reports share.
// Local counts answers served from the local view with the guard's blessing,
// Degraded local answers served because the remote fall-back was unavailable
// (each carries a violation warning), Remote answers fetched from the back
// end.
type serveCounts struct {
	Queries  int
	Answered int
	Failed   int
	Local    int
	Degraded int
	Remote   int
}

func (c *serveCounts) add(s *serve) {
	c.Queries++
	switch {
	case s.Err != nil:
		c.Failed++
		return
	case s.Degraded:
		c.Degraded++
	case s.Local:
		c.Local++
	default:
		c.Remote++
	}
	c.Answered++
}

// percentileDur returns the p-quantile (nearest-rank, obs's rule) of samples
// in any order; zero for an empty set.
func percentileDur(samples []time.Duration, p float64) time.Duration {
	s := slices.Clone(samples)
	slices.Sort(s)
	return obs.NearestRank(s, p)
}
