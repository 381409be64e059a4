package harness

import (
	"fmt"
	"io"
	"strings"
	"time"

	"relaxedcc/internal/fault"
	"relaxedcc/internal/mtcache"
	"relaxedcc/internal/obs"
)

// The query stream and fault timeline every chaos run shares (no caller
// varied them). The bound lies between delay and delay+interval, so the
// guard's choice oscillates across the propagation cycle, exercising both
// branches. Every chaosWriteInterval the master takes a single-row UPDATE,
// so the commit history keeps moving after setup and the delivered-guarantee
// auditor has real staleness to measure; the writes bypass the faulted link
// and never change the guard's heartbeat signal.
const (
	chaosQueryInterval  = 500 * time.Millisecond
	chaosBound          = 5 * time.Second
	chaosPartitionStart = 40 * time.Second
	chaosWriteInterval  = 2 * time.Second
)

// ChaosConfig scripts one deterministic chaos run: a single-region cache
// under a currency-bounded point-query workload while the injector imposes
// link latency, transient errors, a hard partition window, and a wedged
// distribution agent.
type ChaosConfig struct {
	Scenario
	// Duration is the total virtual time of the run.
	Duration time.Duration

	// Link faults beyond the scenario's latency: transient-error probability
	// per call, and the length of the partition window (zero disables).
	ErrorRate    float64
	PartitionDur time.Duration

	// StallStart wedges the region's agent at that offset (zero disables);
	// the watchdog is expected to catch and restart it.
	StallStart time.Duration

	// GuardLieStart is the deliberately broken fault schedule the auditor
	// must catch: from that offset (zero disables) the region's agent is
	// hard-wedged (stall survives watchdog restarts) while the local
	// heartbeat is forged fresh before every query, so currency guards see
	// staleness ~0 and keep approving local serves of data that is in fact
	// arbitrarily stale. No honest component behaves this way — it exists
	// to prove the auditor detects real violations with evidence.
	GuardLieStart time.Duration
}

// DefaultChaosConfig is a two-virtual-minute run sized so every fault class
// fires: ~1/3 of the timeline partitioned, a mid-run agent stall, and
// enough queries on both sides of the guard's oscillation.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Scenario: Scenario{
			Seed:           2004,
			UpdateInterval: 10 * time.Second,
			UpdateDelay:    2 * time.Second,
			Latency:        2 * time.Millisecond,
			LatencyJitter:  3 * time.Millisecond,
		},
		Duration:     120 * time.Second,
		ErrorRate:    0.10,
		PartitionDur: 25 * time.Second,
		StallStart:   80 * time.Second,
	}
}

// BrokenGuardChaosConfig is the negative fixture for the auditor: the
// guard-lie schedule on an otherwise fault-free run, so every violation the
// auditor reports is attributable to the lie alone. Honest runs of the
// default config must audit clean; this one must not.
func BrokenGuardChaosConfig() ChaosConfig {
	cfg := DefaultChaosConfig()
	cfg.ErrorRate = 0
	cfg.PartitionDur = 0
	cfg.StallStart = 0
	cfg.GuardLieStart = 30 * time.Second
	return cfg
}

// ChaosReport is the outcome of one chaos run.
type ChaosReport struct {
	serveCounts

	// Availability is Answered/Queries.
	Availability float64
	// ServedStaleness aggregates the staleness of every locally served
	// answer (guard-approved and degraded alike), percentiles over the run.
	StalenessP50 time.Duration
	StalenessP95 time.Duration
	StalenessP99 time.Duration
	StalenessMax time.Duration

	// Link and fabric counters.
	Retries       int64
	LinkFailures  int64
	BreakerTrips  int64
	AgentRestarts int64
	Injected      fault.Stats

	// SLO is the pre-rendered per-region currency-SLO section (within-bound
	// ratio, remaining error budget, staleness percentiles), taken from the
	// cache's region ledger when the run ends. Storing the rendered text keeps
	// the report comparable with == (TestChaosDeterministic relies on that)
	// and makes the byte-identical determinism guarantee directly checkable.
	SLO string
}

// RunChaos executes the scripted chaos run and reports availability and
// served-staleness percentiles. The session uses ActionServeLocal, so the
// expected availability under partitions is 100%: every query the guard
// would have sent remote degrades to the local view with a warning.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	sys, inj, err := cfg.build(cfg.ErrorRate, nil)
	if err != nil {
		return nil, err
	}
	sess := sys.Cache.NewSession()
	sess.Action = mtcache.ActionServeLocal
	q := ask{Session: sess, SQL: pointQuery(chaosBound), Bound: chaosBound}

	start := sys.Clock.Now()
	var events []event
	if cfg.PartitionDur > 0 {
		events = append(events, event{At: chaosPartitionStart, Do: func() {
			inj.PartitionUntil(start.Add(chaosPartitionStart + cfg.PartitionDur))
		}})
	}
	if cfg.StallStart > 0 {
		events = append(events, event{At: cfg.StallStart, Do: func() { inj.StallAgent(1, true) }})
	}
	writeVal := int64(1)
	events = append(events, event{At: chaosWriteInterval, Every: chaosWriteInterval, Do: func() {
		writeVal++
		sys.MustExec(fmt.Sprintf("UPDATE T SET v = %d WHERE id = 1", writeVal))
	}})
	if cfg.GuardLieStart > 0 {
		events = append(events, event{At: cfg.GuardLieStart, Do: func() {
			inj.SetStallSurvivesRestart(true)
			inj.StallAgent(1, true)
		}}, event{At: cfg.GuardLieStart, Every: chaosQueryInterval, Do: func() {
			// The lie: replication is wedged, but before every query the
			// heartbeat claims the region synchronized this instant.
			sys.Cache.SetLastSync(1, sys.Clock.Now())
		}})
	}

	rep := &ChaosReport{}
	var served []time.Duration
	r := runner{sys: sys, events: events, arrivals: every(chaosQueryInterval, cfg.Duration),
		ask: func(int) ask { return q },
		observe: func(s *serve) error {
			rep.add(s)
			if s.Local && s.Known {
				served = append(served, s.Staleness)
			}
			return nil
		}}
	if err := r.run(); err != nil {
		return nil, err
	}

	if rep.Queries > 0 {
		rep.Availability = float64(rep.Answered) / float64(rep.Queries)
	}
	rep.StalenessP50 = percentileDur(served, 0.50)
	rep.StalenessP95 = percentileDur(served, 0.95)
	rep.StalenessP99 = percentileDur(served, 0.99)
	rep.StalenessMax = percentileDur(served, 1.00)

	stats := sys.Cache.Link().Stats()
	rep.Retries = stats.Retries
	rep.LinkFailures = stats.Failures
	rep.BreakerTrips = sys.Cache.Link().Breaker().Trips()
	for _, wd := range sys.Watchdogs {
		rep.AgentRestarts += wd.Agent().Restarts()
	}
	rep.Injected = inj.Stats()
	rep.SLO = renderSLO(sys.Cache.Ledger().SLO())
	return rep, nil
}

// renderSLO formats an SLO snapshot as the report's currency-SLO section.
// The text is fully deterministic for a seeded run: every number derives
// from the virtual clock and guard-decision counts.
func renderSLO(snap obs.SLOSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "target %.1f%% within bound over a window of %d serves\n",
		snap.Target*100, snap.Window)
	for _, r := range snap.Regions {
		fmt.Fprintf(&b, "region %d: within bound %.2f%% (%d/%d, %d degraded), error budget %.0f%% left\n",
			r.Region, r.WithinRatio*100, r.Within, r.Observations, r.Degraded, r.ErrorBudget*100)
		fmt.Fprintf(&b, "region %d: served staleness p50/p95/p99/max %s / %s / %s / %s\n",
			r.Region,
			time.Duration(r.StalenessP50NS), time.Duration(r.StalenessP95NS),
			time.Duration(r.StalenessP99NS), time.Duration(r.StalenessMaxNS))
	}
	return b.String()
}

// RunChaosReport runs the default chaos workload and prints the report.
func RunChaosReport(w io.Writer, cfg ChaosConfig) error {
	rep, err := RunChaos(cfg)
	if err != nil {
		return err
	}
	section(w, "Chaos: availability under link faults (serve-local degradation)")
	fmt.Fprintf(w, "queries                 %d\n", rep.Queries)
	fmt.Fprintf(w, "availability            %.2f%% (%d answered, %d failed)\n",
		rep.Availability*100, rep.Answered, rep.Failed)
	fmt.Fprintf(w, "answered local/degraded/remote   %d / %d / %d\n",
		rep.Local, rep.Degraded, rep.Remote)
	fmt.Fprintf(w, "served staleness p50/p95/p99/max %s / %s / %s / %s\n",
		rep.StalenessP50, rep.StalenessP95, rep.StalenessP99, rep.StalenessMax)
	fmt.Fprintf(w, "link retries/failures   %d / %d\n", rep.Retries, rep.LinkFailures)
	fmt.Fprintf(w, "breaker trips           %d\n", rep.BreakerTrips)
	fmt.Fprintf(w, "agent restarts          %d\n", rep.AgentRestarts)
	fmt.Fprintf(w, "injected                %d transient, %d partition denial(s), %d stalled wake-up(s)\n",
		rep.Injected.Transients, rep.Injected.PartitionDenials, rep.Injected.Stalls)
	section(w, "Currency SLO (sliding window of guard decisions)")
	fmt.Fprint(w, rep.SLO)
	return nil
}
