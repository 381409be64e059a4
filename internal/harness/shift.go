package harness

import (
	"fmt"
	"io"
	"strings"
	"time"

	"relaxedcc/internal/core"
	"relaxedcc/internal/mtcache"
	"relaxedcc/internal/obs"
	"relaxedcc/internal/tuner"
)

// ShiftConfig scripts the workload bound-mix shift scenario: a single-region
// cache starts under loose currency bounds (the configured 60s refresh
// interval is plenty), then the workload flips to tight bounds at the same
// moment a partition cuts the remote fall-back. Without retuning, every
// query degrades and the region's SLO error budget stays exhausted; with
// the autotuning loop enabled, the observer sees the new bound mix, the
// loop steps the refresh interval down, and the budget recovers — with zero
// manual interval changes. The scenario's region cadence is the baseline the
// autotuner retunes; the partition always runs from ShiftAt to the end of the
// run.
type ShiftConfig struct {
	Scenario
	// Duration is the total measured virtual time; ShiftAt is the offset of
	// the bound-mix flip (and partition start).
	Duration time.Duration
	ShiftAt  time.Duration

	// SLOWindow sizes the SLO window (target obs.DefaultSLOTarget); the
	// window is in serves, so it also sets how much clean traffic a recovery
	// needs (window/rate seconds).
	SLOWindow int

	// Autotune enables the closed loop, ticking every TunerCadence.
	Autotune     bool
	TunerCadence time.Duration
}

// The query stream every shift run shares (no caller varied it): a loose
// pre-shift bound comfortably above the configured staleness, a tight
// post-shift one far below it.
const (
	shiftQueryInterval = 250 * time.Millisecond
	shiftLooseBound    = 300 * time.Second
	shiftTightBound    = 4 * time.Second
)

// DefaultShiftConfig sizes the scenario so the budget burns for several
// observation windows and still has room to recover fully: a 5-virtual-
// minute run, the shift at 100s, a 60s configured interval against a 4s
// post-shift bound, and an SLO window one fifth of the post-shift traffic.
func DefaultShiftConfig() ShiftConfig {
	return ShiftConfig{
		Scenario: Scenario{
			Seed:           2004,
			UpdateInterval: 60 * time.Second,
			UpdateDelay:    500 * time.Millisecond,
			Latency:        1 * time.Millisecond,
			LatencyJitter:  1 * time.Millisecond,
		},
		Duration:     300 * time.Second,
		ShiftAt:      100 * time.Second,
		SLOWindow:    256,
		TunerCadence: 15 * time.Second,
	}
}

// ShiftReport is the outcome of one shift run. All fields are values (the
// sections are pre-rendered strings), so reports compare with == and the
// byte-identical determinism guarantee is directly checkable.
type ShiftReport struct {
	Autotune bool
	serveCounts

	// PreShiftBudget is the region's SLO error budget the moment the shift
	// happens; FinalBudget is the budget when the run ends. Recovered means
	// the budget returned to at least the pre-shift level after having
	// dropped below it, RecoveryAfter how long past the shift that took.
	PreShiftBudget float64
	FinalBudget    float64
	Recovered      bool
	RecoveryAfter  time.Duration

	// Post-shift serve quality: how many queries after the shift were
	// within bound (degraded serves never are; remote serves always are;
	// local serves iff staleness fits the tight bound).
	PostShiftQueries     int
	PostShiftWithin      int
	PostShiftWithinRatio float64

	// Tuner activity (zero when autotuning is off).
	Retunes        int64
	Held           int64
	FinalInterval  time.Duration
	FinalHeartbeat time.Duration

	// Tuner is the pre-rendered per-region tuner section (decision timeline
	// with offsets from the measurement start, plus budget recovery time);
	// SLO is the pre-rendered currency-SLO section.
	Tuner string
	SLO   string
}

// RunShift executes the scripted workload-shift run.
func RunShift(cfg ShiftConfig) (*ShiftReport, error) {
	sys, inj, err := cfg.build(0, func(sys *core.System) {
		sys.Cache.Ledger().Reconfigure(obs.DefaultSLOTarget, cfg.SLOWindow)
		if cfg.Autotune {
			sys.EnableAutotune(cfg.TunerCadence)
		}
	})
	if err != nil {
		return nil, err
	}
	sess := sys.Cache.NewSession()
	sess.Action = mtcache.ActionServeLocal
	q := ask{Session: sess, SQL: pointQuery(shiftLooseBound), Bound: shiftLooseBound}

	start := sys.Clock.Now()
	rep := &ShiftReport{Autotune: cfg.Autotune, PreShiftBudget: 1}
	budget := func() float64 {
		for _, r := range sys.Cache.Ledger().SLO().Regions {
			if r.Region == 1 {
				return r.ErrorBudget
			}
		}
		return 1
	}

	shifted, burned := false, false
	r := runner{sys: sys, arrivals: every(shiftQueryInterval, cfg.Duration),
		events: []event{{At: cfg.ShiftAt, Do: func() {
			shifted = true
			rep.PreShiftBudget = budget()
			inj.PartitionUntil(start.Add(cfg.Duration))
			q.SQL, q.Bound = pointQuery(shiftTightBound), shiftTightBound
		}}},
		ask: func(int) ask { return q },
		observe: func(s *serve) error {
			rep.add(s)
			if !shifted || s.Err != nil {
				return nil
			}
			rep.PostShiftQueries++
			if s.Within {
				rep.PostShiftWithin++
			}
			b := budget()
			if b < rep.PreShiftBudget {
				burned = true
			}
			if burned && !rep.Recovered && b >= rep.PreShiftBudget {
				rep.Recovered = true
				rep.RecoveryAfter = s.Off - cfg.ShiftAt
			}
			return nil
		}}
	if err := r.run(); err != nil {
		return nil, err
	}

	rep.FinalBudget = budget()
	if rep.PostShiftQueries > 0 {
		rep.PostShiftWithinRatio = float64(rep.PostShiftWithin) / float64(rep.PostShiftQueries)
	}
	if a := sys.Cache.Agent(1); a != nil {
		rep.FinalInterval = a.Interval()
		rep.FinalHeartbeat = a.HeartbeatInterval()
	}
	if loop := sys.Tuner(); loop != nil {
		snap := loop.Snapshot()
		for _, r := range snap.Regions {
			rep.Retunes += r.Retunes
			rep.Held += r.Held
		}
		rep.Tuner = renderTunerTimeline(snap, start, rep)
	}
	rep.SLO = renderSLO(sys.Cache.Ledger().SLO())
	return rep, nil
}

// renderTunerTimeline formats a tuner snapshot as the report's per-region
// section: effective state, budget recovery time, and the full decision
// timeline with offsets from the measurement start. Fully deterministic for
// a seeded run.
func renderTunerTimeline(snap tuner.Snapshot, origin time.Time, rep *ShiftReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "loop: cadence %s, dead-band %.0f%%, max step %.0fx, min samples %d\n",
		time.Duration(snap.CadenceNS), snap.DeadBand*100, snap.MaxStep, snap.MinSamples)
	for _, r := range snap.Regions {
		fmt.Fprintf(&b, "region %d: interval %s, heartbeat %s, delay %s, %d retunes, %d held\n",
			r.Region, time.Duration(r.IntervalNS), time.Duration(r.HeartbeatNS),
			time.Duration(r.DelayNS), r.Retunes, r.Held)
	}
	if rep != nil {
		if rep.Recovered {
			fmt.Fprintf(&b, "budget recovery: %s after the shift (to %.2f)\n",
				rep.RecoveryAfter, rep.PreShiftBudget)
		} else {
			fmt.Fprintf(&b, "budget recovery: none within the run\n")
		}
	}
	for _, d := range snap.Decisions {
		off := time.Unix(0, d.AtNS).Sub(origin)
		if d.Applied {
			fmt.Fprintf(&b, "  [%+v] region %d: %s -> %s (solved %s, hb %s, qps %.1f, local %.0f%%, %s)\n",
				off, d.Region,
				time.Duration(d.PrevIntervalNS), time.Duration(d.AppliedIntervalNS),
				time.Duration(d.SolvedIntervalNS), time.Duration(d.HeartbeatNS),
				d.QueriesPerSecond, d.LocalRatio*100, d.Reason)
		} else {
			fmt.Fprintf(&b, "  [%+v] region %d: %s (interval %s, qps %.1f, local %.0f%%)\n",
				off, d.Region, d.Reason,
				time.Duration(d.PrevIntervalNS), d.QueriesPerSecond, d.LocalRatio*100)
		}
	}
	return b.String()
}

// RenderTuner formats a tuner snapshot with decision offsets from origin —
// the report renderer, exported for the CLIs' \tuner views.
func RenderTuner(w io.Writer, snap tuner.Snapshot, origin time.Time) {
	fmt.Fprint(w, renderTunerTimeline(snap, origin, nil))
}

// RunShiftReport runs the shift scenario twice from the same seed — with
// and without autotuning — and prints the comparison plus the tuner
// decision timeline that explains the recovery. cfg.Autotune is ignored;
// cfg.OnSystem (if set) receives the autotuned arm's system.
func RunShiftReport(w io.Writer, cfg ShiftConfig) error {
	onCfg := cfg
	onCfg.Autotune = true
	offCfg := cfg
	offCfg.Autotune = false
	offCfg.OnSystem = nil
	on, err := RunShift(onCfg)
	if err != nil {
		return err
	}
	off, err := RunShift(offCfg)
	if err != nil {
		return err
	}

	section(w, "Chaos: workload bound-mix shift (closed-loop autotuning)")
	fmt.Fprintf(w, "shift at %s: bounds %s -> %s, partition until end of run\n",
		cfg.ShiftAt, shiftLooseBound, shiftTightBound)
	fmt.Fprintf(w, "%-32s %14s %14s\n", "", "autotune=on", "autotune=off")
	row := func(label, a, b string) { fmt.Fprintf(w, "%-32s %14s %14s\n", label, a, b) }
	row("queries", fmt.Sprintf("%d", on.Queries), fmt.Sprintf("%d", off.Queries))
	row("local/degraded/remote",
		fmt.Sprintf("%d/%d/%d", on.Local, on.Degraded, on.Remote),
		fmt.Sprintf("%d/%d/%d", off.Local, off.Degraded, off.Remote))
	row("pre-shift error budget", fmt.Sprintf("%.2f", on.PreShiftBudget), fmt.Sprintf("%.2f", off.PreShiftBudget))
	row("final error budget", fmt.Sprintf("%.2f", on.FinalBudget), fmt.Sprintf("%.2f", off.FinalBudget))
	rec := func(r *ShiftReport) string {
		if r.Recovered {
			return fmt.Sprintf("%s", r.RecoveryAfter)
		}
		return "never"
	}
	row("budget recovered after", rec(on), rec(off))
	row("post-shift within bound",
		fmt.Sprintf("%.1f%%", on.PostShiftWithinRatio*100),
		fmt.Sprintf("%.1f%%", off.PostShiftWithinRatio*100))
	row("retunes / held", fmt.Sprintf("%d/%d", on.Retunes, on.Held), fmt.Sprintf("%d/%d", off.Retunes, off.Held))
	row("final interval", on.FinalInterval.String(), off.FinalInterval.String())
	row("final heartbeat", on.FinalHeartbeat.String(), off.FinalHeartbeat.String())

	section(w, "Tuner decisions (autotune=on)")
	fmt.Fprint(w, on.Tuner)
	section(w, "Currency SLO (autotune=on)")
	fmt.Fprint(w, on.SLO)
	section(w, "Currency SLO (autotune=off)")
	fmt.Fprint(w, off.SLO)
	return nil
}
