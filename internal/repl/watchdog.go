package repl

import (
	"strconv"
	"sync"
	"time"

	"relaxedcc/internal/obs"
)

// Watchdog supervises one distribution agent: scheduled on the coordinator,
// it measures how long the agent has gone without completing a propagation
// step, exports that lag, and restarts the agent when the lag crosses the
// stall threshold. Without it a wedged agent lets region staleness grow
// silently until every currency guard falls back to the remote server — the
// failure mode the paper's bounded-staleness promise cannot tolerate.
type Watchdog struct {
	agent *Agent

	mu       sync.Mutex
	baseline time.Time // first-check fallback when the agent never stepped

	mRestarts *obs.Counter // repl_agent_restarts_total{region}
	mLag      *obs.Gauge   // repl_agent_lag_ns{region}
}

// stallFactor is how many update intervals of silence count as a stall: one
// missed wake-up is scheduling noise, three is a wedged agent.
const stallFactor = 3

// NewWatchdog supervises agent: it restarts the agent after stallFactor of
// the agent's update intervals without progress. reg receives its
// per-region restart counter and propagation-lag gauge.
func NewWatchdog(agent *Agent, reg *obs.Registry) *Watchdog {
	label := strconv.Itoa(agent.Region.ID)
	return &Watchdog{
		agent:     agent,
		mRestarts: reg.CounterVec("repl_agent_restarts_total", "region").With(label),
		mLag:      reg.GaugeVec("repl_agent_lag_ns", "region").With(label),
	}
}

// Restarts returns how many times the watchdog has restarted its agent, the
// agent's only restarter: its repl_agent_restarts_total{region} count.
func (w *Watchdog) Restarts() int64 { return w.mRestarts.Value() }

// stallThreshold resolves the restart threshold at check time from the
// agent's effective interval, so a retuned agent is judged against the
// cadence it is actually running at.
func (w *Watchdog) stallThreshold() time.Duration {
	if iv := w.agent.Interval(); iv > 0 {
		return stallFactor * iv
	}
	return stallFactor * time.Second
}

// Check is one supervision wake-up at time now: it updates the lag gauge
// and, when the agent has made no progress for the stall threshold,
// restarts it and immediately runs a catch-up propagation step. Schedule it
// on the coordinator with Coordinator.AddPeriodic(interval, w.Check).
func (w *Watchdog) Check(now time.Time) error {
	last := w.agent.LastProgress()
	w.mu.Lock()
	if last.IsZero() {
		// The agent has never stepped; measure from the first check so a
		// freshly wired system is not declared stalled at t=0.
		if w.baseline.IsZero() {
			w.baseline = now
		}
		last = w.baseline
	}
	w.mu.Unlock()

	lag := now.Sub(last)
	w.mLag.SetDuration(lag)
	if lag < w.stallThreshold() {
		return nil
	}
	w.agent.Restart(now)
	w.mRestarts.Inc()
	// Catch up immediately: a restarted agent's first act is a propagation
	// step, which also resets the lag signal.
	if err := w.agent.Step(now); err != nil {
		return err
	}
	w.mLag.SetDuration(now.Sub(w.agent.LastProgress()))
	return nil
}
