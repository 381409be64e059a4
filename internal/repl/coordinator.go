package repl

import (
	"sync"
	"sync/atomic"
	"time"

	"relaxedcc/internal/vclock"
)

// Beater triggers a region's heartbeat on the back end (backend.Server.Beat
// satisfies it via a closure).
type Beater func(regionID int) error

// Coordinator drives the periodic activities of the replication fabric —
// back-end heartbeats and agent propagation wake-ups — deterministically
// against a virtual clock, and is the one thing that moves that clock.
// AdvanceTo executes every due event in timestamp order, advancing the clock
// to each event time, so tests and benchmarks replay the exact cycle of the
// paper's Figure 3.2 with no goroutine races; Wait is how every waiter in
// the system passes time.
//
// One goroutine drains at a time, holding mu; the events and their due times
// are the drainer's. A Wait from another goroutine blocks until that drain
// ends and then drains itself: it runs what is still due up to its target,
// which is nothing when the drain passed it. Heartbeats and agents never
// wait, so a Wait that meets one of them running is another goroutine's. A
// Wait made while a periodic task runs cannot be told from the task's own (a
// waiter inside an event; nothing here knows goroutines), so it falls through
// to a plain clock advance, as a nested wait always did, and the drain keeps
// running due events after the task returns.
type Coordinator struct {
	clock *vclock.Virtual
	mu    sync.Mutex
	// waiting is set while the drain runs a handler that may wait (a
	// periodic task): a Wait that finds mu held falls through only then.
	waiting atomic.Bool
	events  []*event
}

// event is one periodic activity. Its due time is computed lazily as
// last + interval() so that live interval changes (SetInterval retunes,
// region reconfiguration) take effect at the very next drain: shrinking an
// interval pulls the pending wake-up forward, growing it pushes it out.
type event struct {
	last     time.Time
	interval func() time.Duration
	run      func(now time.Time) error
	name     string
}

// NewCoordinator creates a coordinator over the virtual clock.
func NewCoordinator(clock *vclock.Virtual) *Coordinator {
	return &Coordinator{clock: clock}
}

// add registers an event. Registration order breaks the ties nextDue's other
// rules leave.
func (c *Coordinator) add(name string, interval func() time.Duration, run func(now time.Time) error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, &event{last: c.clock.Now(), interval: interval, run: run, name: name})
}

// AddHeartbeat schedules a region's heartbeat with the cadence re-read from
// interval at every due-time computation, so heartbeat retunes (the
// autotuner adjusts cadence alongside the propagation interval) take effect
// immediately.
func (c *Coordinator) AddHeartbeat(regionID int, interval func() time.Duration, beat Beater) {
	c.add("heartbeat", interval, func(time.Time) error { return beat(regionID) })
}

// AddAgent schedules a distribution agent's wake-ups at its effective update
// interval. The interval is re-read at every due-time computation, so
// reconfiguring the region (the paper's 30s -> 5min scenario) or a live
// SetInterval retune takes effect at the next drain.
func (c *Coordinator) AddAgent(a *Agent) {
	c.add("agent", a.Interval, a.Step)
}

// AddPeriodic schedules a periodic task whose cadence is re-read from
// interval at every due-time computation (the autotuner's tick, a watchdog
// following its agent's retuned propagation interval, an update workload).
func (c *Coordinator) AddPeriodic(interval func() time.Duration, run func(now time.Time) error) {
	c.add("periodic", interval, run)
}

// Wait passes d of simulated time the way every waiter in the system does —
// a blocked guard re-evaluation, a link backoff, injected link latency — by
// running the heartbeats and agents due meanwhile. Replication errors are
// left to the next Advance to report: a waiter has no use for them.
func (c *Coordinator) Wait(d time.Duration) { _ = c.Advance(d) }

// AdvanceTo runs all events due at or before target in time order (FIFO
// among ties), advancing the virtual clock through each event time and
// finally to target.
func (c *Coordinator) AdvanceTo(target time.Time) error {
	if !c.mu.TryLock() {
		if c.waiting.Load() {
			// A wait inside a handler, or beside one: just move the clock;
			// the drain keeps running due events.
			c.clock.Reach(target)
			return nil
		}
		c.mu.Lock()
	}
	defer c.mu.Unlock()
	for {
		ev, at := c.nextDue(target)
		if ev == nil {
			break
		}
		// An event handler may itself have advanced the clock (a resilient
		// link paying backoff in virtual time does); never move it backwards.
		c.clock.Reach(at)
		// A due time in the past (the interval shrank mid-cycle) still runs
		// "now" but re-bases from its scheduled slot, preserving cadence.
		c.waiting.Store(ev.name == "periodic")
		err := ev.run(at)
		c.waiting.Store(false)
		if err != nil {
			return err
		}
		ev.last = at
	}
	c.clock.Reach(target)
	return nil
}

// Advance runs events for the next d of virtual time.
func (c *Coordinator) Advance(d time.Duration) error {
	return c.AdvanceTo(c.clock.Now().Add(d))
}

// nextDue returns the earliest event due at or before target, with its due
// time. Due times never run before the clock's current position: an event
// whose interval shrank below the time already elapsed fires at the current
// instant rather than in the past. Among events due at one instant,
// heartbeats fire first, so a propagation at time t ships the beat from time
// t (minus delay), and then the earliest registered.
func (c *Coordinator) nextDue(target time.Time) (next *event, nextAt time.Time) {
	now := c.clock.Now()
	for _, ev := range c.events {
		at := ev.last.Add(ev.interval())
		if at.Before(now) {
			at = now
		}
		if at.After(target) {
			continue
		}
		if next == nil || at.Before(nextAt) || at.Equal(nextAt) && ev.name == "heartbeat" && next.name != "heartbeat" {
			next, nextAt = ev, at
		}
	}
	return next, nextAt
}
