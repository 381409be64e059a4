package remote

import (
	"errors"
	"time"

	"relaxedcc/internal/fault"
	"relaxedcc/internal/obs"
)

// Link-level failures. Every error for which IsUnavailable is true means
// "the link did not deliver the query"; SQL errors from the back end are
// deliberately outside this class — they prove the link worked.
var (
	// ErrBreakerOpen is returned without touching the network while the
	// circuit breaker is open.
	ErrBreakerOpen = errors.New("remote: circuit breaker open")
	// ErrDeadlineExceeded is returned when the per-query deadline elapsed
	// before a reply (including time spent in retries and backoff).
	ErrDeadlineExceeded = errors.New("remote: deadline exceeded")
)

// IsUnavailable reports whether err means the back end was unreachable —
// the condition under which the paper's violation actions (serve stale,
// block, fail fast) apply. SQL-level errors return false: they must
// propagate to the client unchanged and must not trip the breaker.
func IsUnavailable(err error) bool {
	return errors.Is(err, ErrBreakerOpen) ||
		errors.Is(err, ErrDeadlineExceeded) ||
		errors.Is(err, fault.ErrInjected)
}

// The link's one policy. A query gets maxAttempts tries within deadline of
// simulated time. The wait before the retry that follows attempt n is
// backoffBase·2^(n−1), capped at backoffMax and moved by up to ±jitterFrac/2
// of itself; the draws come from a generator seeded with jitterSeed, so runs
// replay. breakerThreshold consecutive link failures open the breaker.
const (
	maxAttempts      = 3
	deadline         = 2 * time.Second
	backoffBase      = 50 * time.Millisecond
	backoffMax       = time.Second
	jitterFrac       = 0.2
	jitterSeed       = 2004
	breakerThreshold = 5
)

// BreakerState is the circuit breaker's condition, exported as the
// remote_breaker_state gauge (0 closed, 1 half-open, 2 open).
type BreakerState int32

// Breaker states.
const (
	BreakerClosed BreakerState = iota
	BreakerHalfOpen
	BreakerOpen
)

// backoffLocked is the wait before the retry that follows attempt (1-based).
// Called with c.mu held: the jitter generator is the client's.
func (c *Client) backoffLocked(attempt int) time.Duration {
	d := min(backoffBase<<(attempt-1), backoffMax)
	span := float64(d) * jitterFrac
	return d + time.Duration(c.rng.Float64()*span-span/2)
}

// The circuit breaker is driven by the timestamps its callers pass in — no
// goroutines or timers — so it is deterministic under a virtual clock. Its
// state sits under c.mu beside the link's counters.

// allowLocked reports whether a query may go out at now. A closed breaker
// lets every query through. An open one refuses until the cooldown since it
// opened has passed, then half-opens and lets this query through as its
// probe; while the probe is out, every other query is refused.
func (c *Client) allowLocked(now time.Time) bool {
	switch c.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Before(c.openedAt.Add(c.cooldown)) {
			return false
		}
		c.moveLocked(BreakerHalfOpen, now)
	default:
		if c.probing {
			return false
		}
	}
	c.probing = true
	return true
}

// settleLocked records the fate of one attempt made at now. A delivered round
// trip (ok, a SQL error included) ends the run of failures and closes the
// breaker. A link failure extends the run; it opens the breaker at the
// breakerThreshold-th failure, or at once when it was the half-open probe.
// It reports whether the breaker is open afterwards.
func (c *Client) settleLocked(now time.Time, ok bool) bool {
	c.probing = false
	if ok {
		c.fails = 0
		if c.state != BreakerClosed {
			c.moveLocked(BreakerClosed, now)
		}
		return false
	}
	c.fails++
	if c.state == BreakerHalfOpen || c.state == BreakerClosed && c.fails >= breakerThreshold {
		c.moveLocked(BreakerOpen, now)
	}
	return c.state == BreakerOpen
}

// moveLocked puts the breaker in state s at now and publishes the
// transition: the remote_breaker_state gauge, a span event and, on opening,
// a trip.
func (c *Client) moveLocked(s BreakerState, now time.Time) {
	c.state = s
	c.mBreakerState.Set(int64(s))
	switch s {
	case BreakerOpen:
		c.openedAt = now
		c.stats.BreakerTrips++
		c.mBreakerTrips.Inc()
		c.tracer.Event(obs.EventBreakerOpen)
	case BreakerHalfOpen:
		c.tracer.Event(obs.EventBreakerHalfOpen)
	default:
		c.tracer.Event(obs.EventBreakerClosed)
	}
}
