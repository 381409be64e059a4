package remote

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"relaxedcc/internal/fault"
)

// Link-level failures. Every error for which IsUnavailable is true means
// "the link did not deliver the query"; SQL errors from the back end are
// deliberately outside this class — they prove the link worked.
var (
	// ErrLinkDown is the injected hard failure (SetDown) and the error a
	// partitioned link surfaces.
	ErrLinkDown = errors.New("remote: link to back-end server is down")
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
	return errors.Is(err, ErrLinkDown) ||
		errors.Is(err, ErrBreakerOpen) ||
		errors.Is(err, ErrDeadlineExceeded) ||
		errors.Is(err, fault.ErrInjected)
}

// Policy tunes the link's resilience: per-query deadline, bounded retries
// with exponential backoff and jitter, and the circuit breaker.
type Policy struct {
	// Deadline is the per-query wall budget across all attempts and
	// backoff waits; zero disables deadlines.
	Deadline time.Duration
	// MaxAttempts is the total number of tries per query (1 = no retry).
	MaxAttempts int
	// BackoffBase is the wait before the first retry; it doubles per
	// attempt up to BackoffMax.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff.
	BackoffMax time.Duration
	// JitterFrac randomizes each backoff by ±frac/2 of its value (0..1),
	// decorrelating retry storms. Draws come from the policy's seeded
	// generator, so runs are reproducible.
	JitterFrac float64
	// BreakerThreshold is how many consecutive link failures trip the
	// breaker; zero disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before letting one
	// probe through (half-open). core.System.EnableResilience sets it to the
	// slowest region's heartbeat cadence, so recovery is probed exactly as
	// often as freshness is.
	BreakerCooldown time.Duration
	// Seed drives backoff jitter.
	Seed int64
}

// DefaultPolicy returns the resilience settings used by the chaos harness:
// three attempts inside a two-second deadline, 50ms base backoff doubling
// to one second with 20% jitter, and a breaker tripping after five
// consecutive failures with a one-second cooldown.
func DefaultPolicy() Policy {
	return Policy{
		Deadline:         2 * time.Second,
		MaxAttempts:      3,
		BackoffBase:      50 * time.Millisecond,
		BackoffMax:       time.Second,
		JitterFrac:       0.2,
		BreakerThreshold: 5,
		BreakerCooldown:  time.Second,
		Seed:             2004,
	}
}

// PassthroughPolicy returns a policy with no retries, no deadline and no
// breaker — the legacy single-shot link behavior.
func PassthroughPolicy() Policy { return Policy{MaxAttempts: 1} }

// backoff computes the wait before the retry following attempt (1-based),
// with exponential growth and jitter.
func (p Policy) backoff(attempt int, rng *rand.Rand) time.Duration {
	if p.BackoffBase <= 0 {
		return 0
	}
	d := p.BackoffBase << uint(attempt-1)
	if p.BackoffMax > 0 && d > p.BackoffMax {
		d = p.BackoffMax
	}
	if p.JitterFrac > 0 {
		span := float64(d) * p.JitterFrac
		d += time.Duration(rng.Float64()*span - span/2)
	}
	if d < 0 {
		d = 0
	}
	return d
}

// BreakerState is the circuit breaker's condition, exported as the
// remote_breaker_state gauge (0 closed, 1 half-open, 2 open).
type BreakerState int32

// Breaker states.
const (
	BreakerClosed BreakerState = iota
	BreakerHalfOpen
	BreakerOpen
)

// Breaker is a clock-driven circuit breaker: it trips open after a run of
// consecutive link failures, refuses calls while open, and half-opens one
// probe per cooldown. All transitions are driven by the timestamps the
// caller passes in — there are no goroutines or timers, so breaker
// behavior is deterministic under a virtual clock.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	state     BreakerState
	fails     int
	openedAt  time.Time
	probing   bool
	trips     int64
}

// NewBreaker creates a closed breaker. threshold is the consecutive-failure
// trip point; cooldown is the open→half-open delay.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// Allow reports whether a call may proceed at time now. While open it
// returns false until the cooldown elapses, then lets exactly one probe
// through (half-open) until Record settles the probe's fate.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.cooldown > 0 && !now.Before(b.openedAt.Add(b.cooldown)) {
			b.state = BreakerHalfOpen
			b.probing = true
			return true
		}
		return false
	default: // half-open: one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Record settles one allowed call: success closes the breaker and resets
// the failure run; failure extends the run and trips the breaker when the
// threshold is reached (a failed half-open probe re-opens immediately).
func (b *Breaker) Record(now time.Time, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if ok {
		b.fails = 0
		b.state = BreakerClosed
		return
	}
	b.fails++
	if b.state == BreakerHalfOpen || (b.state == BreakerClosed && b.threshold > 0 && b.fails >= b.threshold) {
		b.state = BreakerOpen
		b.openedAt = now
		b.trips++
	}
}

// State returns the breaker's current state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
