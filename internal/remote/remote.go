// Package remote is the cache-to-back-end link: the boundary a remote query
// crosses in the paper's two-server setup. It executes shipped SQL on the
// back-end server in process, while accounting for queries sent, rows and
// bytes shipped — the quantities the optimizer's cost model trades off.
//
// The link is where network reality intrudes on the paper's model, so it
// carries the fault-tolerance layer: deterministic fault injection
// (internal/fault), per-query deadlines, bounded retries with exponential
// backoff and jitter, and a circuit breaker that fails fast after a run of
// consecutive failures and half-opens on the heartbeat cadence. Callers
// classify failures with IsUnavailable and apply the paper's violation
// actions (serve stale locally, block, or error).
package remote

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"relaxedcc/internal/backend"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/obs"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/vclock"
)

// Stats counts traffic and failures across the link.
type Stats struct {
	Queries int64
	Rows    int64
	Bytes   int64
	// Retries is how many retry attempts the link made after failures.
	Retries int64
	// Failures is how many link-level failures were observed (per attempt).
	Failures int64
}

// Fault injects synthetic failures into the link; fault.Injector implements
// it. Inject is consulted once per attempt with the link's current time and
// returns the synthetic latency to impose plus the injected error, if any.
type Fault interface {
	Inject(now time.Time) (time.Duration, error)
}

// Client is the cache's connection to the back end.
type Client struct {
	backend *backend.Server
	clock   vclock.Clock
	wait    func(time.Duration)

	mu     sync.Mutex
	stats  Stats
	down   bool
	policy Policy
	rng    *rand.Rand
	fault  Fault

	breaker *Breaker
	// seenTrips is how many breaker trips have been exported to the
	// remote_breaker_trips_total counter.
	seenTrips int64
	// tracer receives span events for retries and breaker transitions; nil
	// means untraced. lastBreakerState dedupes transition events.
	tracer           *obs.Tracer
	lastBreakerState BreakerState

	// Metrics, bound by Instrument; nil fields mean the link runs
	// unmetered.
	mRetries      *obs.Counter // remote_retries_total
	mFailures     *obs.Counter // remote_failures_total
	mDeadline     *obs.Counter // remote_deadline_exceeded_total
	mBreakerTrips *obs.Counter // remote_breaker_trips_total
	mBreakerState *obs.Gauge   // remote_breaker_state
}

// NewClient connects a cache to its back-end server with the legacy
// single-shot behavior (no deadline, no retries, no breaker); call
// Configure to enable resilience. The clock drives deadlines and breaker
// cooldowns; wait is how the link spends backoff and injected latency.
// core.System passes its coordinator's Wait, so the simulated time a
// struggling link pays also fires due heartbeats and agent propagations.
func NewClient(b *backend.Server, clock vclock.Clock, wait func(time.Duration)) *Client {
	c := &Client{backend: b, clock: clock, wait: wait}
	c.Configure(PassthroughPolicy())
	return c
}

// Configure sets the link's resilience policy.
func (c *Client) Configure(p Policy) {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.policy = p
	c.rng = rand.New(rand.NewSource(p.Seed))
	if p.BreakerThreshold > 0 {
		c.breaker = NewBreaker(p.BreakerThreshold, p.BreakerCooldown)
	} else {
		c.breaker = nil
	}
	c.publishBreakerStateLocked()
}

// SetFault installs (or clears, with nil) a fault injector on the link.
func (c *Client) SetFault(f Fault) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fault = f
}

// Breaker returns the link's circuit breaker, or nil when disabled.
func (c *Client) Breaker() *Breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.breaker
}

// Instrument binds the link's metrics to a registry: retry and failure
// counters, deadline expirations, breaker trips and the breaker-state
// gauge (0 closed, 1 half-open, 2 open).
func (c *Client) Instrument(reg *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mRetries = reg.Counter("remote_retries_total")
	c.mFailures = reg.Counter("remote_failures_total")
	c.mDeadline = reg.Counter("remote_deadline_exceeded_total")
	c.mBreakerTrips = reg.Counter("remote_breaker_trips_total")
	c.mBreakerState = reg.Gauge("remote_breaker_state")
	c.publishBreakerStateLocked()
}

func (c *Client) publishBreakerStateLocked() {
	state := BreakerClosed
	if c.breaker != nil {
		state = c.breaker.State()
	}
	if state != c.lastBreakerState {
		c.lastBreakerState = state
		if c.tracer != nil {
			switch state {
			case BreakerOpen:
				c.tracer.Event(obs.EventBreakerOpen)
			case BreakerHalfOpen:
				c.tracer.Event(obs.EventBreakerHalfOpen)
			default:
				c.tracer.Event(obs.EventBreakerClosed)
			}
		}
	}
	if c.mBreakerState == nil {
		return
	}
	c.mBreakerState.Set(int64(state))
	if c.breaker == nil {
		return
	}
	if trips := c.breaker.Trips(); trips > c.seenTrips {
		if c.mBreakerTrips != nil {
			c.mBreakerTrips.Add(trips - c.seenTrips)
		}
		c.seenTrips = trips
	}
}

// SetTracer attaches lifecycle tracing to the link: retry attempts and
// breaker state transitions emit span events (span_events_total{kind}).
func (c *Client) SetTracer(t *obs.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracer = t
}

func (c *Client) publishBreakerState() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.publishBreakerStateLocked()
}

// Query ships sql to the back end and returns all result rows. It
// implements opt.RemoteExecutor.
func (c *Client) Query(sql string) ([]sqltypes.Row, error) {
	res, err := c.QueryResult(sql)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// QueryResult is Query with the full result (schema and timings). It runs
// the resilient path: breaker check, bounded retries with backoff under the
// per-query deadline. SQL-level errors from the back end return immediately
// and never count against the breaker.
func (c *Client) QueryResult(sql string) (*exec.Result, error) {
	c.mu.Lock()
	pol := c.policy
	rng := c.rng
	br := c.breaker
	c.mu.Unlock()

	now := c.clock.Now
	var deadline time.Time
	if pol.Deadline > 0 {
		deadline = now().Add(pol.Deadline)
	}

	if br != nil && !br.Allow(now()) {
		c.noteFailure()
		return nil, ErrBreakerOpen
	}

	attempts := pol.MaxAttempts
	if attempts <= 0 {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		res, err := c.attempt(sql, now(), deadline)
		if err == nil {
			if br != nil {
				br.Record(now(), true)
				c.publishBreakerState()
			}
			return res, nil
		}
		if !IsUnavailable(err) {
			// The link delivered the query; the back end rejected it.
			return nil, err
		}
		lastErr = err
		c.noteFailure()
		if br != nil {
			br.Record(now(), false)
			c.publishBreakerState()
		}
		if attempt >= attempts {
			break
		}
		if br != nil && br.State() == BreakerOpen {
			// The breaker tripped mid-query: stop hammering the link.
			break
		}
		wait := pol.backoff(attempt, rng)
		if !deadline.IsZero() && now().Add(wait).After(deadline) {
			c.noteDeadline()
			return nil, fmt.Errorf("%w after %d attempt(s): %v", ErrDeadlineExceeded, attempt, lastErr)
		}
		if wait > 0 {
			c.wait(wait)
		}
		c.noteRetry()
	}
	if attempts > 1 {
		return nil, fmt.Errorf("remote: %d attempt(s) failed: %w", attempts, lastErr)
	}
	return nil, lastErr
}

// attempt performs one try: fault injection (paying its latency), the
// deadline check, then the in-process back-end call.
func (c *Client) attempt(sql string, now, deadline time.Time) (*exec.Result, error) {
	c.mu.Lock()
	f := c.fault
	down := c.down
	c.mu.Unlock()

	if f != nil {
		lat, err := f.Inject(now)
		if lat > 0 {
			c.wait(lat)
			now = now.Add(lat)
		}
		if !deadline.IsZero() && now.After(deadline) {
			c.noteDeadline()
			return nil, fmt.Errorf("%w (reply after deadline)", ErrDeadlineExceeded)
		}
		if err != nil {
			return nil, fmt.Errorf("remote: injected: %w", err)
		}
	}
	if down {
		return nil, ErrLinkDown
	}

	c.mu.Lock()
	c.stats.Queries++
	c.mu.Unlock()

	res, err := c.backend.Query(sql)
	if err != nil {
		return nil, err
	}
	var bytes int64
	for _, r := range res.Rows {
		bytes += rowBytes(r)
	}
	c.mu.Lock()
	c.stats.Rows += int64(len(res.Rows))
	c.stats.Bytes += bytes
	c.mu.Unlock()
	return res, nil
}

func (c *Client) noteFailure() {
	c.mu.Lock()
	c.stats.Failures++
	m := c.mFailures
	c.mu.Unlock()
	if m != nil {
		m.Inc()
	}
}

func (c *Client) noteRetry() {
	c.mu.Lock()
	c.stats.Retries++
	m := c.mRetries
	tr := c.tracer
	c.mu.Unlock()
	if m != nil {
		m.Inc()
	}
	tr.Event(obs.EventRemoteRetry)
}

func (c *Client) noteDeadline() {
	c.mu.Lock()
	m := c.mDeadline
	c.mu.Unlock()
	if m != nil {
		m.Inc()
	}
}

// Stats returns a snapshot of link traffic counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ResetStats zeroes the traffic counters.
func (c *Client) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{}
}

// SetDown injects (or clears) a link failure: subsequent queries fail until
// cleared. Prefer a fault.Injector for richer scenarios; SetDown remains
// the simplest hard-partition switch.
func (c *Client) SetDown(down bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.down = down
}

// rowBytes estimates the wire size of one row.
func rowBytes(r sqltypes.Row) int64 {
	var n int64
	for _, v := range r {
		switch v.Kind() {
		case sqltypes.KindString:
			n += int64(len(v.Str())) + 2
		case sqltypes.KindNull, sqltypes.KindBool:
			n++
		default:
			n += 8
		}
	}
	return n
}
