// Package remote is the cache-to-back-end link: the boundary a remote query
// crosses in the paper's two-server setup. It executes shipped SQL on the
// back-end server in process, while accounting for queries sent, rows and
// bytes shipped — the quantities the optimizer's cost model trades off.
//
// The link is where network reality intrudes on the paper's model, so it
// carries the fault-tolerance layer, with one fixed policy for every cache:
// deterministic fault injection (internal/fault), a per-query deadline,
// bounded retries with exponential backoff and jitter, and a circuit breaker
// that fails fast after a run of consecutive failures and half-opens on the
// heartbeat cadence. On a healthy link a query is one back-end call. Callers
// classify failures with IsUnavailable and apply the paper's violation
// actions (serve stale locally, block, or error).
package remote

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"relaxedcc/internal/backend"
	"relaxedcc/internal/obs"
	"relaxedcc/internal/sqlparser"
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
	// BreakerTrips is how many times the circuit breaker opened.
	BreakerTrips int64
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
	// tracer receives span events for retries and breaker transitions.
	tracer *obs.Tracer

	mRetries      *obs.Counter // remote_retries_total
	mFailures     *obs.Counter // remote_failures_total
	mDeadline     *obs.Counter // remote_deadline_exceeded_total
	mBreakerTrips *obs.Counter // remote_breaker_trips_total
	mBreakerState *obs.Gauge   // remote_breaker_state

	mu    sync.Mutex
	stats Stats
	fault Fault
	rng   *rand.Rand // backoff jitter
	// The circuit breaker (resilient.go): its state, the run of consecutive
	// link failures, when it last opened, whether a half-open probe is out,
	// and the open→half-open cooldown.
	state    BreakerState
	fails    int
	openedAt time.Time
	probing  bool
	cooldown time.Duration
}

// NewClient connects a cache to its back-end server. The clock drives
// deadlines and breaker cooldowns; wait is how the link spends backoff and
// injected latency. core.System passes its coordinator's Wait, so the
// simulated time a struggling link pays also fires due heartbeats and agent
// propagations. The link's metrics register in reg and its span events go
// to tracer.
func NewClient(b *backend.Server, clock vclock.Clock, wait func(time.Duration), reg *obs.Registry, tracer *obs.Tracer) *Client {
	return &Client{
		backend:       b,
		clock:         clock,
		wait:          wait,
		tracer:        tracer,
		mRetries:      reg.Counter("remote_retries_total"),
		mFailures:     reg.Counter("remote_failures_total"),
		mDeadline:     reg.Counter("remote_deadline_exceeded_total"),
		mBreakerTrips: reg.Counter("remote_breaker_trips_total"),
		mBreakerState: reg.Gauge("remote_breaker_state"),
		rng:           rand.New(rand.NewSource(jitterSeed)),
		cooldown:      time.Second,
	}
}

// SetFault installs (or clears, with nil) a fault injector on the link.
func (c *Client) SetFault(f Fault) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fault = f
}

// PaceProbes tells the link that one of its cache's regions beats every
// heartbeat: an open breaker waits for the slowest such cadence, and at
// least a second, before its half-open probe, so recovery is probed as often
// as freshness arrives. The cache calls it for every region it adds.
func (c *Client) PaceProbes(heartbeat time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cooldown = max(c.cooldown, heartbeat)
}

// BreakerState returns the circuit breaker's current state.
func (c *Client) BreakerState() BreakerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Query ships sql to the back end as text and returns all result rows.
func (c *Client) Query(sql string) ([]sqltypes.Row, error) {
	return c.QueryScanned(sqlparser.Scanned{SQL: sql})
}

// QueryScanned ships q — a SELECT's scan, or its text — to the back end and
// returns all result rows. It implements opt.RemoteExecutor: breaker check,
// then up to maxAttempts tries with backoff under the per-query deadline.
// SQL-level errors from the back end return at once.
func (c *Client) QueryScanned(q sqlparser.Scanned) ([]sqltypes.Row, error) {
	now := c.clock.Now()
	due := now.Add(deadline)
	c.mu.Lock()
	f, allowed := c.fault, c.allowLocked(now)
	if !allowed {
		c.stats.Failures++
	}
	c.mu.Unlock()
	if !allowed {
		c.mFailures.Inc()
		return nil, ErrBreakerOpen
	}
	for attempt := 1; ; attempt++ {
		rows, err := c.attempt(f, q, now, due)
		if !IsUnavailable(err) {
			return rows, err
		}
		now = c.clock.Now()
		c.mu.Lock()
		c.stats.Failures++
		stop := c.settleLocked(now, false) || attempt == maxAttempts
		var pause time.Duration
		if !stop {
			pause = c.backoffLocked(attempt)
		}
		c.mu.Unlock()
		c.mFailures.Inc()
		if stop {
			// Out of attempts, or the breaker tripped mid-query: stop
			// hammering the link.
			return nil, fmt.Errorf("remote: %d attempt(s) failed: %w", attempt, err)
		}
		if now.Add(pause).After(due) {
			c.mDeadline.Inc()
			return nil, fmt.Errorf("%w after %d attempt(s): %v", ErrDeadlineExceeded, attempt, err)
		}
		c.wait(pause)
		now = c.clock.Now()
		c.mu.Lock()
		c.stats.Retries++
		c.mu.Unlock()
		c.mRetries.Inc()
		c.tracer.Event(obs.EventRemoteRetry)
	}
}

// attempt performs one try at now: the fault (paying its latency, then the
// deadline check), then the in-process back-end call. A round trip — rows
// or a SQL error — is settled in the breaker here; a link failure is
// returned for Query to settle.
func (c *Client) attempt(f Fault, q sqlparser.Scanned, now, due time.Time) ([]sqltypes.Row, error) {
	if f != nil {
		lat, err := f.Inject(now)
		if lat > 0 {
			c.wait(lat)
			now = now.Add(lat)
		}
		if now.After(due) {
			c.mDeadline.Inc()
			return nil, fmt.Errorf("%w (reply after deadline)", ErrDeadlineExceeded)
		}
		if err != nil {
			return nil, fmt.Errorf("remote: injected: %w", err)
		}
	}
	res, err := c.backend.QueryScanned(q)
	var rows []sqltypes.Row
	var bytes int64
	if err == nil {
		rows = res.Rows
		for _, r := range rows {
			bytes += rowBytes(r)
		}
	}
	c.mu.Lock()
	c.stats.Queries++
	c.stats.Rows += int64(len(rows))
	c.stats.Bytes += bytes
	c.settleLocked(now, true)
	c.mu.Unlock()
	return rows, err
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
