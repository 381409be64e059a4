package remote

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"relaxedcc/internal/backend"
	"relaxedcc/internal/fault"
	"relaxedcc/internal/obs"
	"relaxedcc/internal/vclock"
)

// failN fails its first n injections with a transient error, then succeeds.
type failN struct{ left int }

func (f *failN) Inject(time.Time) (time.Duration, error) {
	if f.left > 0 {
		f.left--
		return 0, fault.ErrTransient
	}
	return 0, nil
}

func newResilientLink(t *testing.T, clock *vclock.Virtual, p Policy) *Client {
	t.Helper()
	b := backend.New(clock)
	if _, err := b.Exec("CREATE TABLE t (id BIGINT NOT NULL PRIMARY KEY, name VARCHAR(10))"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exec("INSERT INTO t VALUES (1, 'aaaa'), (2, 'bb')"); err != nil {
		t.Fatal(err)
	}
	c := NewClient(b, clock, clock.Advance)
	c.Configure(p)
	return c
}

func TestRetrySucceedsAfterTransients(t *testing.T) {
	clock := vclock.NewVirtual()
	c := newResilientLink(t, clock, Policy{
		MaxAttempts: 3, BackoffBase: 10 * time.Millisecond, BackoffMax: time.Second,
	})
	c.SetFault(&failN{left: 2})
	start := clock.Now()
	rows, err := c.Query("SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	st := c.Stats()
	if st.Retries != 2 || st.Failures != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Exponential backoff without jitter: 10ms + 20ms of virtual time.
	if got := clock.Now().Sub(start); got != 30*time.Millisecond {
		t.Fatalf("backoff advanced %v of virtual time, want 30ms", got)
	}
}

func TestRetriesExhausted(t *testing.T) {
	clock := vclock.NewVirtual()
	c := newResilientLink(t, clock, Policy{MaxAttempts: 3, BackoffBase: time.Millisecond})
	c.SetFault(&failN{left: 100})
	_, err := c.Query("SELECT id FROM t")
	if err == nil || !IsUnavailable(err) {
		t.Fatalf("err = %v", err)
	}
	if !errors.Is(err, fault.ErrTransient) {
		t.Fatalf("cause lost: %v", err)
	}
	if st := c.Stats(); st.Failures != 3 || st.Retries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeadlineBoundsRetryTime(t *testing.T) {
	clock := vclock.NewVirtual()
	c := newResilientLink(t, clock, Policy{
		Deadline: 100 * time.Millisecond, MaxAttempts: 10,
		BackoffBase: 80 * time.Millisecond,
	})
	c.SetFault(&failN{left: 100})
	_, err := c.Query("SELECT id FROM t")
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestInjectedLatencyCountsAgainstDeadline(t *testing.T) {
	clock := vclock.NewVirtual()
	c := newResilientLink(t, clock, Policy{Deadline: 50 * time.Millisecond, MaxAttempts: 1})
	inj := fault.New(1)
	inj.SetLatency(200*time.Millisecond, 0)
	c.SetFault(inj)
	_, err := c.Query("SELECT id FROM t")
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestBreakerTripsAndHalfOpens(t *testing.T) {
	clock := vclock.NewVirtual()
	cooldown := 5 * time.Second // the heartbeat cadence in deployment
	c := newResilientLink(t, clock, Policy{
		MaxAttempts: 1, BreakerThreshold: 3, BreakerCooldown: cooldown,
	})
	reg := obs.NewRegistry()
	c.Instrument(reg)
	c.SetDown(true)

	for i := 0; i < 3; i++ {
		if _, err := c.Query("SELECT id FROM t"); !errors.Is(err, ErrLinkDown) {
			t.Fatalf("query %d: err = %v", i, err)
		}
	}
	if got := c.Breaker().State(); got != BreakerOpen {
		t.Fatalf("state after 3 failures = %v", got)
	}
	// Open: fails fast without touching the backend.
	qBefore := c.Stats().Queries
	if _, err := c.Query("SELECT id FROM t"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v", err)
	}
	if c.Stats().Queries != qBefore {
		t.Fatal("open breaker let a query through")
	}

	// Cooldown elapses; the half-open probe still fails -> re-open.
	clock.Advance(cooldown)
	if _, err := c.Query("SELECT id FROM t"); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("probe err = %v", err)
	}
	if got := c.Breaker().State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v", got)
	}
	if got := c.Breaker().Trips(); got != 2 {
		t.Fatalf("trips = %d", got)
	}

	// Heal; next probe closes the breaker.
	c.SetDown(false)
	clock.Advance(cooldown)
	if _, err := c.Query("SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
	if got := c.Breaker().State(); got != BreakerClosed {
		t.Fatalf("state after recovery = %v", got)
	}

	snap := reg.Snapshot()
	if v := snap.Gauges["remote_breaker_state"]; v != int64(BreakerClosed) {
		t.Fatalf("remote_breaker_state = %d", v)
	}
	if v := snap.Counters["remote_breaker_trips_total"]; v != 2 {
		t.Fatalf("remote_breaker_trips_total = %d", v)
	}
	if v := snap.Counters["remote_failures_total"]; v == 0 {
		t.Fatalf("remote_failures_total = %d", v)
	}
}

func TestSQLErrorsNeitherRetryNorTrip(t *testing.T) {
	clock := vclock.NewVirtual()
	c := newResilientLink(t, clock, Policy{MaxAttempts: 5, BreakerThreshold: 1, BreakerCooldown: time.Second})
	_, err := c.Query("SELECT * FROM missing")
	if err == nil || IsUnavailable(err) {
		t.Fatalf("err = %v", err)
	}
	if st := c.Stats(); st.Retries != 0 || st.Failures != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got := c.Breaker().State(); got != BreakerClosed {
		t.Fatalf("breaker = %v after SQL error", got)
	}
}

func TestBreakerStopsRetryLoop(t *testing.T) {
	clock := vclock.NewVirtual()
	c := newResilientLink(t, clock, Policy{
		MaxAttempts: 10, BackoffBase: time.Millisecond,
		BreakerThreshold: 2, BreakerCooldown: time.Minute,
	})
	c.SetDown(true)
	if _, err := c.Query("SELECT id FROM t"); err == nil {
		t.Fatal("no error")
	}
	// The breaker tripped at the second failure; the loop must not have
	// burned all 10 attempts.
	if st := c.Stats(); st.Failures != 2 {
		t.Fatalf("failures = %d, want 2", st.Failures)
	}
}

func TestJitterIsDeterministicPerSeed(t *testing.T) {
	run := func() time.Duration {
		clock := vclock.NewVirtual()
		c := newResilientLink(t, clock, Policy{
			MaxAttempts: 4, BackoffBase: 10 * time.Millisecond,
			BackoffMax: time.Second, JitterFrac: 0.5, Seed: 42,
		})
		c.SetFault(&failN{left: 100})
		start := clock.Now()
		if _, err := c.Query("SELECT id FROM t"); err == nil {
			t.Fatal("no error")
		}
		return clock.Now().Sub(start)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different backoff: %v vs %v", a, b)
	}
}

func TestConfigureDefaults(t *testing.T) {
	clock := vclock.NewVirtual()
	c := newResilientLink(t, clock, DefaultPolicy())
	if _, err := c.Query("SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
	if c.Breaker() == nil {
		t.Fatal("default policy should enable the breaker")
	}
}

// Ensure the wrapped exhaustion error remains classifiable and readable.
func TestExhaustionErrorMessage(t *testing.T) {
	clock := vclock.NewVirtual()
	c := newResilientLink(t, clock, Policy{MaxAttempts: 2, BackoffBase: time.Millisecond})
	c.SetDown(true)
	_, err := c.Query("SELECT id FROM t")
	if err == nil || !errors.Is(err, ErrLinkDown) {
		t.Fatalf("err = %v", err)
	}
	want := fmt.Sprintf("remote: %d attempt(s) failed", 2)
	if got := err.Error(); len(got) < len(want) || got[:len(want)] != want {
		t.Fatalf("message = %q", got)
	}
}
