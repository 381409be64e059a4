package remote

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"relaxedcc/internal/fault"
	"relaxedcc/internal/obs"
	"relaxedcc/internal/vclock"
)

// failN fails its first n injections with a transient error, then succeeds;
// every injection, failed or not, pays lat.
type failN struct {
	left int
	lat  time.Duration
}

func (f *failN) Inject(time.Time) (time.Duration, error) {
	if f.left > 0 {
		f.left--
		return f.lat, fault.ErrTransient
	}
	return f.lat, nil
}

// jittered reports whether d lies within jitterFrac/2 of each of the base
// waits, summed: the backoff before the retries they stand for.
func jittered(d time.Duration, base ...time.Duration) bool {
	var lo, hi time.Duration
	for _, b := range base {
		span := time.Duration(float64(b) * jitterFrac / 2)
		lo, hi = lo+b-span, hi+b+span
	}
	return d >= lo && d <= hi
}

func TestRetrySucceedsAfterTransients(t *testing.T) {
	c, clock := newLink(t)
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
	// Exponential backoff: 50ms then 100ms of virtual time, each within
	// its jitter.
	if got := clock.Now().Sub(start); !jittered(got, backoffBase, 2*backoffBase) {
		t.Fatalf("backoff advanced %v of virtual time, want 150ms ± jitter", got)
	}
}

func TestRetriesExhausted(t *testing.T) {
	c, _ := newLink(t)
	c.SetFault(&failN{left: 100})
	_, err := c.Query("SELECT id FROM t")
	if err == nil || !IsUnavailable(err) {
		t.Fatalf("err = %v", err)
	}
	if !errors.Is(err, fault.ErrTransient) {
		t.Fatalf("cause lost: %v", err)
	}
	if st := c.Stats(); st.Failures != maxAttempts || st.Retries != maxAttempts-1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDeadlineBoundsRetryTime: two 960ms failures and the backoff between
// them leave ~1.97s of the 2s deadline, less than the second backoff, so the
// link gives up before the third attempt.
func TestDeadlineBoundsRetryTime(t *testing.T) {
	c, _ := newLink(t)
	c.SetFault(&failN{left: 100, lat: 960 * time.Millisecond})
	_, err := c.Query("SELECT id FROM t")
	if !errors.Is(err, ErrDeadlineExceeded) || !strings.Contains(err.Error(), "after 2 attempt(s)") {
		t.Fatalf("err = %v", err)
	}
	if st := c.Stats(); st.Failures != 2 || st.Retries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInjectedLatencyCountsAgainstDeadline(t *testing.T) {
	c, _ := newLink(t)
	inj := fault.New(1)
	inj.SetLatency(deadline+time.Millisecond, 0)
	c.SetFault(inj)
	_, err := c.Query("SELECT id FROM t")
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if st := c.Stats(); st.Queries != 0 {
		t.Fatalf("a reply after the deadline reached the back end: %+v", st)
	}
}

func TestBreakerTripsAndHalfOpens(t *testing.T) {
	clock := vclock.NewVirtual()
	reg := obs.NewRegistry()
	c := newLinkWaiting(t, clock, clock.Advance, reg)
	cooldown := 5 * time.Second // the slowest heartbeat in deployment
	c.PaceProbes(cooldown)
	inj := partition(c)

	// Three failures, then two more: the fifth trips the breaker.
	for i := 0; i < 2; i++ {
		if _, err := c.Query("SELECT id FROM t"); !errors.Is(err, fault.ErrPartition) {
			t.Fatalf("query %d: err = %v", i, err)
		}
	}
	if got := c.BreakerState(); got != BreakerOpen {
		t.Fatalf("state after %d failures = %v", c.Stats().Failures, got)
	}
	// Open: fails fast without touching the link.
	denials := inj.Stats().PartitionDenials
	if _, err := c.Query("SELECT id FROM t"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v", err)
	}
	if inj.Stats().PartitionDenials != denials {
		t.Fatal("open breaker let a query through")
	}

	// The cooldown elapses; the half-open probe still fails -> re-open.
	clock.Advance(cooldown - time.Millisecond)
	if _, err := c.Query("SELECT id FROM t"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err before the cooldown = %v", err)
	}
	clock.Advance(time.Millisecond)
	if _, err := c.Query("SELECT id FROM t"); !errors.Is(err, fault.ErrPartition) {
		t.Fatalf("probe err = %v", err)
	}
	if got := c.BreakerState(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v", got)
	}

	// Heal; next probe closes the breaker.
	inj.SetPartitioned(false)
	clock.Advance(cooldown)
	if _, err := c.Query("SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
	if got := c.BreakerState(); got != BreakerClosed {
		t.Fatalf("state after recovery = %v", got)
	}
	if got := c.Stats().BreakerTrips; got != 2 {
		t.Fatalf("trips = %d", got)
	}

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"remote_breaker_trips_total":                  2,
		"remote_failures_total":                       8, // 3 + 2, two refusals, the failed probe
		`span_events_total{kind="breaker_open"}`:      2,
		`span_events_total{kind="breaker_half_open"}`: 2,
		`span_events_total{kind="breaker_closed"}`:    1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if v := snap.Gauges["remote_breaker_state"]; v != int64(BreakerClosed) {
		t.Fatalf("remote_breaker_state = %d", v)
	}
}

// TestSQLErrorsNeitherRetryNorTrip: a SQL error is a delivered round trip —
// no retry, no failure, and it ends a run of link failures, so four failures
// on each side of it leave the breaker (threshold five) closed.
func TestSQLErrorsNeitherRetryNorTrip(t *testing.T) {
	c, _ := newLink(t)
	_, err := c.Query("SELECT * FROM missing")
	if err == nil || IsUnavailable(err) {
		t.Fatalf("err = %v", err)
	}
	if st := c.Stats(); st.Retries != 0 || st.Failures != 0 {
		t.Fatalf("stats = %+v", st)
	}
	for _, sql := range []string{"SELECT * FROM missing", "SELECT id FROM t"} {
		c.SetFault(&failN{left: 4})
		c.Query("SELECT id FROM t") // three failures
		c.Query(sql)                // a fourth, then delivered
	}
	if st := c.Stats(); st.Failures != 8 || st.BreakerTrips != 0 || c.BreakerState() != BreakerClosed {
		t.Fatalf("stats = %+v, breaker %v", st, c.BreakerState())
	}
}

func TestBreakerStopsRetryLoop(t *testing.T) {
	c, _ := newLink(t)
	partition(c)
	c.Query("SELECT id FROM t")
	_, err := c.Query("SELECT id FROM t")
	if err == nil || !strings.HasPrefix(err.Error(), "remote: 2 attempt(s) failed") {
		t.Fatalf("err = %v", err)
	}
	// The breaker tripped at the fifth failure, the second attempt of the
	// second query; the loop must not have made its third.
	if st := c.Stats(); st.Failures != breakerThreshold {
		t.Fatalf("failures = %d, want %d", st.Failures, breakerThreshold)
	}
}

func TestJitterIsDeterministicPerSeed(t *testing.T) {
	run := func() time.Duration {
		c, clock := newLink(t)
		c.SetFault(&failN{left: 100})
		start := clock.Now()
		if _, err := c.Query("SELECT id FROM t"); err == nil {
			t.Fatal("no error")
		}
		return clock.Now().Sub(start)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different backoff: %v vs %v", a, b)
	}
	if a == 3*backoffBase || !jittered(a, backoffBase, 2*backoffBase) {
		t.Fatalf("backoff %v is not 150ms moved by its jitter", a)
	}
}

// Ensure the wrapped exhaustion error remains classifiable and readable.
func TestExhaustionErrorMessage(t *testing.T) {
	c, _ := newLink(t)
	partition(c)
	_, err := c.Query("SELECT id FROM t")
	if err == nil || !errors.Is(err, fault.ErrPartition) {
		t.Fatalf("err = %v", err)
	}
	if want := "remote: 3 attempt(s) failed: "; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("message = %q", err.Error())
	}
}

// TestSQLErrorSettlesHalfOpenProbe: a half-open probe that the back end
// rejects with a SQL error was delivered, so it closes the breaker like any
// round trip; it must not leave the probe outstanding and the link refusing
// every later call.
func TestSQLErrorSettlesHalfOpenProbe(t *testing.T) {
	c, clock := newLink(t)
	inj := partition(c)
	for c.BreakerState() != BreakerOpen {
		if _, err := c.Query("SELECT id FROM t"); !IsUnavailable(err) {
			t.Fatalf("err = %v", err)
		}
	}
	inj.SetPartitioned(false)
	clock.Advance(time.Second)
	if _, err := c.Query("SELECT * FROM missing"); err == nil || IsUnavailable(err) {
		t.Fatalf("probe err = %v, want the SQL error", err)
	}
	for i := 0; i < 3; i++ {
		clock.Advance(time.Minute)
		if _, err := c.Query("SELECT id FROM t"); err != nil {
			t.Fatalf("query %d after the rejected probe: %v", i, err)
		}
	}
}

// TestOneLinkTwoGoroutines shares one link between two goroutines behind a
// 40%-transient injector, so retries, the breaker and the jitter generator
// all run under the link's one mutex (run with -race).
func TestOneLinkTwoGoroutines(t *testing.T) {
	c, _ := newLink(t)
	inj := fault.New(3)
	inj.SetErrorRate(0.4)
	c.SetFault(inj)
	var wg sync.WaitGroup
	var answered [2]int64
	for g := range answered {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rows, err := c.Query("SELECT id FROM t")
				switch {
				case err == nil && len(rows) == 2:
					answered[g]++
				case err == nil || !IsUnavailable(err):
					t.Errorf("rows %v, err %v", rows, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if n := answered[0] + answered[1]; n == 0 || st.Queries != n || st.Rows != 2*n {
		t.Fatalf("%d answered, stats %+v", n, st)
	}
	if st.Retries == 0 || st.Failures == 0 {
		t.Fatalf("no retries or failures at a 40%% error rate: %+v", st)
	}
}
