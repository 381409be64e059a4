package remote

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"relaxedcc/internal/backend"
	"relaxedcc/internal/fault"
	"relaxedcc/internal/obs"
	"relaxedcc/internal/vclock"
)

// newLink is a link over a back end holding table t with two rows; its waits
// advance the returned virtual clock.
func newLink(t *testing.T) (*Client, *vclock.Virtual) {
	t.Helper()
	clock := vclock.NewVirtual()
	return newLinkWaiting(t, clock, clock.Advance, obs.NewRegistry()), clock
}

// newLinkWaiting is newLink with its waits, metrics and span events where
// the caller wants them.
func newLinkWaiting(t *testing.T, clock *vclock.Virtual, wait func(time.Duration), reg *obs.Registry) *Client {
	t.Helper()
	b := backend.New(clock)
	if _, err := b.Exec("CREATE TABLE t (id BIGINT NOT NULL PRIMARY KEY, name VARCHAR(10))"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exec("INSERT INTO t VALUES (1, 'aaaa'), (2, 'bb')"); err != nil {
		t.Fatal(err)
	}
	return NewClient(b, clock, wait, reg, obs.NewTracer(reg, 1, 1))
}

// partition cuts c off from the back end until the returned injector heals.
func partition(c *Client) *fault.Injector {
	inj := fault.New(1)
	inj.SetPartitioned(true)
	c.SetFault(inj)
	return inj
}

func TestQueryShipsRows(t *testing.T) {
	c, _ := newLink(t)
	rows, err := c.Query("SELECT id, name FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	st := c.Stats()
	if st.Queries != 1 || st.Rows != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Bytes: (8 + len+2) per row = (8+6) + (8+4) = 26.
	if st.Bytes != 26 {
		t.Fatalf("bytes = %d", st.Bytes)
	}
}

// TestHealthyQueryIsOneCall: on a fault-free link the resilience costs
// nothing a query can see — one back-end call, no wait, no jitter draw, and
// a closed breaker.
func TestHealthyQueryIsOneCall(t *testing.T) {
	clock := vclock.NewVirtual()
	c := newLinkWaiting(t, clock, func(d time.Duration) { t.Fatalf("healthy query waited %v", d) }, obs.NewRegistry())
	start := clock.Now()
	if _, err := c.Query("SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
	want := Stats{Queries: 1, Rows: 2, Bytes: 16}
	if st := c.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if got := c.rng.Float64(); got != rand.New(rand.NewSource(jitterSeed)).Float64() {
		t.Fatal("healthy query drew from the jitter generator")
	}
	if got := c.BreakerState(); got != BreakerClosed {
		t.Fatalf("breaker = %v", got)
	}
	if !clock.Now().Equal(start) {
		t.Fatalf("healthy query moved the clock by %v", clock.Now().Sub(start))
	}
}

func TestQueryErrorsPropagate(t *testing.T) {
	c, _ := newLink(t)
	if _, err := c.Query("SELECT * FROM missing"); err == nil {
		t.Fatal("missing table accepted")
	}
	st := c.Stats()
	if st.Rows != 0 {
		t.Fatal("failed query counted rows")
	}
}

func TestFailureInjection(t *testing.T) {
	c, _ := newLink(t)
	inj := partition(c)
	_, err := c.Query("SELECT id FROM t")
	if !errors.Is(err, fault.ErrPartition) {
		t.Fatalf("err = %v", err)
	}
	inj.SetPartitioned(false)
	if _, err := c.Query("SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
}

func TestResetStats(t *testing.T) {
	c, _ := newLink(t)
	c.Query("SELECT id FROM t")
	c.ResetStats()
	if st := c.Stats(); st.Queries != 0 || st.Rows != 0 || st.Bytes != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
}
