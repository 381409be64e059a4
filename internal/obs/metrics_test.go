package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestValidName(t *testing.T) {
	valid := []string{"a", "queries_total", "guard_latency_ns", "x9", "a_1_b"}
	for _, n := range valid {
		if !ValidName(n) {
			t.Errorf("ValidName(%q) = false, want true", n)
		}
	}
	invalid := []string{"", "Queries", "9x", "_x", "guard-latency", "a.b", "a b", "añ"}
	for _, n := range invalid {
		if ValidName(n) {
			t.Errorf("ValidName(%q) = true, want false", n)
		}
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("g_now")
	g.Set(10)
	if g.Value() != 10 {
		t.Fatalf("gauge = %d, want 10", g.Value())
	}
	g.SetDuration(2 * time.Second)
	if g.Value() != int64(2*time.Second) {
		t.Fatalf("gauge = %d, want 2s in nanoseconds", g.Value())
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("same_total") != r.Counter("same_total") {
		t.Fatal("re-registration must return the same counter")
	}
	if r.CounterVec("v_total", "region").With("1") != r.CounterVec("v_total", "region").With("1") {
		t.Fatal("re-registration must return the same labeled child")
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	mustPanic("invalid name", func() { r.Counter("Bad-Name") })
	r.Counter("taken")
	mustPanic("kind conflict", func() { r.Gauge("taken") })
	mustPanic("vec kind conflict", func() { r.CounterVec("taken", "l") })
	r.CounterVec("taken_vec", "l")
	mustPanic("vec family conflict", func() { r.GaugeVec("taken_vec", "l") })
	r.Histogram("taken_ns")
	mustPanic("histogram vec conflict", func() { r.HistogramVec("taken_ns", "l") })
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	// 90 small observations and 10 large: p50 in the small bucket, p99 in
	// the large one. Log buckets make the estimate the bucket midpoint.
	for i := 0; i < 90; i++ {
		h.Observe(100) // bucket [64,128), mid 96
	}
	for i := 0; i < 10; i++ {
		h.Observe(100000) // bucket [65536,131072), mid 98304
	}
	if h.Count() != 100 || h.Sum() != 90*100+10*100000 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	if got := h.Quantile(0.50); got != 96 {
		t.Fatalf("p50 = %d, want 96", got)
	}
	if got := h.Quantile(0.99); got != 98304 {
		t.Fatalf("p99 = %d, want 98304", got)
	}
	// Negative observations clamp to zero (bucket 0).
	h.Observe(-5)
	if got := h.Quantile(0.001); got != 0 {
		t.Fatalf("min quantile = %d, want 0", got)
	}
}

func TestSnapshotText(t *testing.T) {
	r := NewRegistry()
	r.Counter("q_total").Add(3)
	r.Gauge("g_now").Set(9)
	r.Histogram("lat_ns").Observe(100)
	r.CounterVec("picks_total", "region").With("1").Add(2)
	r.GaugeVec("stale_ns", "region").With("2").Set(5)

	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		"q_total 3\n",
		"g_now 9\n",
		"lat_ns_count 1\n",
		"lat_ns_p50 96\n",
		`picks_total{region="1"} 2` + "\n",
		`stale_ns{region="2"} 5` + "\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("snapshot text missing %q in:\n%s", want, got)
		}
	}
	// Lines must come out sorted.
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] > lines[i] {
			t.Fatalf("lines not sorted: %q > %q", lines[i-1], lines[i])
		}
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("q_total").Inc()
	r.HistogramVec("lat_ns", "op").With("scan").Observe(7)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Counters["q_total"] != 1 {
		t.Fatalf("decoded counters = %v", decoded.Counters)
	}
	if decoded.Histograms[`lat_ns{op="scan"}`].Count != 1 {
		t.Fatalf("decoded histograms = %v", decoded.Histograms)
	}
}

// TestConcurrency hammers registration and the hot path from many
// goroutines; run under -race this is the lock-freedom smoke test.
func TestConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared_total")
			h := r.Histogram("shared_ns")
			v := r.CounterVec("shared_vec_total", "k")
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(int64(j))
				v.With("a").Inc()
				if j%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("shared_ns").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	if got := r.CounterVec("shared_vec_total", "k").With("a").Value(); got != 8000 {
		t.Fatalf("vec counter = %d, want 8000", got)
	}
}
