package harness

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"relaxedcc/internal/obs"
	"relaxedcc/internal/tpcd"
)

// tinyLoadConfig is the smallest sweep that still exercises every reporting
// path: three steps, one virtual second each.
func tinyLoadConfig() LoadConfig {
	cfg := DefaultLoadConfig()
	cfg.ScaleFactor = 0.002
	cfg.Steps = []float64{20, 40, 80}
	cfg.StepDuration = time.Second
	cfg.StepGap = 500 * time.Millisecond
	return cfg
}

// The coordinated-omission property: when one query stalls a worker, every
// query scheduled behind it is charged its full queueing delay from its
// *scheduled* arrival. A closed-loop (or dispatch-timed) measurement would
// record ~1ms for all of them and hide the stall entirely; the open-loop
// p999 must surface it.
func TestCoordinatedOmissionCharged(t *testing.T) {
	// 1000 arrivals at 1ms spacing on a single worker; query 100 stalls for
	// one second, every later query costs 1ms of service.
	arrivals := make([]time.Duration, 1000)
	for i := range arrivals {
		arrivals[i] = time.Duration(i) * time.Millisecond
	}
	const stall = time.Second
	lats := openLoop(arrivals, 1, func(i int) time.Duration {
		if i == 100 {
			return stall
		}
		return time.Millisecond
	})

	// The stalled query itself.
	if lats[100] < stall {
		t.Fatalf("stalled query charged %v, want >= %v", lats[100], stall)
	}
	// The next query arrived 1ms later but could not start until the stall
	// cleared: it must be charged the remaining wait, not its 1ms service.
	if lats[101] < stall-10*time.Millisecond {
		t.Fatalf("query behind the stall charged %v — latency measured from dispatch, not scheduled arrival", lats[101])
	}
	// Queue drains at (1ms service / 1ms arrival): the backlog never
	// shrinks, so even the last query still carries most of the stall.
	if last := lats[len(lats)-1]; last < stall/2 {
		t.Fatalf("tail query charged %v, backlog should persist", last)
	}

	// And the histogram percentiles reflect it: p999 over the same samples
	// sits near the stall, p50 stays near service time.
	h := &obs.Histogram{}
	for _, l := range lats {
		h.ObserveDuration(l)
	}
	if p999 := h.Quantile(0.999); time.Duration(p999) < stall/2 {
		t.Errorf("p999 %v does not reflect the stall", time.Duration(p999))
	}
	if p50 := h.Quantile(0.50); time.Duration(p50) > stall {
		t.Errorf("p50 %v blown past the stall — pool bookkeeping broken", time.Duration(p50))
	}
}

// Without stalls an under-utilized pool charges roughly service time.
func TestOpenLoopUnloaded(t *testing.T) {
	arrivals := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	lats := openLoop(arrivals, 2, func(int) time.Duration { return time.Millisecond })
	for i, l := range lats {
		if l != time.Millisecond {
			t.Errorf("query %d: latency %v, want 1ms (no queueing at low load)", i, l)
		}
	}
}

func TestBuildScheduleDeterministic(t *testing.T) {
	const stepDuration = 2 * time.Second
	mk := func() []arrival {
		rng := rand.New(rand.NewSource(7))
		ks := tpcd.NewKeySampler(7, 300, tpcd.DefaultZipfS, tpcd.DefaultZipfV)
		return buildSchedule(stepDuration, rng, ks, 100)
	}
	a, b := mk(), mk()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("schedule lengths differ or empty: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Uniform arrivals must be evenly spaced and inside the step.
	for i := 1; i < len(a); i++ {
		if a[i].at <= a[i-1].at {
			t.Fatalf("arrivals not monotone at %d", i)
		}
	}
	if last := a[len(a)-1].at; last >= stepDuration {
		t.Fatalf("arrival past step end: %v", last)
	}
	// Weighted tenants: every class must receive traffic.
	seen := map[int]int{}
	for _, ar := range a {
		seen[ar.tenant]++
	}
	for i := range loadTenants {
		if seen[i] == 0 {
			t.Errorf("tenant %d drew no traffic in %d arrivals", i, len(a))
		}
	}
}

func TestFindKnee(t *testing.T) {
	steps := []LoadStep{
		{OfferedQPS: 50, AchievedQPS: 50, LatencyP99NS: int64(10 * time.Millisecond)},
		{OfferedQPS: 100, AchievedQPS: 99, LatencyP99NS: int64(20 * time.Millisecond)},
		{OfferedQPS: 200, AchievedQPS: 140, LatencyP99NS: int64(400 * time.Millisecond)},
	}
	knee := findKnee(steps)
	if knee != 100 {
		t.Fatalf("knee = %v, want 100", knee)
	}
	if steps[2].Saturated != true || steps[0].Saturated || steps[1].Saturated {
		t.Fatalf("saturation flags wrong: %+v", steps)
	}
}

// The acceptance criterion: two same-seed virtual-clock runs produce
// byte-identical BENCH_load.json payloads.
func TestSameSeedByteIdentical(t *testing.T) {
	run := func() []byte {
		rep, err := RunLoad(tinyLoadConfig())
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed reports differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// The report satisfies the schema check RunLoadReport gates every run on,
// and carries what the check leaves to the configuration: one slice per
// tenant class with traffic in each, and the sweep's SLO target.
func TestReportSanity(t *testing.T) {
	rep, err := RunLoad(tinyLoadConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	for i, s := range rep.Steps {
		if s.Answered == 0 {
			t.Errorf("step %d: nothing answered of %d scheduled", i, s.Queries)
		}
		if len(s.Tenants) != len(loadTenants) {
			t.Fatalf("step %d: want %d tenant classes, got %d", i, len(loadTenants), len(s.Tenants))
		}
	}
	if rep.SLO.Target != loadSLOTarget {
		t.Errorf("SLO snapshot target %v, want %v", rep.SLO.Target, loadSLOTarget)
	}
}

// openLoop runs the worker-pool bookkeeping alone: arrivals (offsets from a
// common origin) served by `workers` channels, each query's service time
// supplied by svc(i) in arrival order. It returns per-query latencies
// measured from scheduled arrival.
func openLoop(arrivals []time.Duration, workers int, svc func(i int) time.Duration) []time.Duration {
	origin := time.Time{}.Add(time.Hour) // any fixed origin; only differences matter
	pool := workerPool{freeAt: make([]time.Time, workers)}
	out := make([]time.Duration, len(arrivals))
	for i, at := range arrivals {
		t := origin.Add(at)
		out[i] = pool.dispatch(t, svc(i)).Sub(t)
	}
	return out
}
