package obs

import (
	"testing"
	"time"
)

func obsWithin(region int) GuardEvent {
	return GuardEvent{Region: region, Chosen: 0, Bound: 10 * time.Second,
		Staleness: time.Second, StalenessKnown: true}
}

func obsDegraded(region int) GuardEvent {
	return GuardEvent{Region: region, Chosen: 0, Bound: 10 * time.Second,
		Staleness: 30 * time.Second, StalenessKnown: true, Degraded: true}
}

func TestSLOWithinBoundSemantics(t *testing.T) {
	s := NewSLOTracker(NewRegistry(), 0.9, 16)
	// Guard-approved local serve inside the bound: within.
	s.Observe(obsWithin(1))
	// Remote serve: within by definition (master data).
	s.Observe(GuardEvent{Region: 1, Chosen: 1, Bound: time.Second})
	// Degraded serve: counts against budget even if staleness looks fine.
	s.Observe(GuardEvent{Region: 1, Chosen: 0, Bound: 10 * time.Second,
		Staleness: time.Second, StalenessKnown: true, Degraded: true})
	// Local serve with unknown staleness: the guard vouched, so within.
	s.Observe(GuardEvent{Region: 1, Chosen: 0, Bound: time.Second})
	// Local serve observed over the bound: not within.
	s.Observe(GuardEvent{Region: 1, Chosen: 0, Bound: time.Second,
		Staleness: 2 * time.Second, StalenessKnown: true})

	snap := s.Snapshot()
	if len(snap.Regions) != 1 {
		t.Fatalf("regions = %d, want 1", len(snap.Regions))
	}
	r := snap.Regions[0]
	if r.Observations != 5 || r.Within != 3 || r.Degraded != 1 {
		t.Fatalf("counts wrong: %+v", r)
	}
	if r.WithinRatio != 0.6 {
		t.Fatalf("within ratio = %v, want 0.6", r.WithinRatio)
	}
}

func TestSLOSlidingWindowEviction(t *testing.T) {
	s := NewSLOTracker(NewRegistry(), 0.99, 4)
	for i := 0; i < 4; i++ {
		s.Observe(obsDegraded(2))
	}
	for i := 0; i < 4; i++ {
		s.Observe(obsWithin(2))
	}
	r := s.Snapshot().Regions[0]
	if r.Observations != 4 || r.Within != 4 || r.Degraded != 0 {
		t.Fatalf("window did not evict: %+v", r)
	}
	if r.ErrorBudget != 1 {
		t.Fatalf("error budget = %v, want 1 after recovery", r.ErrorBudget)
	}
}

func TestSLOErrorBudgetMath(t *testing.T) {
	// target 0.9 over 10 observations allows 1 miss: one miss spends the
	// whole budget, more clamps at 0.
	s := NewSLOTracker(NewRegistry(), 0.9, 10)
	for i := 0; i < 9; i++ {
		s.Observe(obsWithin(1))
	}
	s.Observe(obsDegraded(1))
	r := s.Snapshot().Regions[0]
	if r.ErrorBudget != 0 {
		t.Fatalf("budget = %v, want 0 with the allowance exactly spent", r.ErrorBudget)
	}

	if got := ErrorBudget(0.9, 95, 100); got < 0.49 || got > 0.51 {
		t.Fatalf("half-spent budget = %v, want 0.5", got)
	}
	if got := ErrorBudget(0.9, 80, 100); got != 0 {
		t.Fatalf("overspent budget = %v, want clamped 0", got)
	}
	if got := ErrorBudget(1.0, 100, 100); got != 1 {
		t.Fatalf("perfect run at target 1.0 = %v, want 1", got)
	}
	if got := ErrorBudget(1.0, 99, 100); got != 0 {
		t.Fatalf("any miss at target 1.0 = %v, want 0", got)
	}
	if got := ErrorBudget(0.99, 0, 0); got != 1 {
		t.Fatalf("empty window budget = %v, want 1", got)
	}
}

func TestSLOSnapshotDeterministicOrderAndPercentiles(t *testing.T) {
	s := NewSLOTracker(NewRegistry(), 0.99, 64)
	for _, region := range []int{3, 1, 2} {
		for i := 1; i <= 4; i++ {
			s.Observe(GuardEvent{Region: region, Chosen: 0,
				Bound:     time.Minute,
				Staleness: time.Duration(i) * time.Second, StalenessKnown: true})
		}
	}
	snap := s.Snapshot()
	if len(snap.Regions) != 3 {
		t.Fatalf("regions = %d", len(snap.Regions))
	}
	for i, want := range []int{1, 2, 3} {
		if snap.Regions[i].Region != want {
			t.Fatalf("region order %v, want sorted by id", snap.Regions)
		}
	}
	r := snap.Regions[0]
	if r.StalenessP50NS != int64(2*time.Second) || r.StalenessMaxNS != int64(4*time.Second) {
		t.Fatalf("percentiles wrong: %+v", r)
	}
	if r.StalenessP95NS > r.StalenessP99NS || r.StalenessP99NS > r.StalenessMaxNS {
		t.Fatalf("percentiles not monotone: %+v", r)
	}
}

func TestSLOGaugesExported(t *testing.T) {
	reg := NewRegistry()
	s := NewSLOTracker(reg, 0.5, 8)
	s.Observe(obsWithin(7))
	s.Observe(obsDegraded(7))
	snap := reg.Snapshot()
	if got := snap.Gauges[`slo_within_bound_ratio{region="7"}`]; got != 500000 {
		t.Fatalf("ratio gauge = %d ppm, want 500000", got)
	}
	if got := snap.Gauges[`slo_error_budget{region="7"}`]; got != 0 {
		t.Fatalf("budget gauge = %d ppm, want 0 (1 miss of 1 allowed)", got)
	}
	if _, ok := snap.Histograms[`slo_served_staleness_ns{region="7"}`]; !ok {
		t.Fatal("served-staleness histogram missing")
	}
	var nilTracker *SLOTracker
	nilTracker.Observe(obsWithin(1)) // nil-safe
}

func TestNormalizeBound(t *testing.T) {
	if NormalizeBound(-1) != 0 || NormalizeBound(0) != 0 {
		t.Fatal("non-positive bounds must normalize to 0")
	}
	if NormalizeBound(time.Duration(1<<63-1)) != 0 {
		t.Fatal("the unconstrained sentinel must normalize to 0")
	}
	if NormalizeBound(time.Second) != time.Second {
		t.Fatal("finite bounds must pass through")
	}
}
