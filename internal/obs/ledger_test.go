package obs

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func wlStart() time.Time {
	return time.Date(2004, 6, 13, 0, 0, 0, 0, time.UTC)
}

// newLedger is a ledger on its own registry with the given SLO target and
// window, its first workload window opening at wlStart.
func newLedger(target float64, window int) *RegionLedger {
	l := NewRegionLedger(NewRegistry(), wlStart())
	l.Reconfigure(target, window)
	return l
}

func obsWithin(region int) GuardEvent {
	return GuardEvent{Region: region, Chosen: 0, Bound: 10 * time.Second,
		Staleness: time.Second, StalenessKnown: true}
}

func obsDegraded(region int) GuardEvent {
	return GuardEvent{Region: region, Chosen: 0, Bound: 10 * time.Second,
		Staleness: 30 * time.Second, StalenessKnown: true, Degraded: true}
}

func TestSLOWithinBoundSemantics(t *testing.T) {
	s := newLedger(0.9, 16)
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

	snap := s.SLO()
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
	s := newLedger(0.99, 4)
	for i := 0; i < 4; i++ {
		s.Observe(obsDegraded(2))
	}
	for i := 0; i < 4; i++ {
		s.Observe(obsWithin(2))
	}
	r := s.SLO().Regions[0]
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
	s := newLedger(0.9, 10)
	for i := 0; i < 9; i++ {
		s.Observe(obsWithin(1))
	}
	s.Observe(obsDegraded(1))
	r := s.SLO().Regions[0]
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
	s := newLedger(0.99, 64)
	for _, region := range []int{3, 1, 2} {
		for i := 1; i <= 4; i++ {
			s.Observe(GuardEvent{Region: region, Chosen: 0,
				Bound:     time.Minute,
				Staleness: time.Duration(i) * time.Second, StalenessKnown: true})
		}
	}
	snap := s.SLO()
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
	s := NewRegionLedger(reg, wlStart())
	s.Reconfigure(0.5, 8)
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
}

// TestReconfigureResetsOnlyTheSLOHalf: Reconfigure starts every region's SLO
// window over under the new target and window, and leaves the workload
// window and every metric as they were. A region is back in SLO() with its
// next decision.
func TestReconfigureResetsOnlyTheSLOHalf(t *testing.T) {
	reg := NewRegistry()
	l := NewRegionLedger(reg, wlStart())
	at := wlStart().Add(5 * time.Second)
	l.Observe(obsWithin(1))
	l.Observe(obsDegraded(1))
	l.Observe(GuardEvent{Region: 2, Chosen: 1, Bound: time.Second})
	l.Degraded(1)
	l.BlockWaits(3)
	metrics, profiles := reg.Snapshot(), l.Snapshot(at)

	l.Reconfigure(0.9, 16)
	if snap := l.SLO(); snap.Target != 0.9 || snap.Window != 16 || len(snap.Regions) != 0 {
		t.Fatalf("SLO after Reconfigure = %+v, want target 0.9, window 16, no regions", snap)
	}
	if got := reg.Snapshot(); !reflect.DeepEqual(got, metrics) {
		t.Fatalf("Reconfigure moved the metrics:\nbefore %+v\nafter  %+v", metrics, got)
	}
	if got := l.Snapshot(at); !reflect.DeepEqual(got, profiles) {
		t.Fatalf("Reconfigure moved the workload window:\nbefore %+v\nafter  %+v", profiles, got)
	}

	l.Observe(obsWithin(2))
	snap := l.SLO()
	if len(snap.Regions) != 1 || snap.Regions[0].Region != 2 || snap.Regions[0].Observations != 1 {
		t.Fatalf("SLO after one more decision = %+v, want region 2 with one observation", snap)
	}
	if p := l.Snapshot(at); p[1].Queries != 2 {
		t.Fatalf("workload region 2 = %+v, want both decisions", p[1])
	}
}

func TestLedgerWorkloadProfiles(t *testing.T) {
	start := wlStart()
	w := NewRegionLedger(NewRegistry(), start)
	// Region 1: 3 local (one degraded), 1 remote, mixed bounds, one
	// unbounded (planner sentinel); region 2: idle until later.
	obs := []GuardEvent{
		{Region: 1, Chosen: 0, Bound: 4 * time.Second, Staleness: time.Second, StalenessKnown: true},
		{Region: 1, Chosen: 0, Bound: 4 * time.Second, Staleness: 3 * time.Second, StalenessKnown: true, Degraded: true},
		{Region: 1, Chosen: 1, Bound: 2 * time.Second},
		{Region: 1, Chosen: 0, Bound: time.Duration(1<<63 - 1)},
	}
	for _, g := range obs {
		w.Observe(g)
	}
	// A staleness gauge set between decisions makes no profile.
	w.SetStaleness(2, time.Second)

	profs := w.Snapshot(start.Add(10 * time.Second))
	if len(profs) != 1 {
		t.Fatalf("got %d profiles, want 1", len(profs))
	}
	p := profs[0]
	if p.Region != 1 || p.Queries != 4 || p.Local != 3 || p.Remote != 1 ||
		p.Degraded != 1 || p.Unbounded != 1 {
		t.Fatalf("profile counts wrong: %+v", p)
	}
	if p.WindowNS != int64(10*time.Second) || p.QueriesPerSecond != 0.4 {
		t.Fatalf("window/rate wrong: %+v", p)
	}
	// Bound mix is sorted ascending and excludes the unbounded query.
	if len(p.Bounds) != 2 ||
		p.Bounds[0] != (BoundCount{BoundNS: int64(2 * time.Second), Count: 1}) ||
		p.Bounds[1] != (BoundCount{BoundNS: int64(4 * time.Second), Count: 2}) {
		t.Fatalf("bound mix wrong: %+v", p.Bounds)
	}
	// Staleness percentiles cover the two known local staleness samples.
	if p.StalenessP50NS != int64(time.Second) || p.StalenessMaxNS != int64(3*time.Second) {
		t.Fatalf("staleness percentiles wrong: %+v", p)
	}

	// Snapshot does not reset: a second snapshot is identical.
	again := w.Snapshot(start.Add(10 * time.Second))[0]
	if again.Queries != 4 {
		t.Fatalf("snapshot reset the window: %+v", again)
	}

	// Cut returns the window and resets it; the next window starts empty
	// with the new start, and the SLO windows keep their decisions.
	cut := w.Cut(start.Add(10 * time.Second))
	if cut[0].Queries != 4 {
		t.Fatalf("cut lost the window: %+v", cut[0])
	}
	if slo := w.SLO(); slo.Regions[0].Observations != 4 {
		t.Fatalf("Cut moved the SLO window: %+v", slo)
	}
	w.Observe(GuardEvent{Region: 2, Chosen: 0, Bound: time.Second})
	next := w.Snapshot(start.Add(12 * time.Second))
	if len(next) != 2 {
		t.Fatalf("got %d profiles after cut, want 2 (reset region 1 + new region 2)", len(next))
	}
	if next[0].Region != 1 || next[0].Queries != 0 || next[0].WindowNS != int64(2*time.Second) {
		t.Fatalf("region 1 not reset: %+v", next[0])
	}
	if next[1].Region != 2 || next[1].Queries != 1 || next[1].WindowNS != int64(2*time.Second) {
		t.Fatalf("region 2 window wrong: %+v", next[1])
	}
}

// TestLedgerBoundOverflow: once a region tracks workloadMaxBounds distinct
// bounds, further bounds fold deterministically into the nearest tracked one
// instead of growing the histogram.
func TestLedgerBoundOverflow(t *testing.T) {
	start := wlStart()
	w := NewRegionLedger(NewRegistry(), start)
	for i := 1; i <= workloadMaxBounds; i++ {
		w.Observe(GuardEvent{Region: 1, Bound: time.Duration(i) * time.Minute})
	}
	// 90s is between the 1m and 2m buckets; the tie rule picks the smaller.
	w.Observe(GuardEvent{Region: 1, Bound: 90 * time.Second})
	// 10h is beyond every bucket; it folds into the largest.
	w.Observe(GuardEvent{Region: 1, Bound: 10 * time.Hour})
	p := w.Snapshot(start.Add(time.Second))[0]
	if len(p.Bounds) != workloadMaxBounds {
		t.Fatalf("histogram grew past the cap: %d bounds", len(p.Bounds))
	}
	if p.Bounds[0] != (BoundCount{BoundNS: int64(time.Minute), Count: 2}) {
		t.Fatalf("90s did not fold into 1m: %+v", p.Bounds[0])
	}
	last := p.Bounds[len(p.Bounds)-1]
	if last != (BoundCount{BoundNS: int64(workloadMaxBounds * int(time.Minute)), Count: 2}) {
		t.Fatalf("10h did not fold into the largest bucket: %+v", last)
	}
}

// TestLedgerNil: a nil ledger ignores decisions (unwired callers stay safe).
func TestLedgerNil(t *testing.T) {
	var l *RegionLedger
	l.Observe(GuardEvent{Region: 1}) // must not panic
}

// TestLedgerConcurrent is the -race hammer: concurrent Observe against
// Snapshot, Cut and SLO, then a final check that no decision was lost or
// double-counted in either half: the workload windows across cuts, the SLO
// windows (sized past the run, so nothing is evicted) and the metrics.
func TestLedgerConcurrent(t *testing.T) {
	start := wlStart()
	reg := NewRegistry()
	w := NewRegionLedger(reg, start)
	const writers = 4
	const perWriter = 2000
	w.Reconfigure(0.99, writers*perWriter)

	var wg sync.WaitGroup
	cuts := make(chan []WorkloadProfile, 64)
	stop := make(chan struct{})
	var cutter sync.WaitGroup
	cutter.Add(1)
	go func() {
		defer cutter.Done()
		i := 0
		for {
			select {
			case <-stop:
				close(cuts)
				return
			default:
			}
			i++
			w.Snapshot(start.Add(time.Duration(i) * time.Millisecond))
			w.SLO()
			cuts <- w.Cut(start.Add(time.Duration(i) * time.Millisecond))
		}
	}()

	var drained sync.WaitGroup
	var mu sync.Mutex
	var total int64
	drained.Add(1)
	go func() {
		defer drained.Done()
		for profs := range cuts {
			for _, p := range profs {
				mu.Lock()
				total += p.Queries
				mu.Unlock()
			}
		}
	}()

	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				w.Observe(GuardEvent{
					Region:         wr % 2,
					Chosen:         i % 2,
					Bound:          time.Duration(1+i%8) * time.Second,
					Staleness:      time.Duration(i) * time.Millisecond,
					StalenessKnown: true,
				})
			}
		}(wr)
	}
	wg.Wait()
	// Writers are done; one final cut collects the remainder, then stop the
	// cutter.
	final := w.Cut(start.Add(time.Hour))
	close(stop)
	cutter.Wait()
	drained.Wait()
	for _, p := range final {
		total += p.Queries
	}
	// The cutter may have cut once more between our final cut and its stop
	// check; fold that in too.
	for _, p := range w.Cut(start.Add(2 * time.Hour)) {
		total += p.Queries
	}
	const want = writers * perWriter
	if total != want {
		t.Fatalf("observations across cuts = %d, want %d", total, want)
	}
	var slo int
	for _, r := range w.SLO().Regions {
		if r.Observations != want/2 {
			t.Errorf("SLO region %d has %d observations, want %d", r.Region, r.Observations, want/2)
		}
		slo += r.Observations
	}
	if slo != want {
		t.Fatalf("SLO observations = %d, want %d", slo, want)
	}
	snap := reg.Snapshot()
	var picks int64
	for _, region := range []string{"0", "1"} {
		picks += snap.Counters[`guard_local_total{region="`+region+`"}`] + snap.Counters[`guard_remote_total{region="`+region+`"}`]
	}
	if picks != want || snap.Histograms["guard_latency_ns"].Count != want {
		t.Fatalf("metrics counted %d picks, %d latencies, want %d", picks, snap.Histograms["guard_latency_ns"].Count, want)
	}
}

// TestNearestRank: the p-quantile is the ⌈p·N⌉-th smallest sample, for
// fractional products and for exact ones that floating point would push
// just above a whole number.
func TestNearestRank(t *testing.T) {
	seq := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(i + 1)
		}
		return out
	}
	for _, c := range []struct {
		n    int
		p    float64
		want int64
	}{
		{0, 0.5, 0},
		{1, 0.5, 1},
		{3, 0.5, 2},  // 1.5 → 2
		{4, 0.95, 4}, // 3.8 → 4
		{4, 0.5, 2},  // exact 2
		{5, 0.99, 5}, // 4.95 → 5
		{10, 0.95, 10},
		{100, 0.99, 99}, // exact: 0.99×100 is 99.00000000000001 in floating point
		{100, 0.95, 95},
		{1000, 0.999, 999},
		{3, 0, 1},
		{3, 1, 3},
	} {
		if got := NearestRank(seq(c.n), c.p); got != c.want {
			t.Errorf("NearestRank(1..%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
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
