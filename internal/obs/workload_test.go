package obs

import (
	"sync"
	"testing"
	"time"
)

func wlStart() time.Time {
	return time.Date(2004, 6, 13, 0, 0, 0, 0, time.UTC)
}

func TestWorkloadObserverProfiles(t *testing.T) {
	start := wlStart()
	w := NewWorkloadObserver(start)
	// Region 1: 3 local (one degraded), 1 remote, mixed bounds, one
	// unbounded (planner sentinel); region 2: idle until later.
	obs := []GuardEvent{
		{Region: 1, Chosen: 0, Bound: 4 * time.Second, Staleness: time.Second, StalenessKnown: true},
		{Region: 1, Chosen: 0, Bound: 4 * time.Second, Staleness: 3 * time.Second, StalenessKnown: true, Degraded: true},
		{Region: 1, Chosen: 1, Bound: 2 * time.Second},
		{Region: 1, Chosen: 0, Bound: time.Duration(1<<63 - 1)},
	}
	for i, g := range obs {
		w.Record(start.Add(time.Duration(i)*time.Second), g)
	}

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
	// with the new start.
	cut := w.Cut(start.Add(10 * time.Second))
	if cut[0].Queries != 4 {
		t.Fatalf("cut lost the window: %+v", cut[0])
	}
	if got := w.WindowStart(); !got.Equal(start.Add(10 * time.Second)) {
		t.Fatalf("window start = %v", got)
	}
	w.Record(start.Add(11*time.Second), GuardEvent{Region: 2, Chosen: 0, Bound: time.Second})
	next := w.Snapshot(start.Add(12 * time.Second))
	if len(next) != 2 {
		t.Fatalf("got %d profiles after cut, want 2 (reset region 1 + new region 2)", len(next))
	}
	if next[0].Region != 1 || next[0].Queries != 0 {
		t.Fatalf("region 1 not reset: %+v", next[0])
	}
	if next[1].Region != 2 || next[1].Queries != 1 || next[1].WindowNS != int64(2*time.Second) {
		t.Fatalf("region 2 window wrong: %+v", next[1])
	}
}

// TestWorkloadObserverBoundOverflow: once a region tracks workloadMaxBounds
// distinct bounds, further bounds fold deterministically into the nearest
// tracked one instead of growing the histogram.
func TestWorkloadObserverBoundOverflow(t *testing.T) {
	start := wlStart()
	w := NewWorkloadObserver(start)
	for i := 1; i <= workloadMaxBounds; i++ {
		w.Record(start, GuardEvent{Region: 1, Bound: time.Duration(i) * time.Minute})
	}
	// 90s is between the 1m and 2m buckets; the tie rule picks the smaller.
	w.Record(start, GuardEvent{Region: 1, Bound: 90 * time.Second})
	// 10h is beyond every bucket; it folds into the largest.
	w.Record(start, GuardEvent{Region: 1, Bound: 10 * time.Hour})
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

// TestWorkloadObserverNil: a nil observer ignores records (unwired callers
// stay safe).
func TestWorkloadObserverNil(t *testing.T) {
	var w *WorkloadObserver
	w.Record(wlStart(), GuardEvent{Region: 1}) // must not panic
}

// TestWorkloadObserverConcurrent is the -race hammer: concurrent Record
// against Snapshot and Cut, then a final consistency check that no
// observation was lost or double-counted across window cuts.
func TestWorkloadObserverConcurrent(t *testing.T) {
	start := wlStart()
	w := NewWorkloadObserver(start)
	const writers = 4
	const perWriter = 2000

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
				w.Record(start, GuardEvent{
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
	if want := int64(writers * perWriter); total != want {
		t.Fatalf("observations across cuts = %d, want %d", total, want)
	}
}
