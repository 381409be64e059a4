package obs

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// begin starts a trace in fresh storage: the sampled trace, or nil.
func begin(tr *Tracer, sql string) *QueryTrace {
	_, qt := tr.Begin(sql, false, new(QueryTrace))
	return qt
}

// TestTracerDeterministicSampling pins the 1-in-N sampler: the first query
// is always sampled, then every N-th by arrival order — the property that
// keeps seeded chaos and bench runs byte-identical.
func TestTracerDeterministicSampling(t *testing.T) {
	tr := NewTracer(NewRegistry(), 4, 64)
	var sampled []int
	for i := 0; i < 12; i++ {
		if qt := begin(tr, "SELECT 1"); qt != nil {
			sampled = append(sampled, i)
			qt.Finish(false)
		}
	}
	want := []int{0, 4, 8}
	if len(sampled) != len(want) {
		t.Fatalf("sampled %v, want %v", sampled, want)
	}
	for i := range want {
		if sampled[i] != want[i] {
			t.Fatalf("sampled %v, want %v", sampled, want)
		}
	}
	recs := tr.Recent()
	if len(recs) != 3 {
		t.Fatalf("ring has %d records, want 3", len(recs))
	}
	// Every query gets an id, sampled or not; the ring numbers what it holds.
	for i, rec := range recs {
		if want := uint64(8 - 4*i); rec.QueryID != want+1 || rec.Seq != uint64(3-i) {
			t.Fatalf("record %d: query_id %d seq %d, want %d and %d", i, rec.QueryID, rec.Seq, want+1, 3-i)
		}
	}
}

func TestTracerRecordLifecycle(t *testing.T) {
	tr := NewTracer(NewRegistry(), 1, 16)
	qt := begin(tr, "SELECT v FROM T")
	if qt == nil {
		t.Fatal("every=1 must sample every query")
	}
	g := GuardEvent{
		Query: 1, Region: 1, Chosen: 0, Bound: 5 * time.Second,
		GuardTime: 10 * time.Microsecond,
		Staleness: 3 * time.Second, StalenessKnown: true,
		Degraded: true, BlockWaits: 2,
	}
	qt.Guard(g)
	qt.Retries(3)
	qt.Finish(false)

	recs := tr.Recent()
	if len(recs) != 1 {
		t.Fatalf("ring has %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.SQL != "SELECT v FROM T" || rec.SQLHash != HashSQL(rec.SQL) {
		t.Fatalf("sql/hash mismatch: %+v", rec)
	}
	if len(rec.Guards) != 1 || rec.Guards[0] != g || !rec.Degraded {
		t.Fatalf("guard wrong: %+v", rec)
	}
	if rec.Retries != 3 || rec.Failed || rec.Trace != nil {
		t.Fatalf("retries/failed/trace wrong: %+v", rec)
	}
	if got, ok := tr.Record(rec.QueryID); !ok || got.Seq != rec.Seq || got.SQL != rec.SQL {
		t.Fatalf("Record(%d) = %+v, %v", rec.QueryID, got, ok)
	}
	if _, ok := tr.Record(rec.QueryID + 1); ok {
		t.Fatal("Record found a query that was never traced")
	}
}

// TestAnalyzedQueryIsAlwaysSampled: an EXPLAIN ANALYZE query is sampled off
// the 1-in-N slots too, keeps a copy of its tree, and moves no other query's
// sampling.
func TestAnalyzedQueryIsAlwaysSampled(t *testing.T) {
	tr := NewTracer(NewRegistry(), 4, 16)
	var store QueryTrace
	var sampled []uint64
	for i := 0; i < 9; i++ {
		id, qt := tr.Begin("SELECT v FROM T", i == 2, &store)
		if qt != nil {
			sampled = append(sampled, id)
		}
		if i == 2 {
			qt.Trace(&TraceNode{Name: "Scan(T)", Opens: 1, Rows: 2})
		}
		qt.Finish(false)
	}
	if want := []uint64{1, 3, 5, 9}; !slices.Equal(sampled, want) {
		t.Fatalf("sampled %v, want %v", sampled, want)
	}
	rec, ok := tr.Record(3)
	if !ok || rec.Trace == nil || rec.Trace.Name != "Scan(T)" || rec.Trace.Rows != 2 {
		t.Fatalf("analyzed record = %+v, %v", rec, ok)
	}
	if rec, _ := tr.Record(5); rec.Trace != nil {
		t.Fatalf("the query after it inherited its trace: %+v", rec.Trace)
	}
}

// TestTracerNilSafety: a nil tracer and the nil (unsampled) trace must both
// swallow every call — the call sites thread them unconditionally.
func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	if id, qt := tr.Begin("x", true, new(QueryTrace)); id != 0 || qt != nil {
		t.Fatal("nil tracer must not sample")
	}
	tr.Event(EventRemoteRetry)
	var qt *QueryTrace
	qt.Guard(GuardEvent{})
	qt.Retries(1)
	qt.Trace(&TraceNode{})
	qt.MarkDegraded()
	qt.Finish(true)
}

func TestTracerEvents(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 8, 16)
	tr.Event(EventRemoteRetry)
	tr.Event(EventRemoteRetry)
	tr.Event(EventBreakerOpen)
	snap := reg.Snapshot()
	if got := snap.Counters[`span_events_total{kind="remote_retry"}`]; got != 2 {
		t.Fatalf("remote_retry events = %d, want 2", got)
	}
	if got := snap.Counters[`span_events_total{kind="breaker_open"}`]; got != 1 {
		t.Fatalf("breaker_open events = %d, want 1", got)
	}
}

// TestUntracedHotPathZeroAlloc is the acceptance-criteria assertion: the
// unsampled Begin path and the ledger's fold of a guard decision allocate
// nothing.
func TestUntracedHotPathZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 1<<30, 16)
	var store QueryTrace
	tr.Begin("warm", false, &store) // consume the always-sampled first slot
	ledger := NewRegionLedger(reg, time.Time{})
	obsv := GuardEvent{Region: 1, Chosen: 0, Bound: time.Second,
		Staleness: time.Millisecond, StalenessKnown: true}
	ledger.Observe(obsv) // make the region's record once
	if allocs := testing.AllocsPerRun(1000, func() {
		if id, qt := tr.Begin("SELECT v FROM T WHERE id = 1", false, &store); id == 0 || qt != nil {
			t.Fatal("sampling period overflowed")
		}
		ledger.Observe(obsv)
		tr.Event(EventReplApply)
	}); allocs != 0 {
		t.Fatalf("untraced hot path allocated %.1f allocs/op; want 0", allocs)
	}
}

// TestRecordKeepsEveryGuard: a statement with two guards (the paper's Q5)
// records both decisions, in order, as the events the guards published; a
// degraded first guard marks the record degraded although the second one is
// not.
func TestRecordKeepsEveryGuard(t *testing.T) {
	tr := NewTracer(NewRegistry(), 1, 16)
	qt := begin(tr, "SELECT two guards")
	first := GuardEvent{Query: 1, Label: "g1", Region: 1, Chosen: 0, Bound: 5 * time.Second,
		GuardTime: 10 * time.Microsecond, Staleness: 3 * time.Second, StalenessKnown: true, BlockWaits: 1, Degraded: true}
	second := GuardEvent{Query: 1, Label: "g2", Region: 2, Chosen: 1, GuardTime: 4 * time.Microsecond}
	qt.Guard(first)
	qt.Guard(second)
	qt.Finish(false)
	rec := tr.Recent()[0]
	if len(rec.Guards) != 2 || rec.Guards[0] != first || rec.Guards[1] != second {
		t.Fatalf("guards = %+v", rec.Guards)
	}
	if !rec.Degraded {
		t.Fatalf("a degraded guard left the record undegraded: %+v", rec)
	}
	// A reused trace starts clean: the published record keeps its guards.
	_, qt = tr.Begin("SELECT none", false, qt)
	qt.Finish(false)
	recs := tr.Recent()
	if len(recs[0].Guards) != 0 || recs[0].Guards == nil || recs[0].Degraded || len(recs[1].Guards) != 2 {
		t.Fatalf("reuse leaked guards: %+v / %+v", recs[0], recs[1].Guards)
	}
}

// TestQueryRingNewestFirstAndEviction: the tracer's record ring keeps the
// most recent records; Recent reads them newest first, each with the ring's
// publish sequence and its query's id.
func TestQueryRingNewestFirstAndEviction(t *testing.T) {
	tr := NewTracer(NewRegistry(), 2, 16)
	for i := 0; i < 80; i++ {
		qt := begin(tr, "SELECT 1")
		qt.Retries(int64(i))
		qt.Finish(false)
	}
	recs := tr.Recent()
	if len(recs) != 16 {
		t.Fatalf("ring holds %d records, want 16", len(recs))
	}
	for i, rec := range recs {
		// Every other query is sampled: the k-th record is query 2k-1.
		if want := uint64(40 - i); rec.Seq != want || rec.QueryID != 2*want-1 || rec.Retries != int64(2*want-2) {
			t.Fatalf("record %d: seq %d query %d retries %d, want seq %d query %d", i, rec.Seq, rec.QueryID, rec.Retries, want, 2*want-1)
		}
	}
}

// TestQueryRingConcurrent runs four writers, each reusing one QueryTrace for
// all its queries the way a session's query context does, against a reader of
// Recent. Under -race this pins that a published record shares nothing with
// the storage it was built in: its guards are its own query's, all of them.
func TestQueryRingConcurrent(t *testing.T) {
	tr := NewTracer(NewRegistry(), 1, 64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var store QueryTrace
			for i := 0; i < 2000; i++ {
				id, qt := tr.Begin("SELECT v FROM T", false, &store)
				for g := uint64(0); g <= id%3; g++ {
					qt.Guard(GuardEvent{Query: id, Region: int(g)})
				}
				qt.Finish(false)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		for _, rec := range tr.Recent() {
			if len(rec.Guards) != int(rec.QueryID%3)+1 {
				t.Fatalf("query %d published %d guards", rec.QueryID, len(rec.Guards))
			}
			for g, ev := range rec.Guards {
				if ev.Query != rec.QueryID || ev.Region != g {
					t.Fatalf("query %d carries the guard %+v", rec.QueryID, ev)
				}
			}
		}
	}
	if got := len(tr.Recent()); got != 64 {
		t.Fatalf("ring holds %d records after 8000 queries, want 64", got)
	}
}
