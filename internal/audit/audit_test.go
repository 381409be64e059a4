package audit

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relaxedcc/internal/obs"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/txn"
)

var t0 = time.Date(2004, 6, 13, 0, 0, 0, 0, time.UTC)

func newTestAuditor() *Auditor { return New(obs.NewRegistry(), txn.NewLog()) }

// commit appends one single-table commit at t0+at to the auditor's log,
// which must number it seq.
func commit(a *Auditor, seq int64, at time.Duration, table string) {
	appendAs(a, seq, at, txn.Change{Table: table, New: sqltypes.Row{sqltypes.NewInt(1)}})
}

// appendAs appends one commit of the given changes at t0+at to the
// auditor's log, which must number it seq.
func appendAs(a *Auditor, seq int64, at time.Duration, changes ...txn.Change) {
	if ts := a.log.Append(t0.Add(at), changes); ts.Seq != seq {
		panic(fmt.Sprintf("log numbered the commit %d, want %d", ts.Seq, seq))
	}
}

// queryIDs numbers the test's queries the way the cache's tracer does.
var queryIDs atomic.Uint64

// guardEvent builds a local-branch decision of a query of its own.
func guardEvent(label string, region int, bound time.Duration) obs.GuardEvent {
	return obs.GuardEvent{Query: queryIDs.Add(1), Label: label, Region: region, Bound: bound}
}

// read builds a guard-approved local serve of region 1's copy of T, the one
// guard of its query.
func read(bound, serveAt time.Duration, syncSeq int64) ReadEvent {
	return ReadEvent{
		GuardEvent: guardEvent("Guard(t_prj|Remote(T))", 1, bound),
		SyncSeq:    syncSeq,
		ServeTSNS:  t0.Add(serveAt).UnixNano(),
	}
}

func TestCheckerClassifiesOKAndViolation(t *testing.T) {
	a := newTestAuditor()
	a.RegisterObject(1, "T", 0)
	commit(a, 1, 0, "T")
	commit(a, 2, 10*time.Second, "T")

	// Synced through seq 1, served at +12s: stale since the seq-2 commit at
	// +10s, delivered staleness 2s. Within a 5s bound: OK.
	a.Reads([]ReadEvent{read(5*time.Second, 12*time.Second, 1)})
	s := a.Summary()
	if s.ReadsChecked != 1 || s.OK != 1 || s.ViolationsTotal != 0 {
		t.Fatalf("ok serve: %+v", s.Tally)
	}

	// Same sync point at +30s: delivered 20s against a 5s bound — violation
	// with the full evidence chain.
	a.Reads([]ReadEvent{read(5*time.Second, 30*time.Second, 1)})
	s = a.Summary()
	if s.CurrencyViolations != 1 || len(s.RecentViolations) != 1 {
		t.Fatalf("violation not recorded: %+v", s.Tally)
	}
	v := s.RecentViolations[0]
	if v.Class != ClassViolationCurrency || v.Object != "T" || v.Region != 1 {
		t.Fatalf("evidence = %+v", v)
	}
	if v.BoundNS != int64(5*time.Second) || v.DeliveredNS != int64(20*time.Second) ||
		v.ExcessNS != int64(15*time.Second) {
		t.Fatalf("bound/delivered/excess = %d/%d/%d", v.BoundNS, v.DeliveredNS, v.ExcessNS)
	}
	if v.StaleSeq != 2 || v.SyncSeq != 1 {
		t.Fatalf("stale/sync seq = %d/%d", v.StaleSeq, v.SyncSeq)
	}
	// The region's replication lag: seq 2, the oldest commit it had not
	// applied, committed 20s before the serve.
	if v.ReplLagNS != int64(20*time.Second) {
		t.Fatalf("repl lag = %v", time.Duration(v.ReplLagNS))
	}

	// A DELETE is a change too: synced through seq 2, served at +50s, the
	// copy went stale at the delete-only seq-3 commit at +40s.
	appendAs(a, 3, 40*time.Second, txn.Change{Table: "T", Old: sqltypes.Row{sqltypes.NewInt(1)}})
	a.Reads([]ReadEvent{read(5*time.Second, 50*time.Second, 2)})
	s = a.Summary()
	if s.CurrencyViolations != 2 || len(s.RecentViolations) != 2 {
		t.Fatalf("delete-only commit did not make the copy stale: %+v", s.Tally)
	}
	if v := s.RecentViolations[1]; v.StaleSeq != 3 || v.DeliveredNS != int64(10*time.Second) {
		t.Fatalf("delete evidence: stale seq %d, delivered %v", v.StaleSeq, time.Duration(v.DeliveredNS))
	}

	// A commit of another table is not a stale point but counts for lag:
	// synced through seq 3, served at +70s, the seq-4 commit of U at +55s is
	// the oldest unapplied one and the seq-5 commit of T at +60s the stale
	// point.
	commit(a, 4, 55*time.Second, "U")
	commit(a, 5, 60*time.Second, "T")
	a.Reads([]ReadEvent{read(5*time.Second, 70*time.Second, 3)})
	s = a.Summary()
	if v := s.RecentViolations[2]; v.StaleSeq != 5 || v.DeliveredNS != int64(10*time.Second) ||
		v.ReplLagNS != int64(15*time.Second) {
		t.Fatalf("evidence past another table's commit: stale seq %d, delivered %v, lag %v",
			v.StaleSeq, time.Duration(v.DeliveredNS), time.Duration(v.ReplLagNS))
	}
}

func TestCheckerDisclosedUnboundedRemote(t *testing.T) {
	a := newTestAuditor()
	a.RegisterObject(1, "T", 0)
	commit(a, 1, 0, "T")
	commit(a, 2, 10*time.Second, "T")

	degraded := read(time.Second, 30*time.Second, 1)
	degraded.Degraded = true
	stale := ReadEvent{ServedStale: true, ServeTSNS: t0.Add(30 * time.Second).UnixNano()}
	unbounded := read(0, 30*time.Second, 1)
	remote := read(time.Second, 30*time.Second, 1)
	remote.Chosen = 1
	// A local serve of a region that registered no object has no copy to
	// find a stale point for.
	unregistered := read(time.Second, 30*time.Second, 1)
	unregistered.Region = 2
	a.Reads([]ReadEvent{degraded, stale, unbounded, remote, unregistered})

	s := a.Summary()
	if s.ReadsChecked != 5 {
		t.Fatalf("checked = %d", s.ReadsChecked)
	}
	// Broken promises that were disclosed to the client are not violations;
	// remote serves read the master and are OK regardless of replication.
	if s.Disclosed != 2 || s.Unbounded != 1 || s.OK != 1 || s.Unchecked != 1 || s.ViolationsTotal != 0 {
		t.Fatalf("tally = %+v", s.Tally)
	}
}

func TestCheckerBaseSeqOverridesAgentSeq(t *testing.T) {
	a := newTestAuditor()
	// The view's snapshot was taken at seq 2 even though the agent's applied
	// sequence still reads 0 — the effective sync point is the snapshot.
	a.RegisterObject(1, "T", 2)
	commit(a, 1, 0, "T")
	commit(a, 2, 10*time.Second, "T")
	a.Reads([]ReadEvent{read(5*time.Second, 30*time.Second, 0)})
	if s := a.Summary(); s.OK != 1 || s.ViolationsTotal != 0 {
		t.Fatalf("snapshot-synced copy flagged: %+v", s.Tally)
	}
	// Re-registration keeps the most conservative (smallest) snapshot.
	a.RegisterObject(1, "T", 5)
	a.mu.Lock()
	objs := a.chk.objects[1]
	a.mu.Unlock()
	if len(objs) != 1 || objs[0].baseSeq != 2 {
		t.Fatalf("re-registration left %+v, want T at its snapshot 2", objs)
	}
}

func TestThetaConsistencyCheck(t *testing.T) {
	// Honest multi-region serves never trip the Θ check: distance(A,B) is at
	// most the older copy's delivered currency, which the per-read check
	// already bounded. Assert that soundness end to end first.
	a := newTestAuditor()
	a.RegisterObject(1, "T", 0)
	a.RegisterObject(2, "U", 0)
	commit(a, 1, 0, "T")
	commit(a, 2, 0, "U")
	commit(a, 3, 10*time.Second, "U")
	commit(a, 4, 40*time.Second, "T")
	evT := read(5*time.Second, 41*time.Second, 4)
	evU := ReadEvent{
		GuardEvent: guardEvent("Guard(u_prj|Remote(U))", 2, 40*time.Second),
		SyncSeq:    2,
		ServeTSNS:  t0.Add(41 * time.Second).UnixNano(),
	}
	evU.Query = evT.Query
	a.Reads([]ReadEvent{evT, evU})
	if s := a.Summary(); s.ViolationsTotal != 0 || s.OK != 2 {
		t.Fatalf("honest multi-region pair: %+v", s.Tally)
	}

	// The check itself (the safety net the soundness argument says honest
	// runs never need): a pair whose Θ-bound exceeds every declared bound.
	// distance(T@4, U@2) = currency(U, H_4) = time(4) - time(3) = 30s.
	c := newChecker()
	c.registerObject(1, "T", 0)
	c.registerObject(2, "U", 0)
	locals := []localServe{
		{ev: ReadEvent{GuardEvent: obs.GuardEvent{Query: 9, Region: 1, Bound: 5 * time.Second},
			SyncSeq: 4, ServeTSNS: t0.Add(41 * time.Second).UnixNano()}, asOf: 4},
		{ev: ReadEvent{GuardEvent: obs.GuardEvent{Query: 9, Region: 2, Bound: 5 * time.Second},
			SyncSeq: 2, ServeTSNS: t0.Add(41 * time.Second).UnixNano()}, asOf: 4},
	}
	recs := c.load(a.log)
	v, bad := c.thetaLocked(recs, 9, locals)
	if !bad {
		t.Fatal("Θ excess not flagged")
	}
	if v.Class != ClassViolationConsistency || v.Object != "T,U" {
		t.Fatalf("evidence = %+v", v)
	}
	if v.DeliveredNS != int64(30*time.Second) || v.BoundNS != int64(5*time.Second) ||
		v.ExcessNS != int64(25*time.Second) {
		t.Fatalf("Θ/bound/excess = %d/%d/%d", v.DeliveredNS, v.BoundNS, v.ExcessNS)
	}

	// Single-region sets are mutually consistent by construction.
	if _, bad = c.thetaLocked(recs, 9, []localServe{locals[0], locals[0]}); bad {
		t.Fatal("single-region set flagged")
	}
}

// TestOneRegionQueryChecksWithoutAllocating: a two-guard query whose local
// reads share one region needs no Θ check (one agent serves both), so its
// check returns before building the copy set, and recording and folding it
// allocate nothing.
func TestOneRegionQueryChecksWithoutAllocating(t *testing.T) {
	a := newTestAuditor()
	a.RegisterObject(1, "T", 0)
	a.RegisterObject(1, "U", 0)
	commit(a, 1, 0, "T")
	commit(a, 2, time.Second, "U")
	q := []ReadEvent{read(time.Minute, 2*time.Second, 1), read(time.Minute, 2*time.Second, 1)}
	a.Summary() // the fold's buffers grow once
	locals := []localServe{{ev: q[0], asOf: 2}, {ev: q[1], asOf: 2}}
	recs := a.log.Since(0)
	if n := testing.AllocsPerRun(100, func() {
		if _, bad := a.chk.thetaLocked(recs, 1, locals); bad {
			t.Fatal("one-region query flagged")
		}
	}); n != 0 {
		t.Fatalf("Θ check of a one-region query allocates %.0f", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		q[0].Query = queryIDs.Add(1)
		q[1].Query = q[0].Query
		a.Reads(q)
		a.Check()
	}); n != 0 {
		t.Fatalf("recording and checking a one-region query allocates %.0f", n)
	}
	if s := a.Summary(); s.ReadsChecked != 202 || s.OK != 202 || s.ViolationsTotal != 0 {
		t.Fatalf("tally = %+v", s.Tally)
	}
}

// TestRingOverflowCountsDrops: a full event ring overwrites its oldest entry,
// and the auditor says so — in the summary, in audit_events_dropped_total and
// by no longer finding the overwritten query's reads — while the online
// ledger stays complete.
func TestRingOverflowCountsDrops(t *testing.T) {
	reg := obs.NewRegistry()
	a := New(reg, txn.NewLog())
	a.reads = obs.NewRing[ReadEvent](16)
	a.RegisterObject(1, "T", 0)
	commit(a, 1, 0, "T")
	var first, last uint64
	for i := 0; i < 20; i++ {
		ev := read(5*time.Second, time.Second, 1)
		if i == 0 {
			first = ev.Query
		}
		last = ev.Query
		a.Reads([]ReadEvent{ev})
	}
	s := a.Summary()
	if s.ReadsChecked != 20 || s.DroppedReads != 4 {
		t.Fatalf("checked/dropped = %d/%d", s.ReadsChecked, s.DroppedReads)
	}
	if got := reg.Snapshot().Counters[`audit_events_dropped_total{kind="read"}`]; got != 4 {
		t.Fatalf("audit_events_dropped_total{kind=read} = %d, want 4", got)
	}
	if len(a.ReadsOf(first)) != 0 || len(a.ReadsOf(last)) != 1 {
		t.Fatalf("ring kept the oldest read (%d) or lost the newest (%d)", len(a.ReadsOf(first)), len(a.ReadsOf(last)))
	}
}

// TestReadsOfDropsACutGroup: a query whose group of events the ring has
// overwritten only the head of is not found — neither by ReadsOf nor by
// Explain, which would otherwise judge the tail alone — while a whole group
// is, before and after the overflow.
func TestReadsOfDropsACutGroup(t *testing.T) {
	a := New(obs.NewRegistry(), txn.NewLog())
	a.reads = obs.NewRing[ReadEvent](4)
	a.RegisterObject(1, "T", 0)
	commit(a, 1, 0, "T")
	first, second := read(5*time.Second, time.Second, 1), read(5*time.Second, time.Second, 1)
	second.Query = first.Query
	a.Reads([]ReadEvent{first, second})
	if got := a.ReadsOf(first.Query); len(got) != 2 {
		t.Fatalf("a whole group in a ring that dropped nothing: %d events", len(got))
	}
	var last uint64
	for i := 0; i < 3; i++ {
		ev := read(5*time.Second, time.Second, 1)
		last = ev.Query
		a.Reads([]ReadEvent{ev})
	}
	if got := a.ReadsOf(first.Query); got != nil {
		t.Fatalf("the group's head was overwritten, yet ReadsOf found %+v", got)
	}
	if reads, ring := a.Explain(first.Query); reads != nil || ring != 4 {
		t.Fatalf("Explain of a cut group = %+v, ring %d", reads, ring)
	}
	if got := a.ReadsOf(last); len(got) != 1 {
		t.Fatalf("the newest group: %d events", len(got))
	}
	if reads, _ := a.Explain(last); reads.(QueryAudit).Audit.ReadsChecked != 1 {
		t.Fatalf("Explain of the newest group = %+v", reads)
	}
}

func TestReplayMatchesOnline(t *testing.T) {
	a := newTestAuditor()
	a.RegisterObject(1, "T", 0)
	commit(a, 1, 0, "T")
	for i := int64(2); i <= 30; i++ {
		commit(a, i, time.Duration(i)*time.Second, "T")
		sync := i - 3
		if sync < 1 {
			sync = 1
		}
		// Mix of outcomes: some within bound, some violations, one degraded.
		ev := read(4*time.Second, time.Duration(i)*time.Second+500*time.Millisecond, sync)
		if i%7 == 0 {
			ev.Degraded = true
		}
		if i%5 == 0 {
			ev.Bound = 500 * time.Millisecond
		}
		a.Reads([]ReadEvent{ev})
	}
	online := a.Summary()
	if online.ViolationsTotal == 0 || online.OK == 0 || online.Disclosed == 0 {
		t.Fatalf("workload not mixed: %+v", online.Tally)
	}
	if online.DroppedReads != 0 {
		t.Fatalf("unexpected drops: %+v", online)
	}
	replay := a.Replay()
	if replay.Tally != online.Tally {
		t.Fatalf("replay tally %+v != online %+v", replay.Tally, online.Tally)
	}
	if !slices.Equal(replay.RecentViolations, online.RecentViolations) {
		t.Fatalf("replay violations %+v, online %+v", replay.RecentViolations, online.RecentViolations)
	}
}

// TestConcurrentRecordingConservesCounts hammers the auditor from concurrent
// recorders while snapshots run, then checks conservation: every recorded
// read is classified exactly once and the classes sum to the total.
func TestConcurrentRecordingConservesCounts(t *testing.T) {
	a := newTestAuditor()
	a.reads = obs.NewRing[ReadEvent](128)
	a.RegisterObject(1, "T", 0)
	const writers, per = 4, 200
	var wg sync.WaitGroup
	// Commits are appended under one lock so their times rise with their
	// sequence numbers, which the checker's search by commit time assumes.
	var seq int64
	var seqMu sync.Mutex
	nextSeq := func() int64 {
		seqMu.Lock()
		defer seqMu.Unlock()
		seq++
		commit(a, seq, time.Duration(seq)*time.Millisecond, "T")
		return seq
	}
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				// Every read classifies as exactly one of these five; consistency
				// violations are query-level extras, not per-read classes.
				s := a.Summary()
				if got := s.OK + s.CurrencyViolations +
					s.Disclosed + s.Unbounded + s.Unchecked; got != s.ReadsChecked {
					t.Errorf("mid-run conservation: classes sum %d, checked %d", got, s.ReadsChecked)
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n := nextSeq()
				ev := read(time.Duration(w+1)*time.Millisecond,
					time.Duration(n)*time.Millisecond, n-1)
				a.Reads([]ReadEvent{ev})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snaps.Wait()

	s := a.Summary()
	if s.ReadsChecked != writers*per {
		t.Fatalf("checked %d of %d", s.ReadsChecked, writers*per)
	}
	if got := s.OK + s.CurrencyViolations +
		s.Disclosed + s.Unbounded + s.Unchecked; got != s.ReadsChecked {
		t.Fatalf("classes sum %d, checked %d", got, s.ReadsChecked)
	}
	// Ring accounting conserves too: pushed = retained capacity + dropped.
	if s.DroppedReads != uint64(writers*per)-uint64(len(a.reads.Snapshot())) {
		t.Fatalf("read drops = %d", s.DroppedReads)
	}
}

// BenchmarkReadAndCheck times what the auditor costs a guarded local point
// read: recording its one event and, amortized, the fold that checks it
// against a log whose last commits the region has not applied.
func BenchmarkReadAndCheck(b *testing.B) {
	a := newTestAuditor()
	a.RegisterObject(1, "T", 0)
	a.RegisterObject(1, "U", 0)
	commit(a, 1, 0, "T")
	for i := int64(2); i <= 20; i++ {
		commit(a, i, time.Duration(i)*time.Second, "HB")
	}
	evs := []ReadEvent{read(time.Minute, 30*time.Second, 1)}
	b.ReportAllocs()
	for b.Loop() {
		evs[0].Query++
		a.Reads(evs)
	}
	if s := a.Summary(); s.OK != s.ReadsChecked {
		b.Fatalf("tally = %+v", s.Tally)
	}
}

// BenchmarkReadAndCheckLongLog is BenchmarkReadAndCheck on a log of 20,000
// commits, every other one to T, with the read's copy 3,000 commits behind —
// the order of read_write's log and lag: a per-read cost that grows with the
// log or the lag shows here and not on the short log.
func BenchmarkReadAndCheckLongLog(b *testing.B) {
	a := newTestAuditor()
	a.RegisterObject(1, "T", 0)
	a.RegisterObject(1, "U", 0)
	const n = 20000
	for i := int64(1); i <= n; i++ {
		commit(a, i, time.Duration(i)*time.Millisecond, []string{"T", "HB"}[i%2])
	}
	evs := []ReadEvent{read(time.Hour, (n+1)*time.Millisecond, n-3000)}
	b.ReportAllocs()
	for b.Loop() {
		evs[0].Query++
		a.Reads(evs)
	}
	if s := a.Summary(); s.OK != s.ReadsChecked {
		b.Fatalf("tally = %+v", s.Tally)
	}
}
