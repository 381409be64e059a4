package audit

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relaxedcc/internal/obs"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/txn"
)

var t0 = time.Date(2004, 6, 13, 0, 0, 0, 0, time.UTC)

func newTestAuditor() *Auditor { return New(obs.NewRegistry()) }

// commit appends one single-table commit at t0+at.
func commit(a *Auditor, seq int64, at time.Duration, table string) {
	a.ObserveCommit(txn.CommitRecord{
		TS:      txn.Timestamp{Seq: seq, At: t0.Add(at)},
		Changes: []txn.Change{{Table: table, New: sqltypes.Row{sqltypes.NewInt(1)}}},
	})
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
	a.ObserveApply(1, 1, t0.Add(2*time.Second))

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
	if v.ReplLagNS != int64(28*time.Second) {
		t.Fatalf("repl lag = %v", time.Duration(v.ReplLagNS))
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
	a.Reads([]ReadEvent{degraded, stale, unbounded, remote})

	s := a.Summary()
	if s.ReadsChecked != 4 {
		t.Fatalf("checked = %d", s.ReadsChecked)
	}
	// Broken promises that were disclosed to the client are not violations;
	// remote serves read the master and are OK regardless of replication.
	if s.Disclosed != 2 || s.Unbounded != 1 || s.OK != 1 || s.ViolationsTotal != 0 {
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
	a.chk.mu.Lock()
	base := a.chk.objects[1]["T"]
	a.chk.mu.Unlock()
	if base != 2 {
		t.Fatalf("re-registration raised baseSeq to %d", base)
	}
}

func TestCheckerUncheckedOutsideRetainedWindow(t *testing.T) {
	a := newTestAuditor()
	a.chk.maxCommits = 16
	a.RegisterObject(1, "T", 0)
	// 40 commits with a 16-commit window: compaction leaves a window starting well
	// past seq 1.
	for i := 1; i <= 40; i++ {
		commit(a, int64(i), time.Duration(i)*time.Second, "T")
	}
	// A read synced at seq 1 needs history the checker compacted away.
	a.Reads([]ReadEvent{read(5*time.Second, 50*time.Second, 1)})
	s := a.Summary()
	if s.Unchecked != 1 || s.ViolationsTotal != 0 {
		t.Fatalf("pre-window read not unchecked: %+v", s.Tally)
	}
	// A read synced to the newest commit still checks fine.
	a.Reads([]ReadEvent{read(5*time.Second, 50*time.Second, 40)})
	if s := a.Summary(); s.OK != 1 {
		t.Fatalf("in-window read: %+v", s.Tally)
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
	c := a.chk
	c.mu.Lock()
	locals := []localServe{
		{ev: ReadEvent{GuardEvent: obs.GuardEvent{Query: 9, Region: 1, Bound: 5 * time.Second},
			SyncSeq: 4, ServeTSNS: t0.Add(41 * time.Second).UnixNano()}, asOf: 4},
		{ev: ReadEvent{GuardEvent: obs.GuardEvent{Query: 9, Region: 2, Bound: 5 * time.Second},
			SyncSeq: 2, ServeTSNS: t0.Add(41 * time.Second).UnixNano()}, asOf: 4},
	}
	v, bad := c.thetaLocked(9, locals)
	c.mu.Unlock()
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
	c.mu.Lock()
	_, bad = c.thetaLocked(9, []localServe{locals[0], locals[0]})
	c.mu.Unlock()
	if bad {
		t.Fatal("single-region set flagged")
	}
}

// TestRingOverflowCountsDrops: a full event ring overwrites its oldest entry,
// and the auditor says so — in the summary, in audit_events_dropped_total and
// by no longer finding the overwritten query's reads — while the online
// ledger stays complete.
func TestRingOverflowCountsDrops(t *testing.T) {
	reg := obs.NewRegistry()
	a := New(reg)
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
	if s.ReadsChecked != 20 || s.DroppedReads != 4 || s.DroppedCommits != 0 {
		t.Fatalf("checked/dropped = %d/%d (commits dropped %d)", s.ReadsChecked, s.DroppedReads, s.DroppedCommits)
	}
	if got := reg.Snapshot().Counters[`audit_events_dropped_total{kind="read"}`]; got != 4 {
		t.Fatalf("audit_events_dropped_total{kind=read} = %d, want 4", got)
	}
	if len(a.ReadsOf(first)) != 0 || len(a.ReadsOf(last)) != 1 {
		t.Fatalf("ring kept the oldest read (%d) or lost the newest (%d)", len(a.ReadsOf(first)), len(a.ReadsOf(last)))
	}
}

func TestReplayMatchesOnline(t *testing.T) {
	a := newTestAuditor()
	a.RegisterObject(1, "T", 0)
	commit(a, 1, 0, "T")
	a.ObserveApply(1, 1, t0.Add(time.Second))
	for i := int64(2); i <= 30; i++ {
		commit(a, i, time.Duration(i)*time.Second, "T")
		sync := i - 3
		if sync < 1 {
			sync = 1
		}
		a.ObserveApply(1, sync, t0.Add(time.Duration(i)*time.Second))
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
	if online.DroppedCommits+online.DroppedReads+online.DroppedApplies != 0 {
		t.Fatalf("unexpected drops: %+v", online)
	}
	replay := a.Replay()
	if replay.Tally != online.Tally {
		t.Fatalf("replay tally %+v != online %+v", replay.Tally, online.Tally)
	}
	if len(replay.RecentViolations) != len(online.RecentViolations) {
		t.Fatalf("replay recent %d != online %d",
			len(replay.RecentViolations), len(online.RecentViolations))
	}
	for i := range replay.RecentViolations {
		if replay.RecentViolations[i] != online.RecentViolations[i] {
			t.Fatalf("replay violation %d = %+v, online %+v",
				i, replay.RecentViolations[i], online.RecentViolations[i])
		}
	}
}

func TestSummaryNilSafe(t *testing.T) {
	var a *Auditor
	if a.Enabled() {
		t.Fatal("nil auditor enabled")
	}
	a.RegisterObject(1, "T", 0) // must not panic
	s := a.Summary()
	if s.Enabled || s.ReadsChecked != 0 || s.RecentViolations == nil {
		t.Fatalf("nil summary = %+v", s)
	}
}

// TestDisabledPathAllocatesNothing asserts the zero-overhead claim: a system
// without an auditor holds a nil one, whose every hook is one nil check and
// no allocation, so the instrumentation can stay wired into production
// builds.
func TestDisabledPathAllocatesNothing(t *testing.T) {
	var a *Auditor
	rec := txn.CommitRecord{TS: txn.Timestamp{Seq: 1, At: t0}}
	evs := []ReadEvent{read(time.Second, time.Second, 0)}
	if n := testing.AllocsPerRun(1000, func() {
		if a.Enabled() {
			t.Fatal("nil enabled")
		}
		a.ObserveCommit(rec)
		a.ObserveApply(1, 1, t0)
		a.Reads(evs)
	}); n != 0 {
		t.Fatalf("nil auditor hooks allocate %.1f allocs/op", n)
	}
}

// TestConcurrentRecordingConservesCounts hammers the auditor from concurrent
// recorders while snapshots run, then checks conservation: every recorded
// read is classified exactly once and the classes sum to the total.
func TestConcurrentRecordingConservesCounts(t *testing.T) {
	a := newTestAuditor()
	a.commits = obs.NewRing[CommitEvent](64)
	a.reads = obs.NewRing[ReadEvent](128)
	a.applies = obs.NewRing[ApplyEvent](64)
	a.RegisterObject(1, "T", 0)
	const writers, per = 4, 200
	var wg sync.WaitGroup
	var seq int64
	var seqMu sync.Mutex
	nextSeq := func() int64 {
		seqMu.Lock()
		defer seqMu.Unlock()
		seq++
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
				commit(a, n, time.Duration(n)*time.Millisecond, "T")
				a.ObserveApply(1, n, t0.Add(time.Duration(n)*time.Millisecond))
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
