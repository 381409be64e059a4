package audit

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"relaxedcc/internal/obs"
	"relaxedcc/internal/txn"
)

// The auditor's bounded state, sized for a harness run: large enough that a
// chaos/shift/load sweep replays offline without drops, small enough to be
// always-on. The master history is not among it: the checker reads txn.Log.
const (
	// readRing and applyRing bound the recorded event rings. Overwritten
	// events count as dropped; they only limit offline replay, not the
	// online ledger, which folds every read before the ring can overwrite
	// it.
	readRing  = 16384
	applyRing = 2048
	// maxRecent bounds the retained violation evidence list.
	maxRecent = 32
)

// Auditor records the system's guard decisions and replication progress
// into bounded rings and checks every served read against the master commit
// log. Every cache has one. The read path only records: Reads pushes a
// query's events, and one fold checks every unchecked read — on Summary,
// ReadsOf and /metrics, and whenever the unchecked reads reach half the read
// ring, so none is overwritten unchecked. Replay is the same fold from the
// first retained event on a fresh checker.
//
// Metric names (registered on the cache's registry; see DESIGN.md
// "Delivered-guarantee auditing"), current as of the last fold:
//
//	audit_reads_checked_total        read events folded through the checker
//	audit_reads_ok_total             reads that kept their promise
//	audit_violations_total{class}    silent violations (currency, consistency)
//	audit_disclosed_total            broken-but-disclosed serves (degraded, stale)
//	audit_unbounded_total            reads with no finite bound to audit
//	audit_unchecked_total            local reads of a region with no registered object
//	audit_events_dropped_total{kind} ring overwrites (read, apply)
//	audit_excess_staleness_ns        histogram: delivered minus declared on violations
//	audit_slack_ns                   histogram: declared minus delivered on OK reads
type Auditor struct {
	log     *txn.Log
	reads   *obs.Ring[ReadEvent]
	applies *obs.Ring[ApplyEvent]

	// mu serializes the online folds and object registration; chk is the
	// online checker, and folded the read sequence it has taken for
	// checking, published for Reads' half-ring test.
	mu     sync.Mutex
	chk    *checker
	folded atomic.Uint64

	mChecked        *obs.Counter
	mOK             *obs.Counter
	mViolations     *obs.CounterVec
	mDisclosed      *obs.Counter
	mUnbounded      *obs.Counter
	mUnchecked      *obs.Counter
	mDroppedReads   *obs.Counter
	mDroppedApplies *obs.Counter
	mExcess         *obs.Histogram
	mSlack          *obs.Histogram
}

// New creates an auditor that checks reads against the master commit log
// and registers its instruments on reg.
func New(reg *obs.Registry, log *txn.Log) *Auditor {
	dropped := reg.CounterVec("audit_events_dropped_total", "kind")
	return &Auditor{
		log:             log,
		reads:           obs.NewRing[ReadEvent](readRing),
		applies:         obs.NewRing[ApplyEvent](applyRing),
		chk:             newChecker(),
		mChecked:        reg.Counter("audit_reads_checked_total"),
		mOK:             reg.Counter("audit_reads_ok_total"),
		mViolations:     reg.CounterVec("audit_violations_total", "class"),
		mDisclosed:      reg.Counter("audit_disclosed_total"),
		mUnbounded:      reg.Counter("audit_unbounded_total"),
		mUnchecked:      reg.Counter("audit_unchecked_total"),
		mDroppedReads:   dropped.With("read"),
		mDroppedApplies: dropped.With("apply"),
		mExcess:         reg.Histogram("audit_excess_staleness_ns"),
		mSlack:          reg.Histogram("audit_slack_ns"),
	}
}

// ObserveApply records one replication propagation step; matches the
// repl.Agent apply-sink signature.
func (a *Auditor) ObserveApply(region int, throughSeq int64, at time.Time) {
	a.applies.Push(ApplyEvent{Region: region, ThroughSeq: throughSeq, AtNS: at.UnixNano()})
}

// RegisterObject declares that a region serves the given base table from a
// snapshot taken at baseSeq (the replication subscription's start
// sequence). The cache calls it for every view it creates; reads recorded
// before are checked without the object.
func (a *Auditor) RegisterObject(region int, table string, baseSeq int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.foldLocked()
	a.chk.registerObject(region, table, baseSeq)
}

// Reads records one executed query's guard decisions, which all carry the
// query's id, as consecutive events; evs is copied, not kept. The caller that
// finds half the read ring unchecked folds it.
func (a *Auditor) Reads(evs []ReadEvent) {
	if len(evs) == 0 {
		return
	}
	if last := a.reads.Push(evs...); last-a.folded.Load() >= uint64(a.reads.Cap()/2) {
		a.Check()
	}
}

// Check folds every unchecked read into the online ledger and its metrics.
func (a *Auditor) Check() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.foldLocked()
}

// foldLocked runs the online fold and moves the audit_* series by what it
// checked and what the rings overwrote. Called with a.mu held.
func (a *Auditor) foldLocked() {
	was := a.chk.tally
	a.chk.take(a.reads, a.applies)
	a.folded.Store(a.chk.readSeq) // a push now tests against what this fold checks
	a.chk.check(a.log.Since(0))
	now := a.chk.tally
	a.mChecked.Add(now.ReadsChecked - was.ReadsChecked)
	a.mOK.Add(now.OK - was.OK)
	a.mDisclosed.Add(now.Disclosed - was.Disclosed)
	a.mUnbounded.Add(now.Unbounded - was.Unbounded)
	a.mUnchecked.Add(now.Unchecked - was.Unchecked)
	if n := now.CurrencyViolations - was.CurrencyViolations; n > 0 {
		a.mViolations.With(string(ClassViolationCurrency)).Add(n)
	}
	if n := now.ConsistencyViolations - was.ConsistencyViolations; n > 0 {
		a.mViolations.With(string(ClassViolationConsistency)).Add(n)
	}
	a.mSlack.Flush(&a.chk.slack)
	a.mExcess.Flush(&a.chk.excess)
	a.mDroppedReads.Add(int64(a.reads.Dropped()) - a.mDroppedReads.Value())
	a.mDroppedApplies.Add(int64(a.applies.Dropped()) - a.mDroppedApplies.Value())
}

// ReadsOf returns the recorded read events of one query, in guard order —
// the auditor's side of the join on the query id (empty once the ring has
// overwritten them) — after folding them into the ledger.
func (a *Auditor) ReadsOf(query uint64) []ReadEvent {
	a.Check()
	var out []ReadEvent
	a.reads.Each(func(_ uint64, ev ReadEvent) {
		if ev.Query == query {
			out = append(out, ev)
		}
	})
	return out
}

// Summary is the /audit payload: the classification ledger plus the most
// recent violations with full evidence.
type Summary struct {
	Tally
	ViolationsTotal  int64       `json:"violations_total"`
	RecentViolations []Violation `json:"recent_violations"`
	// Commits is the length of the master history the reads were checked
	// against. The rest is ring accounting: events recorded and
	// overwritten. Drops bound offline replay coverage; the online ledger
	// above is complete regardless.
	Commits        uint64 `json:"commits"`
	Applies        uint64 `json:"applies"`
	DroppedReads   uint64 `json:"dropped_reads"`
	DroppedApplies uint64 `json:"dropped_applies"`
}

// Summary folds every unchecked read and snapshots the auditor's ledger.
func (a *Auditor) Summary() Summary {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.foldLocked()
	s := a.ledger(a.chk, a.applies.Pushed())
	s.DroppedReads, s.DroppedApplies = a.reads.Dropped(), a.applies.Dropped()
	return s
}

// ledger renders a checker's tally and retained violations — the online
// checker's or a replay's — over the commit log and that many applies.
func (a *Auditor) ledger(chk *checker, applies uint64) Summary {
	return Summary{
		Tally:            chk.tally,
		ViolationsTotal:  chk.tally.Violations(),
		RecentViolations: append([]Violation{}, chk.recent...),
		Commits:          uint64(a.log.LastSeq()),
		Applies:          applies,
	}
}

// Replay re-checks the recorded reads offline: the online fold, from the
// first retained event, on a fresh checker with the online one's objects.
// When no events were dropped the replayed ledger must equal the online
// one — the exhaustive-verification mode for harness runs.
func (a *Auditor) Replay() Summary {
	chk := newChecker()
	a.mu.Lock()
	for region, objs := range a.chk.objects {
		chk.objects[region] = slices.Clone(objs)
	}
	a.mu.Unlock()
	chk.take(a.reads, a.applies)
	chk.check(a.log.Since(0))
	return a.ledger(chk, uint64(len(chk.applies)))
}
