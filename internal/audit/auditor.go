package audit

import (
	"sort"
	"time"

	"relaxedcc/internal/obs"
	"relaxedcc/internal/txn"
)

// The auditor's bounded state, sized for a harness run: large enough that a
// chaos/shift/load sweep replays offline without drops, small enough to be
// always-on.
const (
	// commitRing, readRing and applyRing bound the recorded event rings.
	// Overwritten events count as dropped; they only limit offline replay,
	// not the online checker.
	commitRing = 4096
	readRing   = 16384
	applyRing  = 2048
	// maxCommits bounds the online checker's retained history window; past
	// it the oldest half is compacted away and reads older than the window
	// classify as unchecked.
	maxCommits = 65536
	// maxRecent bounds the retained violation evidence list.
	maxRecent = 32
)

// Auditor records the system's C&C history into bounded rings and checks
// every served read against the formal semantics online. An installed
// auditor is on; every hook is nil-safe, so a system without one pays a nil
// check per hook and allocates nothing.
//
// Metric names (registered on the cache's registry; see DESIGN.md
// "Delivered-guarantee auditing"):
//
//	audit_reads_checked_total        read events folded through the checker
//	audit_reads_ok_total             reads that kept their promise
//	audit_violations_total{class}    silent violations (currency, consistency)
//	audit_disclosed_total            broken-but-disclosed serves (degraded, stale)
//	audit_unbounded_total            reads with no finite bound to audit
//	audit_unchecked_total            reads outside the retained history window
//	audit_events_dropped_total{kind} ring overwrites (commit, read, apply)
//	audit_excess_staleness_ns        histogram: delivered minus declared on violations
//	audit_slack_ns                   histogram: declared minus delivered on OK reads
type Auditor struct {
	commits *obs.Ring[CommitEvent]
	reads   *obs.Ring[ReadEvent]
	applies *obs.Ring[ApplyEvent]
	chk     *checker

	mChecked        *obs.Counter
	mOK             *obs.Counter
	mViolations     *obs.CounterVec
	mDisclosed      *obs.Counter
	mUnbounded      *obs.Counter
	mUnchecked      *obs.Counter
	mDroppedCommits *obs.Counter
	mDroppedReads   *obs.Counter
	mDroppedApplies *obs.Counter
	mExcess         *obs.Histogram
	mSlack          *obs.Histogram
}

// New creates an auditor and registers its instruments on reg.
func New(reg *obs.Registry) *Auditor {
	dropped := reg.CounterVec("audit_events_dropped_total", "kind")
	return &Auditor{
		commits:         obs.NewRing[CommitEvent](commitRing),
		reads:           obs.NewRing[ReadEvent](readRing),
		applies:         obs.NewRing[ApplyEvent](applyRing),
		chk:             newChecker(maxCommits, maxRecent),
		mChecked:        reg.Counter("audit_reads_checked_total"),
		mOK:             reg.Counter("audit_reads_ok_total"),
		mViolations:     reg.CounterVec("audit_violations_total", "class"),
		mDisclosed:      reg.Counter("audit_disclosed_total"),
		mUnbounded:      reg.Counter("audit_unbounded_total"),
		mUnchecked:      reg.Counter("audit_unchecked_total"),
		mDroppedCommits: dropped.With("commit"),
		mDroppedReads:   dropped.With("read"),
		mDroppedApplies: dropped.With("apply"),
		mExcess:         reg.Histogram("audit_excess_staleness_ns"),
		mSlack:          reg.Histogram("audit_slack_ns"),
	}
}

// Enabled reports whether an auditor is installed, i.e. a is not nil, so
// callers keep a plain field and one branch on the hot path.
func (a *Auditor) Enabled() bool { return a != nil }

// ObserveCommit records one committed master transaction. It is installed
// as the txn.Log observer and runs synchronously under the log's lock, so
// commit events arrive in sequence order.
func (a *Auditor) ObserveCommit(rec txn.CommitRecord) {
	if !a.Enabled() {
		return
	}
	ev := CommitEvent{Seq: rec.TS.Seq, AtNS: rec.TS.At.UnixNano(), Tables: commitTables(rec.Changes)}
	if a.commits.Push(ev) {
		a.mDroppedCommits.Inc()
	}
	a.chk.addCommit(ev)
}

// commitTables returns the distinct base tables a commit modified, in
// first-touch order.
func commitTables(changes []txn.Change) []string {
	var out []string
	for _, ch := range changes {
		seen := false
		for _, t := range out {
			if t == ch.Table {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, ch.Table)
		}
	}
	return out
}

// ObserveApply records one replication propagation step; matches the
// repl.Agent apply-sink signature.
func (a *Auditor) ObserveApply(region int, throughSeq int64, at time.Time) {
	if !a.Enabled() {
		return
	}
	ev := ApplyEvent{Region: region, ThroughSeq: throughSeq, AtNS: at.UnixNano()}
	if a.applies.Push(ev) {
		a.mDroppedApplies.Inc()
	}
	a.chk.noteApply(ev)
}

// RegisterObject declares that a region serves the given base table from a
// snapshot taken at baseSeq (the replication subscription's start
// sequence). Wiring layers call it for every subscribed view.
func (a *Auditor) RegisterObject(region int, table string, baseSeq int64) {
	if a == nil {
		return
	}
	a.chk.registerObject(region, table, baseSeq)
}

// Reads records and checks one executed query's guard decisions, which all
// carry the query's id: they are recorded, folded through the online checker,
// and the outcome counters updated. evs is read, not kept.
func (a *Auditor) Reads(evs []ReadEvent) {
	if !a.Enabled() || len(evs) == 0 {
		return
	}
	for _, ev := range evs {
		if a.reads.Push(ev) {
			a.mDroppedReads.Inc()
		}
	}
	outs, viols := a.chk.checkQuery(evs)
	for _, out := range outs {
		a.mChecked.Inc()
		switch out.class {
		case ClassOK:
			a.mOK.Inc()
			a.mSlack.Observe(out.slackNS)
		case ClassDisclosed:
			a.mDisclosed.Inc()
		case ClassUnbounded:
			a.mUnbounded.Inc()
		case ClassUnchecked:
			a.mUnchecked.Inc()
		}
	}
	for _, v := range viols {
		a.mViolations.With(string(v.Class)).Inc()
		a.mExcess.Observe(v.ExcessNS)
	}
}

// ReadsOf returns the recorded read events of one query, in guard order —
// the auditor's side of the join on the query id (empty once the ring has
// overwritten them).
func (a *Auditor) ReadsOf(query uint64) []ReadEvent {
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
	Enabled bool `json:"enabled"`
	Tally
	ViolationsTotal  int64       `json:"violations_total"`
	RecentViolations []Violation `json:"recent_violations"`
	// Ring accounting: events recorded and overwritten. Drops bound offline
	// replay coverage; the online ledger above is complete regardless.
	Commits        uint64 `json:"commits"`
	Applies        uint64 `json:"applies"`
	DroppedCommits uint64 `json:"dropped_commits"`
	DroppedReads   uint64 `json:"dropped_reads"`
	DroppedApplies uint64 `json:"dropped_applies"`
}

// Summary snapshots the auditor's ledger. Nil-safe (a zero summary with
// Enabled false), so the ops surface can always render something.
func (a *Auditor) Summary() Summary {
	if a == nil {
		return Summary{RecentViolations: []Violation{}}
	}
	s := a.ledger(a.chk, a.commits.Pushed(), a.applies.Pushed())
	s.DroppedCommits, s.DroppedReads, s.DroppedApplies = a.commits.Dropped(), a.reads.Dropped(), a.applies.Dropped()
	return s
}

// ledger renders a checker's tally and retained violations — the online
// checker's or a replay's — over a history of that many commits and applies.
func (a *Auditor) ledger(chk *checker, commits, applies uint64) Summary {
	tally, recent := chk.summary()
	if recent == nil {
		recent = []Violation{}
	}
	return Summary{
		Enabled:          true,
		Tally:            tally,
		ViolationsTotal:  tally.Violations(),
		RecentViolations: recent,
		Commits:          commits,
		Applies:          applies,
	}
}

// Replay re-checks the recorded history offline: a fresh checker folds the
// ring contents in virtual-time order (commits and applies before the reads
// they precede, reads grouped by query). When no events were dropped the
// replayed ledger must equal the online one — the exhaustive-verification
// mode for harness runs.
func (a *Auditor) Replay() Summary {
	chk := newChecker(a.chk.maxCommits, a.chk.maxRecent)
	a.chk.mu.Lock()
	for region, tables := range a.chk.objects {
		for table, baseSeq := range tables {
			// Direct map fill: registerObject would retake the fresh
			// checker's lock needlessly, and chk is still private here.
			m := chk.objects[region]
			if m == nil {
				m = map[string]int64{}
				chk.objects[region] = m
			}
			m[table] = baseSeq
		}
	}
	a.chk.mu.Unlock()

	commits := a.commits.Snapshot()
	applies := a.applies.Snapshot()
	reads := a.reads.Snapshot()

	// Group reads by query id, ordered by each group's latest serve time so
	// later applies land before the reads that observed them.
	groups := map[uint64][]ReadEvent{}
	for _, ev := range reads {
		groups[ev.Query] = append(groups[ev.Query], ev)
	}
	type step struct {
		atNS int64
		kind int // 0 commit, 1 apply, 2 read group — commits first on ties
		ci   int
		ai   int
		q    uint64
	}
	steps := make([]step, 0, len(commits)+len(applies)+len(groups))
	for i, ev := range commits {
		steps = append(steps, step{atNS: ev.AtNS, kind: 0, ci: i})
	}
	for i, ev := range applies {
		steps = append(steps, step{atNS: ev.AtNS, kind: 1, ai: i})
	}
	for q, evs := range groups {
		at := int64(0)
		for _, ev := range evs {
			if ev.ServeTSNS > at {
				at = ev.ServeTSNS
			}
		}
		steps = append(steps, step{atNS: at, kind: 2, q: q})
	}
	sort.Slice(steps, func(i, j int) bool {
		if steps[i].atNS != steps[j].atNS {
			return steps[i].atNS < steps[j].atNS
		}
		if steps[i].kind != steps[j].kind {
			return steps[i].kind < steps[j].kind
		}
		switch steps[i].kind {
		case 0:
			return commits[steps[i].ci].Seq < commits[steps[j].ci].Seq
		case 1:
			return applies[steps[i].ai].ThroughSeq < applies[steps[j].ai].ThroughSeq
		default:
			return steps[i].q < steps[j].q
		}
	})
	for _, st := range steps {
		switch st.kind {
		case 0:
			chk.addCommit(commits[st.ci])
		case 1:
			chk.noteApply(applies[st.ai])
		default:
			chk.checkQuery(groups[st.q])
		}
	}
	return a.ledger(chk, uint64(len(commits)), uint64(len(applies)))
}
