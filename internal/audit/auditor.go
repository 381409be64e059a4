package audit

import (
	"maps"
	"sort"
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
	// online checker.
	readRing  = 16384
	applyRing = 2048
	// maxRecent bounds the retained violation evidence list.
	maxRecent = 32
)

// Auditor records the system's guard decisions and replication progress
// into bounded rings and checks every served read online against the master
// commit log. An installed auditor is on; every hook is nil-safe, so a
// system without one pays a nil check per hook and allocates nothing.
//
// Metric names (registered on the cache's registry; see DESIGN.md
// "Delivered-guarantee auditing"):
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
	chk     *checker

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

// Enabled reports whether an auditor is installed, i.e. a is not nil, so
// callers keep a plain field and one branch on the hot path.
func (a *Auditor) Enabled() bool { return a != nil }

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
// carry the query's id: they are recorded, checked against the commit log as
// it stands, and the outcome counters updated. evs is read, not kept.
func (a *Auditor) Reads(evs []ReadEvent) {
	if !a.Enabled() || len(evs) == 0 {
		return
	}
	for _, ev := range evs {
		if a.reads.Push(ev) {
			a.mDroppedReads.Inc()
		}
	}
	outs, viols := a.chk.checkQuery(a.log.Since(0), evs)
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
	// Commits is the length of the master history the reads were checked
	// against. The rest is ring accounting: events recorded and
	// overwritten. Drops bound offline replay coverage; the online ledger
	// above is complete regardless.
	Commits        uint64 `json:"commits"`
	Applies        uint64 `json:"applies"`
	DroppedReads   uint64 `json:"dropped_reads"`
	DroppedApplies uint64 `json:"dropped_applies"`
}

// Summary snapshots the auditor's ledger. Nil-safe (a zero summary with
// Enabled false), so the ops surface can always render something.
func (a *Auditor) Summary() Summary {
	if a == nil {
		return Summary{RecentViolations: []Violation{}}
	}
	s := a.ledger(a.chk, a.applies.Pushed())
	s.DroppedReads, s.DroppedApplies = a.reads.Dropped(), a.applies.Dropped()
	return s
}

// ledger renders a checker's tally and retained violations — the online
// checker's or a replay's — over the commit log and that many applies.
func (a *Auditor) ledger(chk *checker, applies uint64) Summary {
	tally, recent := chk.summary()
	if recent == nil {
		recent = []Violation{}
	}
	return Summary{
		Enabled:          true,
		Tally:            tally,
		ViolationsTotal:  tally.Violations(),
		RecentViolations: recent,
		Commits:          uint64(a.log.LastSeq()),
		Applies:          applies,
	}
}

// Replay re-checks the recorded reads offline: a fresh checker folds the
// ring contents in virtual-time order (applies before the reads they
// precede, reads grouped by query) against the commit log. When no events
// were dropped the replayed ledger must equal the online one — the
// exhaustive-verification mode for harness runs.
func (a *Auditor) Replay() Summary {
	chk := newChecker()
	a.chk.mu.Lock()
	for region, tables := range a.chk.objects {
		chk.objects[region] = maps.Clone(tables)
	}
	a.chk.mu.Unlock()

	recs := a.log.Since(0)
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
		read bool // applies first on ties
		ai   int
		q    uint64
	}
	steps := make([]step, 0, len(applies)+len(groups))
	for i, ev := range applies {
		steps = append(steps, step{atNS: ev.AtNS, ai: i})
	}
	for q, evs := range groups {
		at := int64(0)
		for _, ev := range evs {
			at = max(at, ev.ServeTSNS)
		}
		steps = append(steps, step{atNS: at, read: true, q: q})
	}
	sort.Slice(steps, func(i, j int) bool {
		switch si, sj := steps[i], steps[j]; {
		case si.atNS != sj.atNS:
			return si.atNS < sj.atNS
		case si.read != sj.read:
			return !si.read
		case si.read:
			return si.q < sj.q
		default:
			return applies[si.ai].ThroughSeq < applies[sj.ai].ThroughSeq
		}
	})
	for _, st := range steps {
		if st.read {
			chk.checkQuery(recs, groups[st.q])
		} else {
			chk.noteApply(applies[st.ai])
		}
	}
	return a.ledger(chk, uint64(len(applies)))
}
