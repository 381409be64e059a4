package mtcache

import (
	"time"

	"relaxedcc/internal/audit"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/obs"
	"relaxedcc/internal/remote"
	"relaxedcc/internal/storage"
)

// queryCtx is what a session needs per query and keeps between queries: the
// EvalContext with its guard hook bound once, the buffers that hook fills,
// and the storage of a sampled lifecycle trace. A query builds no closure
// and, beyond its result, allocates nothing here.
//
// A session parks its context in Session.slot and a query checks it out with
// an atomic swap, so two goroutines on one session never share one: the
// second finds the slot empty and allocates its own, and whichever finishes
// last leaves its context for the next query.
type queryCtx struct {
	s  *Session
	ev exec.EvalContext
	// qt is the query's lifecycle trace: &trace when the tracer sampled the
	// query, nil otherwise (every QueryTrace method is nil-safe).
	qt    *obs.QueryTrace
	trace obs.QueryTrace
	// decisions and reads collect one run's guard decisions and their audit
	// read events; reset by every run, and published (publish) for the run
	// that answered only.
	decisions []exec.GuardDecision
	reads     []audit.ReadEvent
	// qr is the result of the run in progress, which takes the local views
	// of its guards' decisions as they arrive (nil between runs); observed
	// and oldest are the newest and oldest snapshot times of the sources that
	// answered it so far: the session's timeline floor and the result's AsOf.
	qr               *QueryResult
	observed, oldest time.Time
}

// begin checks the session's query context out for one query: the tracer
// numbers the query (the id every guard event, trace record and audit verdict
// of it carries) and decides whether it is sampled.
func (s *Session) begin(sql string) *queryCtx {
	c := s.cache
	q := s.slot.Swap(nil)
	if q == nil {
		q = &queryCtx{s: s}
		q.ev = exec.EvalContext{
			Clock:       c.clock,
			Unavailable: remote.IsUnavailable,
			OnGuard:     q.guard,
			GuardRetry:  s.guardRetry, // consulted under DegradeBlock only
		}
	}
	q.ev.Query, q.qt = c.obs.tracer.Begin(sql, &q.trace)
	q.qt.Tenant(s.Tenant)
	return q
}

// end is the query's one exit: it publishes the sampled record, failed when
// the query returns an error, and parks the context for the next query.
func (q *queryCtx) end(err *error) {
	q.qt.Finish(*err != nil)
	q.s.slot.Store(q)
}

// guard takes one guard decision (EvalContext.OnGuard) of the run in
// progress: it is kept for publish, and wrapped at once in the read event the
// auditor gets, with what the cache adds at serve time: the serve time (now),
// the versions the local branch served (the commit sequence the judged state
// word names) and the heartbeat timestamp the guard trusted (the statement's
// Now minus the decision's staleness).
func (q *queryCtx) guard(g exec.GuardDecision) {
	q.decisions = append(q.decisions, g)
	q.reads = append(q.reads, audit.ReadEvent{GuardEvent: g.GuardEvent, SyncSeq: storage.Seq(g.Word), ServeTSNS: q.s.cache.clock.Now().UnixNano()})
	if g.StalenessKnown {
		q.reads[len(q.reads)-1].SyncTSNS = q.ev.Now.Add(-g.Staleness).UnixNano()
	}
}

// moved reports whether the state word of a region the run read locally has
// moved since its guard judged it: the run may have read across an apply.
func (q *queryCtx) moved() bool {
	for _, g := range q.decisions {
		if g.Chosen == 0 && g.State.Moved(g.Word) {
			return true
		}
	}
	return false
}

// publish delivers the decisions of the run that answered to every consumer
// of them, in a fixed order: the region ledger (guard metrics, SLO window,
// workload window, degraded reads, block waits) always; the lifecycle record
// when the query is sampled; the result's violations, when a violation action
// acted on the decision; and, for a guard that served locally, the result's
// local views and sources. The heartbeat a decision judged is the
// statement's Now minus the decision's staleness. (The auditor's read events
// are q.reads, handed over by run.)
func (q *queryCtx) publish() {
	l := q.s.cache.obs.ledger
	for _, g := range q.decisions {
		l.Observe(g.GuardEvent)
		q.qt.Guard(g.GuardEvent)
		if g.Degraded || g.BlockWaits > 0 {
			q.qr.Violations = append(q.qr.Violations, g)
			q.qr.Degraded = q.qr.Degraded || g.Degraded
		}
		if g.Chosen != 0 {
			continue
		}
		if q.qr.LocalViews == nil {
			q.qr.LocalViews = q.qr.views[:0]
		}
		q.qr.LocalViews = append(q.qr.LocalViews, g.Label)
		if g.StalenessKnown {
			q.note(q.ev.Now.Add(-g.Staleness))
		}
	}
}

// note counts ts as the snapshot time of a source that answered the run.
func (q *queryCtx) note(ts time.Time) {
	if ts.After(q.observed) {
		q.observed = ts
	}
	if q.oldest.IsZero() || ts.Before(q.oldest) {
		q.oldest = ts
	}
}
