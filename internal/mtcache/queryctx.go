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
// EvalContext with its guard and violation hooks bound once, the buffers
// those hooks fill, and the storage of a sampled lifecycle trace. A query
// builds no closure and, beyond its result, allocates nothing here.
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
	// aud is the auditor if it was enabled when the query began, else nil.
	aud *audit.Auditor
	// decisions, violations and reads collect what one run's guards,
	// degraded guards and audited guard decisions produced; reset by every
	// run, and published (publish) for the run that answered only.
	decisions  []obs.GuardEvent
	violations []exec.Violation
	reads      []audit.ReadEvent
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
			OnViolation: q.violation,
			GuardRetry:  s.guardRetry, // consulted under DegradeBlock only
		}
	}
	q.ev.Query, q.qt = c.obs.tracer.Begin(sql, &q.trace)
	q.qt.Tenant(s.Tenant)
	if q.aud = c.aud.Load(); !q.aud.Enabled() {
		q.aud = nil
	}
	return q
}

// end is the query's one exit: it publishes the sampled record, failed when
// the query returns an error, and parks the context for the next query.
func (q *queryCtx) end(err *error) {
	q.qt.Finish(*err != nil)
	q.s.slot.Store(q)
}

// guard takes one guard decision (EvalContext.OnGuard) of the run in
// progress: it is kept for publish, and when the auditor is enabled wrapped at
// once in the read event the auditor gets, which takes the serve time now.
func (q *queryCtx) guard(g obs.GuardEvent) {
	q.decisions = append(q.decisions, g)
	if q.aud != nil {
		q.reads = append(q.reads, q.s.cache.readEvent(g, q.ev.Now))
	}
}

// moved reports whether the state word of a region the run read locally has
// moved since its guard judged it: the run may have read across an apply.
func (q *queryCtx) moved() bool {
	for _, l := range q.ev.Locals {
		if l.Word.Moved(l.At) {
			return true
		}
	}
	return false
}

// publish delivers the decisions and degraded-mode events of the run that
// answered to every consumer of them, in a fixed order: the region ledger
// (guard metrics, SLO window, workload window, degraded reads, block waits)
// always; the lifecycle record when the query is sampled; and, for a guard
// that served locally, the result's local views and sources. The heartbeat a
// decision judged is the statement's Now minus the decision's staleness. (The
// auditor's read events are q.reads, handed over by run.)
func (q *queryCtx) publish() {
	l := q.s.cache.obs.ledger
	for _, g := range q.decisions {
		l.Observe(g)
		q.qt.Guard(g)
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
	for _, v := range q.violations {
		switch v.Action {
		case "serve-local":
			l.Degraded(v.Region)
		case "block":
			l.BlockWaits(v.Waits)
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

// violation records one degraded-mode event (EvalContext.OnViolation): a
// warning on the result and, once published, in the ledger a degraded read of
// its region (serve-local) or a blocking session's guard waits (block).
func (q *queryCtx) violation(v exec.Violation) { q.violations = append(q.violations, v) }

// readEvent wraps one guard decision, taken by a statement whose instant is
// now, in what the cache adds at serve time: the versions the local branch
// served (the commit sequence the judged state word names) and the heartbeat
// timestamp the guard trusted.
func (c *Cache) readEvent(g obs.GuardEvent, now time.Time) audit.ReadEvent {
	ev := audit.ReadEvent{GuardEvent: g, ServeTSNS: c.clock.Now().UnixNano(), SyncSeq: storage.Seq(g.Word)}
	if g.StalenessKnown {
		ev.SyncTSNS = now.Add(-g.Staleness).UnixNano()
	}
	return ev
}
