package mtcache

import (
	"relaxedcc/internal/audit"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/obs"
	"relaxedcc/internal/remote"
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
	// violations and reads collect what one run's degraded guards and audited
	// guard decisions produced; reset by every run.
	violations []exec.Violation
	reads      []audit.ReadEvent
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

// guard publishes one guard decision (EvalContext.OnGuard) to every consumer
// of it, in a fixed order: the guard metrics, the region's SLO window and the
// autotuner's workload window always; the lifecycle record when the query is
// sampled; the auditor when it is enabled. A degraded decision arrives once,
// as the decision that answered.
func (q *queryCtx) guard(g obs.GuardEvent) {
	c := q.s.cache
	c.obs.guardMetrics(g)
	c.obs.slo.Observe(g)
	c.obs.workload.Record(c.clock.Now(), g)
	q.qt.Guard(g)
	if q.aud != nil {
		q.reads = append(q.reads, c.readEvent(g))
	}
}

// violation records one degraded-mode event (EvalContext.OnViolation): it
// surfaces on the result as a warning and feeds the degraded-read metrics.
func (q *queryCtx) violation(v exec.Violation) {
	q.violations = append(q.violations, v)
	q.s.cache.obs.onViolation(v)
}

// readEvent wraps one guard decision in what the cache adds at serve time:
// the versions the local branch served (the region agent's applied commit
// sequence) and the heartbeat timestamp the guard trusted.
func (c *Cache) readEvent(g obs.GuardEvent) audit.ReadEvent {
	ev := audit.ReadEvent{GuardEvent: g, ServeTSNS: c.clock.Now().UnixNano()}
	if a := c.Agent(g.Region); a != nil {
		ev.SyncSeq = a.LastSeq()
	}
	if ts, ok := c.LastSync(g.Region); ok {
		ev.SyncTSNS = ts.UnixNano()
	}
	return ev
}
