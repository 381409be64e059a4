package obs

import (
	"slices"
	"sync/atomic"
)

// Span-event kinds (span_events_total{kind}). Fixed strings: dynamic event
// names would defeat both the metric-name lint and the cardinality budget.
const (
	// EventRemoteRetry fires for every link retry attempt.
	EventRemoteRetry = "remote_retry"
	// EventBreakerOpen/HalfOpen/Closed fire on circuit-breaker transitions.
	EventBreakerOpen     = "breaker_open"
	EventBreakerHalfOpen = "breaker_half_open"
	EventBreakerClosed   = "breaker_closed"
	// EventReplApply fires for every replication propagation step that
	// applied at least one transaction.
	EventReplApply = "repl_apply"
)

// Defaults for the cache's always-on tracer.
const (
	// DefaultSampleEvery traces 1 query in 8: cheap enough to leave on,
	// frequent enough that /queries/recent is populated on any workload.
	DefaultSampleEvery = 8
	// DefaultRingSize is how many completed query records are retained.
	DefaultRingSize = 512
)

// Tracer is the always-on query-lifecycle tracer: a deterministic 1-in-N
// sampler over a monotone query counter (so seeded chaos and bench runs
// sample the same queries every time), which also samples every EXPLAIN
// ANALYZE, feeding a Ring of completed QueryRecords, plus span-event
// counters for link retries, breaker transitions and replication applies.
// The counter is also the query id: every query gets one, sampled or not.
//
// The untraced hot path is a single atomic add — no allocation, no lock.
type Tracer struct {
	every uint64
	count atomic.Uint64
	ring  *Ring[QueryRecord]

	sampled *Counter    // trace_sampled_total
	events  *CounterVec // span_events_total{kind}
}

// NewTracer builds a tracer registering trace_sampled_total and
// span_events_total on reg. every <= 1 samples every query; ringSize <= 0
// selects DefaultRingSize.
func NewTracer(reg *Registry, every, ringSize int) *Tracer {
	if every < 1 {
		every = 1
	}
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Tracer{
		every:   uint64(every),
		ring:    NewRing[QueryRecord](ringSize),
		sampled: reg.Counter("trace_sampled_total"),
		events:  reg.CounterVec("span_events_total", "kind"),
	}
}

// Recent returns the retained records, newest first, each stamped with its
// publish sequence.
func (t *Tracer) Recent() []QueryRecord {
	if t == nil {
		return nil
	}
	out := []QueryRecord{}
	t.ring.Each(func(seq uint64, rec QueryRecord) {
		rec.Seq = seq
		out = append(out, rec)
	})
	slices.Reverse(out)
	return out
}

// Record returns the retained record of query id, if the ring still holds
// it.
func (t *Tracer) Record(id uint64) (rec QueryRecord, ok bool) {
	t.ring.Each(func(seq uint64, r QueryRecord) {
		if r.QueryID == id {
			rec, ok = r, true
			rec.Seq = seq
		}
	})
	return rec, ok
}

// SampleEvery returns the sampling period N (1 = every query).
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return int(t.every)
}

// Begin numbers one query and, when it is sampled, starts its lifecycle
// trace in qt (reset; the caller owns the storage and may reuse it once the
// trace is finished). It returns the query id and qt, or nil on the unsampled
// path — one atomic add, zero allocations. An analyzed query is always
// sampled; of the rest, the first query and thereafter every N-th by arrival
// order.
func (t *Tracer) Begin(sql string, analyze bool, qt *QueryTrace) (uint64, *QueryTrace) {
	if t == nil {
		return 0, nil
	}
	n := t.count.Add(1)
	if (n-1)%t.every != 0 && !analyze {
		return n, nil
	}
	t.sampled.Inc()
	*qt = QueryTrace{tr: t, rec: QueryRecord{QueryID: n, SQL: sql, SQLHash: HashSQL(sql)}}
	return n, qt
}

// Event counts one span event by kind; kind must be one of the Event*
// constants. Nil-safe so call sites need no tracer guard.
func (t *Tracer) Event(kind string) {
	if t == nil {
		return
	}
	t.events.With(kind).Inc()
}

// QueryTrace accumulates one sampled query's lifecycle record. All methods
// are nil-safe (the unsampled path passes a nil trace through the same call
// sites) and a copy of the record is published on Finish.
type QueryTrace struct {
	tr  *Tracer
	rec QueryRecord
}

// Tenant labels the record with the session's tenant class (empty = no
// tenant attribution; the field is omitted from the JSON).
func (q *QueryTrace) Tenant(name string) {
	if q != nil && name != "" {
		q.rec.Tenant = name
	}
}

// Guard records one guard decision of the query; a degraded one marks the
// record degraded.
func (q *QueryTrace) Guard(g GuardEvent) {
	if q != nil {
		q.rec.Guards = append(q.rec.Guards, g)
		q.rec.Degraded = q.rec.Degraded || g.Degraded
	}
}

// MarkDegraded flags the record as a degraded serve independent of any
// guard outcome (the serve-stale whole-query fallback runs without guards).
func (q *QueryTrace) MarkDegraded() {
	if q != nil {
		q.rec.Degraded = true
	}
}

// Retries records how many link retry attempts the query paid for.
func (q *QueryTrace) Retries(n int64) {
	if q != nil {
		q.rec.Retries = n
	}
}

// Trace gives the record a copy of the query's EXPLAIN ANALYZE tree (nil
// for a query run without one): the original nodes stay wired into the
// instrumented operator tree, which a later run would mutate under a reader
// of the published record.
func (q *QueryTrace) Trace(root *TraceNode) {
	if q != nil {
		q.rec.Trace = root.Clone()
	}
}

// Finish publishes the completed record into the tracer's ring.
func (q *QueryTrace) Finish(failed bool) {
	if q == nil {
		return
	}
	q.rec.Failed = failed
	if q.rec.Guards == nil {
		q.rec.Guards = []GuardEvent{}
	}
	q.tr.ring.Push(q.rec)
}

// QueryRecord is one completed query's lifecycle record, published into the
// tracer's ring by the sampled tracing path.
type QueryRecord struct {
	// Seq is the record's publish sequence in the ring (monotone per tracer).
	Seq uint64 `json:"seq"`
	// QueryID is the query's id (see GuardEvent.Query): the auditor's
	// read events and violations of this query carry the same number.
	QueryID uint64 `json:"query_id"`
	// SQLHash is the FNV-1a hash of the canonical query text, the stable
	// identity for aggregating repeated statements.
	SQLHash uint64 `json:"sql_hash"`
	// SQL is the canonical query text.
	SQL string `json:"sql"`
	// Tenant is the issuing session's tenant class, when the session set
	// one (multi-tenant load runs); empty otherwise.
	Tenant string `json:"tenant,omitempty"`
	// Guards is every guard decision of the query, in order (Q5 has two);
	// empty for unguarded plans.
	Guards []GuardEvent `json:"guards"`
	// Degraded is set when a guard's answer came from the local branch only
	// because the remote fall-back was unavailable, or the answer from the
	// serve-stale rerun.
	Degraded bool `json:"degraded"`
	// Retries is how many link retry attempts the query paid for.
	Retries int64 `json:"retries"`
	// Failed is set when execution returned an error.
	Failed bool `json:"failed"`
	// Trace is the query's EXPLAIN ANALYZE tree, when it ran under one.
	Trace *TraceNode `json:"trace,omitempty"`
}

// fnvOffset/fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// HashSQL returns the FNV-1a 64-bit hash of the query text, allocation-free.
func HashSQL(sql string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(sql); i++ {
		h ^= uint64(sql[i])
		h *= fnvPrime
	}
	return h
}
