// Package audit is the delivered-guarantee auditor: it records the running
// system's guard-approved serves and checks, against the master commit log,
// whether each served result actually kept the currency and consistency
// promise its query declared.
//
// The paper treats a query's C&C constraint as a contract ("at most 10
// seconds stale, Θ-consistent"), but the engine only ever *predicts*
// compliance through heartbeat-based guards; nothing observes what was
// delivered. The auditor closes that loop: mtcache streams read events (what
// the guard promised and which versions were served), and the checker reads
// the master history H_n from txn.Log itself. The stale point of a served
// copy is the first commit after its sync point that changed the table
// (Appendix 8), one search of the log's per-table write index. Each serve is
// OK (with slack), a VIOLATION (with excess staleness and full evidence, the
// region's replication lag among it: how long before the serve the first
// commit it had not applied committed), DISCLOSED (the promise was broken
// but the client was told — degraded serves), UNBOUNDED (no finite bound
// declared), or UNCHECKED (the serving region registered no object).
//
// Every cache has an auditor, and the read path only records: a query's
// read events are copied into a bounded ring (obs.Ring), which allocates
// nothing, and one fold checks the unchecked reads in recording order — on a
// ledger or metrics snapshot, and whenever half the ring is unchecked. The
// offline Replay is the same fold on a fresh checker.
package audit

import "relaxedcc/internal/obs"

// ReadEvent is one guard decision on a served query — the promise the query
// declared (region, bound) and what answered (chosen branch, degraded
// fall-back), all in the embedded guard event as the guard published it —
// plus what the cache adds at serve time: the versions served (the region
// agent's applied commit sequence). The events of one query share the
// event's Query id.
type ReadEvent struct {
	obs.GuardEvent
	// ServedStale marks an ActionServeStale rerun: currency checking was
	// disabled wholesale and the result flagged, so staleness is unknown
	// but disclosed. Such an event carries no guard decision, only the id of
	// the query it downgraded.
	ServedStale bool `json:"served_stale,omitempty"`
	// SyncSeq is the region agent's last applied commit sequence at serve
	// time — the xtime of the versions the local branch served.
	SyncSeq int64 `json:"sync_seq"`
	// ServeTSNS is the virtual-clock time of the guard decision.
	ServeTSNS int64 `json:"serve_ts_ns"`
}
