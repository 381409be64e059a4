// Package audit is the delivered-guarantee auditor: it records the running
// system's C&C history — master commits, replication applies, and every
// guard-approved serve — and checks, via the executable formal model in
// internal/semantics, whether each served result actually kept the currency
// and consistency promise its query declared.
//
// The paper treats a query's C&C constraint as a contract ("at most 10
// seconds stale, Θ-consistent"), but the engine only ever *predicts*
// compliance through heartbeat-based guards; nothing observes what was
// delivered. The auditor closes that loop: the backend/txn layer streams
// commit events (the history H_n), mtcache streams read events (what the
// guard promised and which versions were served), repl agents stream apply
// events (how replication actually advanced), and an incremental checker
// folds reads against the history to classify each serve as OK (with
// slack), a VIOLATION (with excess staleness and full evidence), DISCLOSED
// (the promise was broken but the client was told — degraded serves),
// UNBOUNDED (no finite bound declared), or UNCHECKED (the retained history
// window no longer covers the serve).
//
// Recording uses bounded lock-free rings (obs.Ring). An installed auditor
// always records; a system without one holds a nil *Auditor, whose hooks
// cost a nil check each and allocate nothing (asserted by an allocation
// test), so they can stay wired in production builds.
package audit

import "relaxedcc/internal/obs"

// CommitEvent is one committed master transaction: its position in the
// history (the paper's integer transaction timestamp), its commit time on
// the virtual clock, and the base tables it modified. Times are UnixNano
// integers for stable JSON.
type CommitEvent struct {
	Seq    int64    `json:"seq"`
	AtNS   int64    `json:"at_ns"`
	Tables []string `json:"tables,omitempty"`
}

// ReadEvent is one guard decision on a served query — the promise the query
// declared (region, bound) and what answered (chosen branch, degraded
// fall-back), all in the embedded guard event as the guard published it —
// plus what the cache adds at serve time: the versions served (the region
// agent's applied commit sequence and the replicated heartbeat the guard
// trusted). The events of one query share the event's Query id.
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
	// SyncTSNS is the replicated heartbeat timestamp the guard read
	// (0 if the region never synchronized).
	SyncTSNS int64 `json:"sync_ts_ns"`
	// ServeTSNS is the virtual-clock time of the guard decision.
	ServeTSNS int64 `json:"serve_ts_ns"`
}

// ApplyEvent is one replication propagation step that made progress:
// the region's agent applied the log through ThroughSeq at AtNS.
type ApplyEvent struct {
	Region     int   `json:"region"`
	ThroughSeq int64 `json:"through_seq"`
	AtNS       int64 `json:"at_ns"`
}
