package obs

import "time"

// GuardEvent is one SwitchUnion currency-guard decision: the one run-time
// moment where a query's C&C contract is decided (the paper's Section 3.2).
// exec.SwitchUnion.Open builds it — nothing else does — and every consumer
// reads this struct as it is: RegionLedger.Observe, QueryTrace.Guard,
// TraceNode.Guard and, wrapped in an audit.ReadEvent, the delivered-guarantee
// auditor. Durations encode as nanoseconds.
type GuardEvent struct {
	// Query is the id of the query the guard ran in (Tracer.Begin numbers
	// every query, sampled or not): the key that joins a /queries/recent
	// record, its guards and the auditor's verdicts. Zero outside a session.
	Query uint64 `json:"query_id"`
	// Label is the guard's diagnostic name (SwitchUnion.Label).
	Label string `json:"label"`
	// Region is the currency region the guard checked.
	Region int `json:"region"`
	// Chosen is the branch that answered: 0 is the local branch, by
	// convention, and 1 the remote fall-back.
	Chosen int `json:"chosen"`
	// Bound is the query's currency bound on the guarded region, normalized
	// by the planner (NormalizeBound): 0 means no finite bound.
	Bound time.Duration `json:"bound_ns"`
	// GuardTime is how long the selector evaluation took (summed across
	// re-evaluations in block mode).
	GuardTime time.Duration `json:"guard_time_ns"`
	// Staleness is the region's staleness at decision time (query Now minus
	// the last replicated heartbeat); valid only when StalenessKnown (a
	// region that never synchronized has unknown staleness).
	Staleness      time.Duration `json:"staleness_ns"`
	StalenessKnown bool          `json:"staleness_known"`
	// Degraded is set when the guard picked the remote branch but the local
	// branch answered because the remote was unavailable (a recorded
	// staleness-violation warning).
	Degraded bool `json:"degraded,omitempty"`
	// BlockWaits is how many times a blocking session re-evaluated the guard
	// before this decision settled.
	BlockWaits int `json:"block_waits,omitempty"`
	// Word is the region's state word (storage.Word) as the guard judged it:
	// its version halved is the commit sequence of the state the local
	// branch answers from. Zero for a region without one.
	Word uint64 `json:"-"`
}

// Branch names the chosen branch, "local" or "remote".
func (g *GuardEvent) Branch() string {
	if g.Chosen == 0 {
		return "local"
	}
	return "remote"
}
