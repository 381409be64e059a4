package audit

import (
	"sort"
	"strings"
	"sync"

	"relaxedcc/internal/txn"
)

// Class classifies one checked read.
type Class string

// Read outcome classes. Degraded and serve-stale answers are "disclosed":
// the promise was broken, but the engine said so to the client (the
// paper's violation actions made visible), so they are not counted as
// silent violations — those are what the auditor exists to catch.
const (
	ClassOK                   Class = "ok"
	ClassViolationCurrency    Class = "currency"
	ClassViolationConsistency Class = "consistency"
	ClassDisclosed            Class = "disclosed"
	ClassUnbounded            Class = "unbounded"
	ClassUnchecked            Class = "unchecked"
)

// Violation is one broken promise with its full evidence chain: the object
// and declared bound, the currency actually delivered, the commit that made
// the serve stale, and the replication lag that contributed.
type Violation struct {
	Query  uint64 `json:"query"`
	Class  Class  `json:"class"`
	Region int    `json:"region"`
	// Object names the audited object (base table) that broke the bound;
	// for consistency violations, the comma-joined object set.
	Object string `json:"object"`
	Label  string `json:"label,omitempty"`
	// BoundNS is the declared currency bound (for consistency violations,
	// the largest bound among the query's guards — the Θ the session could
	// rely on).
	BoundNS int64 `json:"bound_ns"`
	// DeliveredNS is the staleness actually delivered: serve time minus the
	// onset of staleness (for consistency violations, the object set's
	// Θ-bound per the formal model).
	DeliveredNS int64 `json:"delivered_ns"`
	// ExcessNS is DeliveredNS minus BoundNS.
	ExcessNS int64 `json:"excess_ns"`
	// SyncSeq / StaleSeq / StaleAtNS locate the evidence in the history:
	// the version the region had applied, and the first commit after it
	// that modified the object (when the staleness began).
	SyncSeq   int64 `json:"sync_seq"`
	StaleSeq  int64 `json:"stale_seq"`
	StaleAtNS int64 `json:"stale_at_ns"`
	ServeTSNS int64 `json:"serve_ts_ns"`
	// GuardStalenessNS is what the guard *believed* the staleness was; the
	// gap between it and DeliveredNS is the lie the auditor caught.
	GuardStalenessNS int64 `json:"guard_staleness_ns"`
	// ReplLagNS is how long before the serve the region's replication last
	// made progress — the contributing lag (0 if unknown).
	ReplLagNS int64 `json:"repl_lag_ns"`
}

// Tally is the running classification ledger.
type Tally struct {
	ReadsChecked          int64 `json:"reads_checked"`
	OK                    int64 `json:"ok"`
	CurrencyViolations    int64 `json:"currency_violations"`
	ConsistencyViolations int64 `json:"consistency_violations"`
	Disclosed             int64 `json:"disclosed"`
	Unbounded             int64 `json:"unbounded"`
	Unchecked             int64 `json:"unchecked"`
}

// Violations returns the total silent violations of both classes.
func (t Tally) Violations() int64 { return t.CurrencyViolations + t.ConsistencyViolations }

// outcome is one read's classification with its margin, fed back to the
// auditor's metrics.
type outcome struct {
	class    Class
	slackNS  int64
	excessNS int64
}

// checker folds read events against the master history, which it does not
// hold: each check reads the commit log (txn.Log, the history H_n) as it
// stands, finds the serve's position in it by commit time and each copy's
// stale point by scanning the commits after the copy's sync point.
type checker struct {
	mu sync.Mutex
	// objects maps region -> base table -> the commit sequence the region's
	// initial snapshot of that table reflects. A region agent's applied
	// sequence starts at 0 even though its views were populated at their
	// subscription snapshot, so the effective sync point of a copy is
	// max(agent seq, snapshot seq).
	objects map[int]map[string]int64
	// lastApplyNS tracks each region's most recent apply event, the
	// contributing-replication-lag evidence on violations.
	lastApplyNS map[int]int64

	tally  Tally
	recent []Violation
}

func newChecker() *checker {
	return &checker{objects: map[int]map[string]int64{}, lastApplyNS: map[int]int64{}}
}

// registerObject declares that a region serves the table from a snapshot
// taken at baseSeq. Re-registration keeps the smallest snapshot (the most
// conservative sync point when several views share a base table).
func (c *checker) registerObject(region int, table string, baseSeq int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.objects[region]
	if m == nil {
		m = map[string]int64{}
		c.objects[region] = m
	}
	if have, ok := m[table]; !ok || baseSeq < have {
		m[table] = baseSeq
	}
}

// noteApply records a replication progress event.
func (c *checker) noteApply(ev ApplyEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ev.AtNS > c.lastApplyNS[ev.Region] {
		c.lastApplyNS[ev.Region] = ev.AtNS
	}
}

// asOf returns the history position exposed at serve time: the sequence of
// the latest commit at or before serveNS. Commit times are non-decreasing in
// sequence order, so the search is by time.
func asOf(recs []txn.CommitRecord, serveNS int64) int64 {
	return int64(sort.Search(len(recs), func(i int) bool { return recs[i].TS.At.UnixNano() > serveNS }))
}

// staleSince returns the first commit in (sync, asOf] that changed table —
// inserts, updates and deletes alike — the point the copy synchronized at
// sync went stale; ok is false when the copy is current as of asOf.
func staleSince(recs []txn.CommitRecord, table string, sync, asOf int64) (txn.Timestamp, bool) {
	if sync >= asOf {
		return txn.Timestamp{}, false
	}
	for _, rec := range recs[sync:asOf] {
		for _, ch := range rec.Changes {
			if ch.Table == table {
				return rec.TS, true
			}
		}
	}
	return txn.Timestamp{}, false
}

// checkQuery classifies one query's read events against the commit records
// recs (the log from seq 1) and returns the per-read outcomes plus any
// violations (already folded into the tally and recent list).
func (c *checker) checkQuery(recs []txn.CommitRecord, evs []ReadEvent) ([]outcome, []Violation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	outs := make([]outcome, 0, len(evs))
	var viols []Violation

	// locals collects the guard-approved local serves for the cross-object
	// consistency check below.
	var locals []localServe

	for _, ev := range evs {
		c.tally.ReadsChecked++
		switch {
		case ev.ServedStale || ev.Degraded:
			c.tally.Disclosed++
			outs = append(outs, outcome{class: ClassDisclosed})
			continue
		case ev.Chosen != 0:
			// Remote serves read the master: delivered currency 0.
			c.tally.OK++
			outs = append(outs, outcome{class: ClassOK, slackNS: int64(ev.Bound)})
			continue
		case ev.Bound <= 0:
			c.tally.Unbounded++
			outs = append(outs, outcome{class: ClassUnbounded})
			continue
		}

		at := asOf(recs, ev.ServeTSNS)
		out, v := c.checkLocalLocked(recs, ev, at)
		switch out.class {
		case ClassOK:
			c.tally.OK++
			locals = append(locals, localServe{ev: ev, asOf: at})
		case ClassUnchecked:
			c.tally.Unchecked++
		case ClassViolationCurrency:
			c.tally.CurrencyViolations++
			viols = append(viols, v)
			c.keepLocked(v)
		}
		outs = append(outs, out)
	}

	// Θ-consistency across the query's object set: with every copy within
	// its own bound, the maximum pairwise distance cannot exceed the largest
	// declared bound (distance(A,B) ≤ currency of the older copy), so a
	// larger Θ-bound is a real inconsistency the per-read check missed.
	if len(locals) >= 2 {
		if v, bad := c.thetaLocked(recs, locals[0].ev.Query, locals); bad {
			c.tally.ConsistencyViolations++
			viols = append(viols, v)
			c.keepLocked(v)
		}
	}
	return outs, viols
}

// checkLocalLocked audits one guard-approved local serve with a finite
// bound, exposed to the history through commit asOf: its delivered currency
// is the serve time minus the earliest stale point among the region's
// copies. A region with no registered object has nothing to audit.
func (c *checker) checkLocalLocked(recs []txn.CommitRecord, ev ReadEvent, asOf int64) (outcome, Violation) {
	tables := c.objects[ev.Region]
	if len(tables) == 0 {
		return outcome{class: ClassUnchecked}, Violation{}
	}
	var worst Violation
	delivered := int64(0)
	for table, baseSeq := range tables {
		sync := ev.SyncSeq
		if baseSeq > sync {
			sync = baseSeq
		}
		stale, ok := staleSince(recs, table, sync, asOf)
		if !ok {
			continue
		}
		if d := ev.ServeTSNS - stale.At.UnixNano(); d > delivered {
			delivered = d
			worst = Violation{
				Query:            ev.Query,
				Class:            ClassViolationCurrency,
				Region:           ev.Region,
				Object:           table,
				Label:            ev.Label,
				BoundNS:          int64(ev.Bound),
				DeliveredNS:      d,
				SyncSeq:          sync,
				StaleSeq:         stale.Seq,
				StaleAtNS:        stale.At.UnixNano(),
				ServeTSNS:        ev.ServeTSNS,
				GuardStalenessNS: int64(ev.Staleness),
			}
		}
	}
	if bound := int64(ev.Bound); delivered > bound {
		worst.ExcessNS = delivered - bound
		if at := c.lastApplyNS[ev.Region]; at > 0 && at <= ev.ServeTSNS {
			worst.ReplLagNS = ev.ServeTSNS - at
		}
		return outcome{class: ClassViolationCurrency, excessNS: worst.ExcessNS}, worst
	}
	return outcome{class: ClassOK, slackNS: int64(ev.Bound) - delivered}, Violation{}
}

// localServe is one guard-approved local serve held for the query-level
// Θ-consistency check.
type localServe struct {
	ev   ReadEvent
	asOf int64
}

// thetaLocked checks the Θ-consistency of a query's guard-approved local
// serves: the object set's consistency bound (maximum pairwise distance per
// the formal model) must not exceed the largest declared currency bound.
//
// Soundness: for any pair of copies, distance(A, B) is at most the delivered
// currency of the older copy, which an OK per-read check bounds by that
// copy's declared bound, itself at most the set's maximum bound — so this
// check cannot trip while the per-read checks pass honestly (violating reads
// are excluded from locals). It is a safety net against checker bugs and
// hand-built event streams, exercised directly by TestThetaConsistencyCheck.
func (c *checker) thetaLocked(recs []txn.CommitRecord, query uint64, locals []localServe) (Violation, bool) {
	regions := map[int]bool{}
	var copies []copyAt
	var names []string
	maxBound, asOf, serveNS := int64(0), int64(0), int64(0)
	for _, ls := range locals {
		regions[ls.ev.Region] = true
		maxBound = max(maxBound, int64(ls.ev.Bound))
		if ls.asOf > asOf {
			asOf = ls.asOf
		}
		if ls.ev.ServeTSNS > serveNS {
			serveNS = ls.ev.ServeTSNS
		}
		for table, baseSeq := range c.objects[ls.ev.Region] {
			sync := ls.ev.SyncSeq
			if baseSeq > sync {
				sync = baseSeq
			}
			copies = append(copies, copyAt{table, sync})
			names = append(names, table)
		}
	}
	if len(regions) < 2 || len(copies) < 2 {
		// Same region ⇒ same agent ⇒ mutually consistent by construction.
		return Violation{}, false
	}
	// The Θ-bound is the largest pairwise distance (Appendix 8.5).
	theta := int64(0)
	for i := range copies {
		for j := i + 1; j < len(copies); j++ {
			theta = max(theta, distance(recs, copies[i], copies[j], asOf))
		}
	}
	if theta <= maxBound {
		return Violation{}, false
	}
	sort.Strings(names)
	return Violation{
		Query:       query,
		Class:       ClassViolationConsistency,
		Object:      strings.Join(names, ","),
		BoundNS:     maxBound,
		DeliveredNS: theta,
		ExcessNS:    theta - maxBound,
		ServeTSNS:   serveNS,
	}, true
}

// copyAt is a region's copy of a base table, synchronized at commit sync.
type copyAt struct {
	table string
	sync  int64
}

// distance is distance(A, B) as of commit asOf (Appendix 8.5): with
// xtime(A) <= xtime(B) = T_m, how long A had been stale at T_m, in
// nanoseconds of commit time.
func distance(recs []txn.CommitRecord, a, b copyAt, asOf int64) int64 {
	if a.sync > b.sync {
		a, b = b, a
	}
	m := min(b.sync, asOf)
	stale, ok := staleSince(recs, a.table, a.sync, m)
	if !ok {
		return 0
	}
	return int64(recs[m-1].TS.At.Sub(stale.At))
}

func (c *checker) keepLocked(v Violation) {
	c.recent = append(c.recent, v)
	if len(c.recent) > maxRecent {
		c.recent = c.recent[len(c.recent)-maxRecent:]
	}
}

// summary returns the tally and a copy of the recent violations.
func (c *checker) summary() (Tally, []Violation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tally, append([]Violation(nil), c.recent...)
}
