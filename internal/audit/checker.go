package audit

import (
	"slices"
	"sort"
	"strings"

	"relaxedcc/internal/obs"
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
	// ReplLagNS is the region's replication lag at the serve: how long
	// before it the oldest commit the region had not applied (SyncSeq+1)
	// committed. That commit is at or before StaleSeq, so the lag is at
	// least DeliveredNS.
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

// checker folds recorded read events against the master history, which it
// does not hold: each fold reads the commit log (txn.Log, the history H_n) as
// it stands, and each registered object's list of the commits that changed
// its table (txn.Log.Writes); a copy's stale point is one search of that
// list. The auditor's online checker is one, serialized by Auditor.mu;
// Replay folds on a fresh one.
type checker struct {
	// objects maps region -> the base tables it serves, each with the commit
	// sequence the region's initial snapshot of that table reflects. A region
	// agent's applied sequence starts at 0 even though its views were
	// populated at their subscription snapshot, so the effective sync point
	// of a copy is max(agent seq, snapshot seq).
	objects map[int][]object
	// readSeq is the ring sequence of the last read event folded.
	readSeq uint64

	tally  Tally
	recent []Violation
	// slack and excess collect every OK read's slack and every violation's
	// excess since the auditor last flushed them into its histograms.
	slack, excess obs.HistogramBatch

	// Buffers every fold reuses: the read events being folded, a query's OK
	// local serves and the Θ check's copies and names.
	reads  []ReadEvent
	locals []localServe
	copies []copyAt
	names  []string
}

// object is one audited base table of a region and, as of the fold in
// progress, the commits that changed it (txn.Log.Writes, ascending) and at,
// the index in them of the stale point the last search found.
type object struct {
	table   string
	baseSeq int64
	writes  []int64
	at      int
}

// stalePoint returns the first commit after sync that changed the object's
// table — the stale point of the copy synchronized at sync — or 0 when none
// did. The reads of a fold mostly share their region's sync point, so the
// binary search is skipped while the last answer holds: the write before
// index o.at is at or before sync, and the one at it is after sync.
func (o *object) stalePoint(sync int64) int64 {
	w, i := o.writes, o.at
	if i > 0 && w[i-1] > sync || i < len(w) && w[i] <= sync {
		i, _ = slices.BinarySearch(w, sync+1)
		o.at = i
	}
	if i < len(w) {
		return w[i]
	}
	return 0
}

func newChecker() *checker { return &checker{objects: map[int][]object{}} }

// registerObject declares that a region serves the table from a snapshot
// taken at baseSeq. Re-registration keeps the smallest snapshot (the most
// conservative sync point when several views share a base table).
func (c *checker) registerObject(region int, table string, baseSeq int64) {
	objs := c.objects[region]
	for i := range objs {
		if objs[i].table == table {
			objs[i].baseSeq = min(objs[i].baseSeq, baseSeq)
			return
		}
	}
	c.objects[region] = append(objs, object{table: table, baseSeq: baseSeq})
}

// take copies out of the ring the read events recorded after the last one c
// took: the first half of a fold.
func (c *checker) take(reads *obs.Ring[ReadEvent]) {
	var first uint64
	c.reads, first = reads.Since(c.readSeq, c.reads[:0])
	c.readSeq = first - 1 + uint64(len(c.reads))
}

// load takes each object's write list from log and then the commit records
// (the log from seq 1), so every commit a list names has its record.
func (c *checker) load(log *txn.Log) []txn.CommitRecord {
	for _, objs := range c.objects {
		for i := range objs {
			objs[i].writes, objs[i].at = log.Writes(objs[i].table), 0
		}
	}
	return log.Since(0)
}

// check checks the read events take copied against log as it stands, in
// recording order, the events of one query (pushed together) as one group:
// the second half of a fold.
func (c *checker) check(log *txn.Log) {
	recs := c.load(log)
	for i := 0; i < len(c.reads); {
		j := i + 1
		for j < len(c.reads) && c.reads[j].Query == c.reads[i].Query {
			j++
		}
		c.checkQuery(recs, c.reads[i:j])
		i = j
	}
}

// asOf returns the history position exposed at serve time: the sequence of
// the latest commit at or before serveNS. Commit times are non-decreasing in
// sequence order, so the search is by time.
func asOf(recs []txn.CommitRecord, serveNS int64) int64 {
	return int64(sort.Search(len(recs), func(i int) bool { return recs[i].TS.At.UnixNano() > serveNS }))
}

// checkQuery classifies one query's read events against the commit records
// recs (the log from seq 1) into the tally, keeping any violation.
func (c *checker) checkQuery(recs []txn.CommitRecord, evs []ReadEvent) {
	c.locals = c.locals[:0]
	for i := range evs {
		ev := &evs[i]
		c.tally.ReadsChecked++
		bound, objs := int64(ev.Bound), c.objects[ev.Region]
		switch {
		case ev.ServedStale || ev.Degraded:
			c.tally.Disclosed++
			continue
		case ev.Chosen != 0:
			// Remote serves read the master: delivered currency 0.
			c.ok(bound)
			continue
		case bound <= 0:
			c.tally.Unbounded++
			continue
		case len(objs) == 0:
			// A region with no registered object has nothing to audit.
			c.tally.Unchecked++
			continue
		}
		if delivered, worst := checkLocal(recs, ev, objs); delivered > bound {
			sync := max(ev.SyncSeq, worst.baseSeq)
			stale := worst.stalePoint(sync)
			v := Violation{
				Query:            ev.Query,
				Class:            ClassViolationCurrency,
				Region:           ev.Region,
				Object:           worst.table,
				Label:            ev.Label,
				BoundNS:          bound,
				DeliveredNS:      delivered,
				ExcessNS:         delivered - bound,
				SyncSeq:          sync,
				StaleSeq:         stale,
				StaleAtNS:        recs[stale-1].TS.At.UnixNano(),
				ServeTSNS:        ev.ServeTSNS,
				GuardStalenessNS: int64(ev.Staleness),
				ReplLagNS:        ev.ServeTSNS - recs[sync].TS.At.UnixNano(),
			}
			c.tally.CurrencyViolations++
			c.keep(v)
		} else {
			c.ok(bound - delivered)
			if len(evs) > 1 {
				c.locals = append(c.locals, localServe{ev: *ev, asOf: asOf(recs, ev.ServeTSNS)})
			}
		}
	}

	// Θ-consistency across the query's object set: with every copy within
	// its own bound, the maximum pairwise distance cannot exceed the largest
	// declared bound (distance(A,B) ≤ currency of the older copy), so a
	// larger Θ-bound is a real inconsistency the per-read check missed.
	if len(c.locals) >= 2 {
		if v, bad := c.thetaLocked(recs, evs[0].Query, c.locals); bad {
			c.tally.ConsistencyViolations++
			c.keep(v)
		}
	}
}

// ok counts one read that kept its promise with the given slack.
func (c *checker) ok(slackNS int64) {
	c.tally.OK++
	c.slack.Observe(slackNS)
}

// checkLocal audits one guard-approved local serve with a finite bound: its
// delivered currency is the serve time minus the earliest stale point among
// the region's copies objs, and worst the copy that went stale first (nil
// when none is stale). A copy is stale at the serve when its stale point (the
// first commit after its sync point that changed it) committed at or before
// the serve: commit times are non-decreasing in sequence order, so that is
// the stale point as of the serve's position in the history, with no search
// for the position.
func checkLocal(recs []txn.CommitRecord, ev *ReadEvent, objs []object) (delivered int64, worst *object) {
	for i := range objs {
		stale := objs[i].stalePoint(max(ev.SyncSeq, objs[i].baseSeq))
		if stale == 0 {
			continue
		}
		if d := ev.ServeTSNS - recs[stale-1].TS.At.UnixNano(); d > delivered {
			delivered, worst = d, &objs[i]
		}
	}
	return delivered, worst
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
// Serves of one region are mutually consistent by construction (one agent),
// so such a query returns before any work.
//
// Soundness: for any pair of copies, distance(A, B) is at most the delivered
// currency of the older copy, which an OK per-read check bounds by that
// copy's declared bound, itself at most the set's maximum bound — so this
// check cannot trip while the per-read checks pass honestly (violating reads
// are excluded from locals). It is a safety net against checker bugs and
// hand-built event streams, exercised directly by TestThetaConsistencyCheck.
func (c *checker) thetaLocked(recs []txn.CommitRecord, query uint64, locals []localServe) (Violation, bool) {
	oneRegion := true
	for i := range locals {
		oneRegion = oneRegion && locals[i].ev.Region == locals[0].ev.Region
	}
	if oneRegion {
		return Violation{}, false
	}
	c.copies, c.names = c.copies[:0], c.names[:0]
	maxBound, asOf, serveNS := int64(0), int64(0), int64(0)
	for i := range locals {
		ls := &locals[i]
		maxBound = max(maxBound, int64(ls.ev.Bound))
		asOf = max(asOf, ls.asOf)
		serveNS = max(serveNS, ls.ev.ServeTSNS)
		objs := c.objects[ls.ev.Region]
		for k := range objs {
			c.copies = append(c.copies, copyAt{&objs[k], max(ls.ev.SyncSeq, objs[k].baseSeq)})
			c.names = append(c.names, objs[k].table)
		}
	}
	if len(c.copies) < 2 {
		return Violation{}, false
	}
	// The Θ-bound is the largest pairwise distance (Appendix 8.5).
	theta := int64(0)
	for i := range c.copies {
		for j := i + 1; j < len(c.copies); j++ {
			theta = max(theta, distance(recs, c.copies[i], c.copies[j], asOf))
		}
	}
	if theta <= maxBound {
		return Violation{}, false
	}
	sort.Strings(c.names)
	return Violation{
		Query:       query,
		Class:       ClassViolationConsistency,
		Object:      strings.Join(c.names, ","),
		BoundNS:     maxBound,
		DeliveredNS: theta,
		ExcessNS:    theta - maxBound,
		ServeTSNS:   serveNS,
	}, true
}

// copyAt is a region's copy of a base table, synchronized at commit sync.
type copyAt struct {
	obj  *object
	sync int64
}

// distance is distance(A, B) as of commit asOf (Appendix 8.5): with
// xtime(A) <= xtime(B) = T_m, how long A had been stale at T_m, in
// nanoseconds of commit time.
func distance(recs []txn.CommitRecord, a, b copyAt, asOf int64) int64 {
	if a.sync > b.sync {
		a, b = b, a
	}
	m := min(b.sync, asOf)
	stale := a.obj.stalePoint(a.sync)
	if stale == 0 || stale > m {
		return 0
	}
	return int64(recs[m-1].TS.At.Sub(recs[stale-1].TS.At))
}

// keep retains a violation's evidence, the newest maxRecent of them.
func (c *checker) keep(v Violation) {
	c.excess.Observe(v.ExcessNS)
	c.recent = append(c.recent, v)
	if len(c.recent) > maxRecent {
		c.recent = c.recent[len(c.recent)-maxRecent:]
	}
}
