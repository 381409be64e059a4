package exec

import (
	"fmt"
	"time"

	"relaxedcc/internal/obs"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
)

// Selector decides which SwitchUnion input to execute. It is evaluated once
// when the operator is opened and must return an index in [0, n). A currency
// guard also returns the heartbeat timestamp it judged, the zero time when
// its region has none; any other selector returns the zero time.
type Selector func(ctx *EvalContext) (int, time.Time)

// DegradeMode is the session's violation action applied inside SwitchUnion
// when the remote branch it picked is unavailable (Section 1 of the paper
// lists the options a system could take when a currency constraint cannot
// be met).
type DegradeMode int

// Degraded modes.
const (
	// DegradeFail propagates the remote failure (default: the query errors).
	DegradeFail DegradeMode = iota
	// DegradeServeLocal answers from the local branch, surfacing an explicit
	// staleness-violation warning instead of an error.
	DegradeServeLocal
	// DegradeBlock re-evaluates a failed currency guard on the replication
	// cadence (paced by EvalContext.GuardRetry) until it passes or the wait
	// budget runs out, trading latency for currency.
	DegradeBlock
)

// GuardDecision is the one thing SwitchUnion.Open produces: it is built once
// per Open and delivered, by value, to EvalContext.OnGuard and nowhere else.
// The operator keeps no copy, so a decision shares nothing with the next run
// of the tree. The violation actions are its outcomes: a degraded serve is
// Degraded, a blocked guard BlockWaits > 0, a failure Err. The embedded event
// is what the consumers past the session read (it lives in obs, which they
// all import); the two fields beside it stay with the session.
type GuardDecision struct {
	obs.GuardEvent
	// State is Region's state word, nil when the region has none. When the
	// local branch answered, a State that moved past the event's Word after
	// the run means the local rows may straddle an apply.
	State *storage.Word
	// Err is the link-level failure (EvalContext.Unavailable) that ended the
	// remote branch: propagated when Chosen != 0, absorbed when Degraded.
	Err error
}

// SwitchUnion is the paper's dynamic-plan operator (Section 3): it has N
// input expressions plus a selector; on open the selector picks exactly one
// input, the others are never touched. The cache uses it with a *currency
// guard* selector that checks at run time whether a local materialized view
// is fresh enough for the query's currency bound, falling back to a remote
// query otherwise.
type SwitchUnion struct {
	Children []Operator
	Selector Selector
	// Label names the guard for diagnostics (e.g. "guard(cust_prj)").
	Label string
	// Region is planner metadata: the currency region whose freshness the
	// guard checks for the local branch (child 0).
	Region int
	// Bound is planner metadata: the query's currency bound on the guarded
	// region, normalized so 0 means unbounded. Carried into GuardDecision
	// for SLO accounting.
	Bound time.Duration
	// Word is planner metadata: Region's state word, loaded before every
	// selector evaluation and carried into GuardDecision; nil when the region
	// has none.
	Word *storage.Word

	active Operator
	// opened tracks every child this operator has opened and not yet
	// closed, so Close can release them all even if a guard re-evaluation
	// across re-opens chose different branches or an error struck mid-open.
	opened []Operator
}

// Schema implements Operator. All children must share a schema shape; the
// first child's schema is reported.
func (s *SwitchUnion) Schema() *Schema { return s.Children[0].Schema() }

// Open implements Operator: it evaluates the selector, then opens only the
// chosen child. Degraded modes (EvalContext.Degrade) apply when the chosen
// branch is not the local one: DegradeBlock re-evaluates a failed guard on
// the replication cadence before opening anything, and DegradeServeLocal
// falls back to the local branch — a Degraded decision — when the remote
// branch's Open reports link unavailability. Once a selector has chosen, Open
// ends by delivering its decision to EvalContext.OnGuard, after the decisions
// of any guard under the branch it opened. The decision's staleness is the
// query's Now minus the heartbeat the selector judged, and its word the
// region's state word as loaded before that judgment (or, when the local
// branch answers a failed remote one, before the local Open).
func (s *SwitchUnion) Open(ctx *EvalContext) error {
	clk := ctx.clock()
	var (
		idx, waits int
		synced     time.Time
		guardTime  time.Duration
		word       uint64
	)
	for {
		start := clk.Now()
		word = s.Word.Load()
		idx, synced = s.Selector(ctx)
		guardTime += clk.Now().Sub(start)
		if idx < 0 || idx >= len(s.Children) {
			return fmt.Errorf("exec: SwitchUnion selector returned %d of %d", idx, len(s.Children))
		}
		if ctx.RemoteOnly {
			idx = len(s.Children) - 1
			break
		}
		// Block mode: the guard rejected the local branch; wait for
		// replication to catch up and re-check, bounded by the session's
		// GuardRetry pacing.
		if idx == 0 || ctx.Degrade != DegradeBlock || ctx.GuardRetry == nil || !ctx.GuardRetry(s.Region, waits+1) {
			break
		}
		waits++
	}

	d := GuardDecision{GuardEvent: obs.GuardEvent{Query: ctx.Query, Label: s.Label, Region: s.Region, Chosen: idx, Bound: s.Bound, GuardTime: guardTime, BlockWaits: waits, Word: word}, State: s.Word}
	if !synced.IsZero() {
		d.Staleness, d.StalenessKnown = ctx.Now.Sub(synced), true
	}

	s.active = s.Children[idx]
	// Record the child before opening it: a failed Open may still have
	// acquired resources that only Close releases.
	s.track(s.active)
	err := s.active.Open(ctx)
	if err != nil && idx != 0 && ctx.Unavailable != nil && ctx.Unavailable(err) {
		d.Err = err
		if ctx.Degrade == DegradeServeLocal {
			// The remote branch is down: serve the guarded local branch, a
			// currency violation surfaced as a warning, not an error. The
			// decision that answered is the local one; if that branch fails
			// too, the remote failure stands.
			d.Chosen, d.Degraded, d.Word = 0, true, s.Word.Load()
			s.active = s.Children[0]
			s.track(s.active)
			if s.active.Open(ctx) == nil {
				err = nil
			}
		}
	}
	if ctx.OnGuard != nil {
		ctx.OnGuard(d)
	}
	return err
}

func (s *SwitchUnion) track(op Operator) {
	for _, o := range s.opened {
		if o == op {
			return
		}
	}
	s.opened = append(s.opened, op)
}

// NextVec implements Operator: batches stream through from the chosen child
// untouched, so after Open a guard adds one call per batch and nothing per
// row (the run-phase SwitchUnion overhead the paper measures).
func (s *SwitchUnion) NextVec() (*sqltypes.ColBatch, bool, error) {
	return s.active.NextVec()
}

// Close implements Operator: it closes every child that was ever opened (not
// just the currently chosen one), so an error mid-open or a branch switch
// across re-opens cannot leak iterators. The first error wins.
func (s *SwitchUnion) Close() error {
	var first error
	for _, op := range s.opened {
		if err := op.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.opened = s.opened[:0]
	s.active = nil
	return first
}

// Remote executes a query against the back-end server through the
// cache/back-end link and streams the resulting rows. Fetch is bound by the
// planner to the remote client; SQL records the shipped query text.
type Remote struct {
	SQL string
	// Text, when it has slots, is SQL cut at its slot literals: an execution
	// with parameters ships the text spliced around them.
	Text sqlparser.Pieces
	// Scan is SQL and Text scanned once, for every tree of the plan: what a
	// fetch ships in place of its text (Shipment).
	Scan  *sqlparser.PieceScan
	Fetch func(ctx *EvalContext) ([]sqltypes.Row, error)
	Out   *Schema

	key  []byte
	vals []sqltypes.Value
	win  window
}

// Schema implements Operator.
func (r *Remote) Schema() *Schema { return r.Out }

// Shipment returns what a fetch under ctx ships: the skeleton and token
// values of the text its parameters make, written into buffers the operator
// keeps, and the way to that text for a back end that must parse it. It
// splices nothing; without Scan, or for a parameter whose literal does not
// scan, it ships the text alone.
func (r *Remote) Shipment(ctx *EvalContext) sqlparser.Scanned {
	q := sqlparser.Scanned{SQL: r.SQL, Pieces: r.Text}
	if ctx != nil {
		q.Params = ctx.Params
	}
	if r.Scan != nil {
		if key, vals, ok := r.Scan.Append(r.key[:0], r.vals[:0], q.Params); ok {
			r.key, r.vals = key, vals
			q.Skel, q.Vals = key, vals
		}
	}
	return q
}

// Open implements Operator: it ships the query and buffers the reply,
// modeling a one-round-trip remote cursor, and counts the fetch in
// EvalContext.Fetches once it succeeds.
func (r *Remote) Open(ctx *EvalContext) error {
	rows, err := r.Fetch(ctx)
	if err != nil {
		return err
	}
	if ctx != nil {
		ctx.Fetches++
	}
	r.win.reset(rows, nil, ctx)
	return nil
}

// NextVec implements Operator: zero-copy windows of the buffered reply.
func (r *Remote) NextVec() (*sqltypes.ColBatch, bool, error) {
	return r.win.next(len(r.Out.Cols))
}

// Close implements Operator.
func (r *Remote) Close() error { r.win.reset(nil, nil, nil); return nil }
