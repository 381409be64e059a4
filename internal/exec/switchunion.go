package exec

import (
	"fmt"
	"sync/atomic"
	"time"

	"relaxedcc/internal/obs"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
)

// Selector decides which SwitchUnion input to execute. It is evaluated once
// when the operator is opened and must return an index in [0, n).
type Selector func(ctx *EvalContext) (int, error)

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

// Violation records one degraded-mode event: the paper's violation-action
// table made observable. Sessions collect them as per-query warnings and
// feed them to metrics.
type Violation struct {
	// Label is the guard's diagnostic name.
	Label string
	// Region is the currency region of the guarded local branch.
	Region int
	// Action is what the operator did: "serve-local" (answered from the
	// local branch despite the guard's remote choice), "block" (waited for
	// the guard to pass), or "fail" (propagated the failure).
	Action string
	// Err is the remote failure that triggered the violation (nil for
	// "block", which is triggered by the guard itself).
	Err error
	// Staleness is the region's staleness when the violation was recorded;
	// valid only when StalenessKnown is true.
	Staleness      time.Duration
	StalenessKnown bool
	// Waits is how many guard re-evaluations a "block" performed.
	Waits int
}

// GuardDecision is the guard event SwitchUnion.Open builds and publishes —
// atomically per Open for LastDecision, and to EvalContext.OnGuard. The type
// lives in obs, the package every consumer of the decision can import.
type GuardDecision = obs.GuardEvent

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
	// guard checks for the local branch (child 0). Sessions use it to track
	// timeline consistency.
	Region int
	// Staleness optionally observes the guarded region's staleness at
	// decision time (query Now minus last heartbeat), for tracing and
	// metrics. Set by the planner; nil means staleness is unknown.
	Staleness func(ctx *EvalContext) (time.Duration, bool)
	// Bound is planner metadata: the query's currency bound on the guarded
	// region, normalized so 0 means unbounded. Carried into GuardDecision
	// for SLO accounting.
	Bound time.Duration

	active Operator
	// opened tracks every child this operator has opened and not yet
	// closed, so Close can release them all even if a guard re-evaluation
	// across re-opens chose different branches or an error struck mid-open.
	opened []Operator
	// decision is the guard outcome of the most recent Open, published
	// atomically so observers (harness, session bookkeeping, monitoring
	// goroutines) can read it without racing a concurrent re-open.
	decision atomic.Pointer[GuardDecision]
}

// Schema implements Operator. All children must share a schema shape; the
// first child's schema is reported.
func (s *SwitchUnion) Schema() *Schema { return s.Children[0].Schema() }

// Open implements Operator: it evaluates the selector, then opens only the
// chosen child. Degraded modes (EvalContext.Degrade) apply when the chosen
// branch is not the local one: DegradeBlock re-evaluates a failed guard on
// the replication cadence before opening anything, and DegradeServeLocal
// falls back to the local branch — recording a Violation warning — when the
// remote branch's Open reports link unavailability.
func (s *SwitchUnion) Open(ctx *EvalContext) error {
	clk := ctx.clock()
	start := clk.Now()
	idx, err := s.Selector(ctx)
	guardTime := clk.Now().Sub(start)
	if err != nil {
		return err
	}
	if idx < 0 || idx >= len(s.Children) {
		return fmt.Errorf("exec: SwitchUnion selector returned %d of %d", idx, len(s.Children))
	}

	// Block mode: the guard rejected the local branch; wait for replication
	// to catch up and re-check, bounded by the session's GuardRetry pacing.
	waits := 0
	if ctx.Degrade == DegradeBlock && idx != 0 && ctx.GuardRetry != nil {
		for attempt := 1; idx != 0; attempt++ {
			if !ctx.GuardRetry(s.Region, attempt) {
				break
			}
			waits++
			st := clk.Now()
			idx, err = s.Selector(ctx)
			guardTime += clk.Now().Sub(st)
			if err != nil {
				return err
			}
			if idx < 0 || idx >= len(s.Children) {
				return fmt.Errorf("exec: SwitchUnion selector returned %d of %d", idx, len(s.Children))
			}
		}
	}

	d := &GuardDecision{Query: ctx.Query, Label: s.Label, Region: s.Region, Chosen: idx, Bound: s.Bound, GuardTime: guardTime, BlockWaits: waits}
	if s.Staleness != nil {
		if st, ok := s.Staleness(ctx); ok {
			d.Staleness, d.StalenessKnown = st, true
		}
	}
	s.decision.Store(d)
	if waits > 0 && ctx.OnViolation != nil {
		ctx.OnViolation(Violation{
			Label: s.Label, Region: s.Region, Action: "block",
			Staleness: d.Staleness, StalenessKnown: d.StalenessKnown, Waits: waits,
		})
	}

	s.active = s.Children[idx]
	// Record the child before opening it: a failed Open may still have
	// acquired resources that only Close releases.
	s.track(s.active)
	err = s.active.Open(ctx)
	if err != nil && idx != 0 && ctx.Unavailable != nil && ctx.Unavailable(err) {
		v := Violation{
			Label: s.Label, Region: s.Region, Err: err,
			Staleness: d.Staleness, StalenessKnown: d.StalenessKnown, Waits: waits,
		}
		if ctx.Degrade == DegradeServeLocal {
			// The remote branch is down: serve the guarded local branch and
			// surface the currency violation as a warning, not an error.
			v.Action = "serve-local"
			dd := *d
			dd.Chosen = 0
			dd.Degraded = true
			s.decision.Store(&dd)
			s.active = s.Children[0]
			s.track(s.active)
			if e := s.active.Open(ctx); e != nil {
				// The local branch failed too; report the original failure.
				if ctx.OnGuard != nil {
					ctx.OnGuard(dd)
				}
				return err
			}
			if ctx.OnViolation != nil {
				ctx.OnViolation(v)
			}
			if ctx.OnGuard != nil {
				ctx.OnGuard(dd)
			}
			return nil
		}
		v.Action = "fail"
		if ctx.OnViolation != nil {
			ctx.OnViolation(v)
		}
	}
	if ctx.OnGuard != nil {
		ctx.OnGuard(*d)
	}
	return err
}

// LastDecision returns the guard outcome of the most recent Open; ok is
// false if the operator was never opened. Safe to call from any goroutine.
func (s *SwitchUnion) LastDecision() (d GuardDecision, ok bool) {
	if p := s.decision.Load(); p != nil {
		return *p, true
	}
	return d, false
}

// ChosenIndex returns the branch picked by the most recent Open (0 if never
// opened).
func (s *SwitchUnion) ChosenIndex() int {
	if d := s.decision.Load(); d != nil {
		return d.Chosen
	}
	return 0
}

// GuardTime returns the selector evaluation time of the most recent Open —
// the guard cost measured by the Tables 4.4/4.5 experiments.
func (s *SwitchUnion) GuardTime() time.Duration {
	if d := s.decision.Load(); d != nil {
		return d.GuardTime
	}
	return 0
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
	// with parameters splices its own text into SQL while Fetch ships it.
	Text  sqlparser.Pieces
	Fetch func(ctx *EvalContext) ([]sqltypes.Row, error)
	Out   *Schema

	win window
}

// Schema implements Operator.
func (r *Remote) Schema() *Schema { return r.Out }

// Open implements Operator: it ships the query and buffers the reply,
// modeling a one-round-trip remote cursor.
func (r *Remote) Open(ctx *EvalContext) error {
	own := r.SQL
	if len(r.Text.Slots) > 0 && ctx != nil && ctx.Params != nil {
		r.SQL = r.Text.Splice(ctx.Params)
	}
	rows, err := r.Fetch(ctx)
	r.SQL = own
	if err != nil {
		return err
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
