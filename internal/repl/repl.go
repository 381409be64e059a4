// Package repl implements transactional replication from the back end to
// the cache: the stand-in for SQL Server's replication in the paper's
// prototype (Section 3.1).
//
// A distribution Agent serves one currency region. The Coordinator wakes it
// at the region's update interval, and it applies committed transactions
// from the back-end log to its subscribed materialized views — one
// transaction at a time, in commit order — which is what guarantees that
// all views in the region are mutually consistent and always reflect a
// committed state. The propagation delay d is modeled by the agent only
// applying transactions that committed at least d before its wake-up time:
// immediately after propagation the region's data is exactly d stale,
// growing to d+f until the next wake-up (the paper's Figure 3.2 cycle).
//
// The region's row of the back-end heartbeat table replicates through the
// same log, and the agent publishes its timestamp in the region's state word,
// so the heartbeat a guard judges bounds the region's staleness.
package repl

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/obs"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
	"relaxedcc/internal/txn"
	"relaxedcc/internal/vclock"
)

// Subscription maps one back-end base table into one cached materialized
// view (a selection/projection, per the prototype's view class).
type Subscription struct {
	View   *catalog.View
	Base   *catalog.Table
	Target *storage.Table

	projOrds []int // base-column ordinal for each view column
	preds    []catalog.SimplePred
	predOrds []int // base-column ordinal for each predicate
	// startSeq is the commit sequence the initial snapshot reflects; the
	// agent only replays transactions after it into this subscription.
	startSeq int64
}

// NewSubscription prepares a subscription; Target must use the view's
// column layout.
func NewSubscription(view *catalog.View, base *catalog.Table, target *storage.Table) (*Subscription, error) {
	sub := &Subscription{View: view, Base: base, Target: target, preds: view.Preds}
	for _, col := range view.Columns {
		o := base.ColumnIndex(col)
		if o < 0 {
			return nil, fmt.Errorf("repl: view %s column %s not on base %s", view.Name, col, base.Name)
		}
		sub.projOrds = append(sub.projOrds, o)
	}
	for _, p := range view.Preds {
		o := base.ColumnIndex(p.Column)
		if o < 0 {
			return nil, fmt.Errorf("repl: view %s predicate column %s not on base %s", view.Name, p.Column, base.Name)
		}
		sub.predOrds = append(sub.predOrds, o)
	}
	return sub, nil
}

// covers reports whether a base row falls inside the view's selection.
func (s *Subscription) covers(baseRow sqltypes.Row) bool {
	for i, p := range s.preds {
		v := baseRow[s.predOrds[i]]
		if v.IsNull() {
			return false
		}
		c := v.Compare(p.Value)
		ok := false
		switch p.Op {
		case catalog.OpEQ:
			ok = c == 0
		case catalog.OpLT:
			ok = c < 0
		case catalog.OpLE:
			ok = c <= 0
		case catalog.OpGT:
			ok = c > 0
		case catalog.OpGE:
			ok = c >= 0
		}
		if !ok {
			return false
		}
	}
	return true
}

// image appends to buf the view's row for a base row, its projection to the
// view's layout, and returns buf and that row; it is nil when the view does
// not cover the base row. The row is valid until buf is reused: Replace
// copies what it keeps.
func (s *Subscription) image(buf []sqltypes.Value, baseRow sqltypes.Row) ([]sqltypes.Value, sqltypes.Row) {
	if baseRow == nil || !s.covers(baseRow) {
		return buf, nil
	}
	n := len(buf)
	for _, o := range s.projOrds {
		buf = append(buf, baseRow[o])
	}
	return buf, sqltypes.Row(buf[n:len(buf):len(buf)])
}

// StallProbe lets a fault injector wedge an agent: a stalled agent's
// wake-ups run but make no progress, so region staleness grows silently —
// the failure mode the Watchdog exists to catch. fault.Injector implements
// it.
type StallProbe interface {
	// AgentStalled reports whether the region's agent is currently wedged.
	AgentStalled(regionID int) bool
	// AgentRestarted notifies the injector that a supervisor restarted the
	// agent (soft wedges clear; hard ones persist).
	AgentRestarted(regionID int)
}

// Agent is the distribution agent for one currency region.
type Agent struct {
	Region *catalog.Region

	// interval and hbInterval are live overrides of the region's configured
	// cadence, set by the autotuning loop via SetInterval /
	// SetHeartbeatInterval. Zero means "use the catalog value"; the catalog
	// region itself is never mutated, so the configured baseline stays
	// readable and the overrides are race-free against planner reads.
	interval   atomic.Int64
	hbInterval atomic.Int64

	// word is the region's published state word and heartbeat: this agent
	// is its one writer, moving it around every record it applies (Step) and
	// every heartbeat written out of band (Beat), under mu.
	word storage.Word

	log *txn.Log
	// cursor tells the log what the agent has applied (lastSeq), so it can
	// let go of the rows every agent has.
	cursor  *txn.Reader
	hbTable string
	mu      sync.Mutex
	subs    []*Subscription
	lastSeq int64
	// record holds the view changes of the record Step is on: the images of
	// each base change's two sides in each subscription it reaches, their
	// values in images. A change a view covers on neither side is none.
	record []viewChange
	images []sqltypes.Value
	// stall is the fault hook that can wedge this agent; nil means healthy.
	stall StallProbe
	// lastProgress is when the agent last completed a propagation step
	// (stalled wake-ups do not count); the Watchdog's staleness signal.
	lastProgress time.Time
	// clock times the apply-latency histogram: the wall clock, bound once
	// by NewAgent. The histogram measures real apply cost, so it never
	// replays; taking it through vclock keeps the package's one wall-clock
	// read behind the sanctioned wrapper.
	clock vclock.Clock

	// The agent's metrics, registered by NewAgent.
	mTxns  *obs.Counter   // repl_txns_applied_total{region}
	mRows  *obs.Counter   // repl_rows_applied_total{region}
	mApply *obs.Histogram // repl_apply_latency_ns
	mHbAge *obs.Gauge     // repl_heartbeat_age_ns{region}

	// tracer receives a repl_apply span event per propagation step that
	// applied transactions.
	tracer *obs.Tracer
}

// NewAgent creates an agent reading the given commit log. hbTable names the
// back-end heartbeat table whose row for this region the agent publishes in
// the region's word. reg receives the agent's metrics: per-region
// transactions/rows applied, apply latency, and heartbeat age at apply time
// (the propagation delay the region actually experienced); tracer, a
// repl_apply span event per propagation step that applies transactions.
func NewAgent(region *catalog.Region, log *txn.Log, hbTable string, reg *obs.Registry, tracer *obs.Tracer) *Agent {
	label := strconv.Itoa(region.ID)
	return &Agent{
		Region: region, log: log, cursor: log.Reader(), hbTable: hbTable, clock: vclock.Wall{},
		mTxns:  reg.CounterVec("repl_txns_applied_total", "region").With(label),
		mRows:  reg.CounterVec("repl_rows_applied_total", "region").With(label),
		mApply: reg.Histogram("repl_apply_latency_ns"),
		mHbAge: reg.GaugeVec("repl_heartbeat_age_ns", "region").With(label),
		tracer: tracer,
	}
}

// Interval returns the agent's effective propagation interval: the live
// override when one is set, the region's configured update interval
// otherwise.
func (a *Agent) Interval() time.Duration {
	if v := a.interval.Load(); v > 0 {
		return time.Duration(v)
	}
	return a.Region.UpdateInterval
}

// SetInterval overrides the agent's propagation interval (the paper's f)
// live; d <= 0 clears the override back to the configured value. The change
// takes effect at the next virtual-clock tick: the Coordinator recomputes
// every event's due time from the interval on each drain, so the next
// wake-up already honors the new cadence.
func (a *Agent) SetInterval(d time.Duration) {
	if d < 0 {
		d = 0
	}
	a.interval.Store(int64(d))
}

// HeartbeatInterval returns the effective heartbeat cadence: the live
// override when set, the region's configured value otherwise.
func (a *Agent) HeartbeatInterval() time.Duration {
	if v := a.hbInterval.Load(); v > 0 {
		return time.Duration(v)
	}
	return a.Region.HeartbeatInterval
}

// SetHeartbeatInterval overrides the region's heartbeat cadence live;
// d <= 0 clears the override. The heartbeat bounds how precisely guards can
// observe staleness, so the autotuner retunes it alongside the propagation
// interval.
func (a *Agent) SetHeartbeatInterval(d time.Duration) {
	if d < 0 {
		d = 0
	}
	a.hbInterval.Store(int64(d))
}

// Subscribe adds a view to the region. The caller must populate the target
// by calling InitialSync (or guarantee emptiness of the base table).
func (a *Agent) Subscribe(sub *Subscription) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.subs = append(a.subs, sub)
}

// InitialSync populates a subscription's target from a snapshot of the base
// table and aligns the agent's log position to that snapshot. In the real
// system the snapshot and the log position are taken atomically; here the
// caller must guarantee no concurrent commits (callers run it during
// quiesced setup).
func (a *Agent) InitialSync(sub *Subscription, baseData *storage.Table) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	sub.Target.Clear()
	var err error
	baseData.Scan(func(r sqltypes.Row) bool {
		var img sqltypes.Row
		a.images, img = sub.image(a.images[:0], r)
		err = sub.Target.Replace(nil, img)
		return err == nil
	})
	if err != nil {
		return err
	}
	sub.startSeq = a.log.LastSeq()
	return nil
}

// StartSeq returns the commit sequence the subscription's initial snapshot
// reflects (set by InitialSync during quiesced setup).
func (s *Subscription) StartSeq() int64 { return s.startSeq }

// SetStallProbe installs (or clears, with nil) the fault hook that can
// wedge this agent.
func (a *Agent) SetStallProbe(p StallProbe) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stall = p
}

// LastProgress returns when the agent last completed a propagation step;
// zero if it never has.
func (a *Agent) LastProgress() time.Time {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastProgress
}

// Restart simulates killing and re-execing the agent process at time now:
// progress is re-based so the watchdog does not re-fire immediately, and
// the fault injector is told so soft wedges (a stuck process) clear while
// hard ones persist. Replication state (the applied log position) survives,
// exactly as it would in a process restart.
func (a *Agent) Restart(now time.Time) {
	a.mu.Lock()
	a.lastProgress = now
	probe := a.stall
	a.mu.Unlock()
	if probe != nil {
		probe.AgentRestarted(a.Region.ID)
	}
}

// Word returns the region's state word (see storage.Word): readers load it
// before they judge or read the region and compare it after, and a guard
// judges the heartbeat it publishes.
func (a *Agent) Word() *storage.Word { return &a.word }

// Beat publishes ts as the region's heartbeat outside replication — the chaos
// harness's guard lie, tests — and moves the region's word, so a run that
// judged the heartbeat before it is repeated.
func (a *Agent) Beat(ts time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.word.Heartbeat(ts)
	a.word.Touch()
}

// Step performs one propagation wake-up at time now: it applies, in commit
// order, every transaction that committed at or before now - delay, each
// record's view changes as one unit (txn.Apply) and then its heartbeat, with
// the region's word odd around both. A record that fails leaves the views as
// they were before it, the applied sequence where it was and the heartbeat
// unpublished, and the word's version returns to that sequence with its
// moves counter stepped: the views of one agent never hold part of a
// transaction, and a reader that overlapped the record sees the word moved.
// A wake-up while the agent is wedged (StallProbe) returns immediately
// without progress.
func (a *Agent) Step(now time.Time) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.stall != nil && a.stall.AgentStalled(a.Region.ID) {
		return nil
	}
	applyStart := a.clock.Now()
	cutoff := now.Add(-a.Region.UpdateDelay)
	records := a.log.SinceUntil(a.lastSeq, cutoff)
	var txns, rows int64
	var err error
	for _, rec := range records {
		a.record, a.images = a.record[:0], a.images[:0]
		for _, ch := range rec.Changes {
			for _, sub := range a.subs {
				if sub.Base.Name == ch.Table && rec.TS.Seq > sub.startSeq {
					vc := viewChange{tbl: sub.Target}
					a.images, vc.old = sub.image(a.images, ch.Old)
					a.images, vc.new = sub.image(a.images, ch.New)
					a.record = append(a.record, vc)
				}
			}
		}
		a.word.Begin(rec.TS.Seq)
		if err = txn.Apply(len(a.record), func(i int) (*storage.Table, sqltypes.Row, sqltypes.Row) {
			return a.record[i].tbl, a.record[i].old, a.record[i].new
		}); err != nil {
			a.word.End(a.lastSeq)
			err = fmt.Errorf("repl: region %d applying seq %d: %w", a.Region.ID, rec.TS.Seq, err)
			break
		}
		for _, ch := range rec.Changes {
			if ch.Table == a.hbTable {
				a.applyHeartbeat(ch, now)
			}
		}
		a.word.End(rec.TS.Seq)
		rows += int64(len(a.record))
		txns++
		a.lastSeq = rec.TS.Seq
	}
	// What applied is counted on both exits: a record that fails leaves
	// the ones before it applied.
	if txns > 0 {
		a.mApply.ObserveDuration(a.clock.Now().Sub(applyStart))
		a.mTxns.Add(txns)
		a.mRows.Add(rows)
		a.cursor.Applied(a.lastSeq)
		a.tracer.Event(obs.EventReplApply)
	}
	if cap(a.record) > keepChanges {
		a.record, a.images = nil, nil
	}
	if err != nil {
		return err
	}
	a.lastProgress = now
	return nil
}

// keepChanges is the most view changes an agent's buffers keep room for
// between steps: a larger record, such as a bulk load's, does not leave them
// grown.
const keepChanges = 1024

// viewChange is one change of a view: Replace(old, new) on tbl.
type viewChange struct {
	tbl      *storage.Table
	old, new sqltypes.Row
}

// applyHeartbeat publishes a heartbeat row of this region in its word.
func (a *Agent) applyHeartbeat(ch txn.Change, now time.Time) {
	if ch.New == nil || int(ch.New[0].Int()) != a.Region.ID {
		return // a delete, or another region's heartbeat row
	}
	ts := ch.New[1].Time()
	// Heartbeat age at apply time: how long the beat spent in flight
	// (simulated clock), i.e. the propagation delay the region saw.
	a.mHbAge.SetDuration(now.Sub(ts))
	a.word.Heartbeat(ts)
}

// TransactionsApplied returns how many commits the agent has replayed: its
// repl_txns_applied_total{region} count.
func (a *Agent) TransactionsApplied() int64 { return a.mTxns.Value() }
