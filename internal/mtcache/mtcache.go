// Package mtcache implements the mid-tier database cache — the paper's
// MTCache prototype (Section 3):
//
//  1. a shadow catalog cloned from the back end, with statistics reflecting
//     back-end data;
//  2. materialized views (selections/projections of back-end tables) kept
//     up to date by transactional replication, grouped into currency
//     regions;
//  3. each region's replicated heartbeat, published in its state word,
//     bounding replica staleness;
//  4. a query pipeline that parses, normalizes C&C constraints, optimizes
//     cost-based across local views and remote queries, and executes
//     dynamic plans with currency guards;
//  5. transparent forwarding of all inserts/deletes/updates to the back
//     end;
//  6. sessions with timeline consistency (BEGIN/END TIMEORDERED) and
//     violation actions.
package mtcache

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"relaxedcc/internal/audit"
	"relaxedcc/internal/backend"
	"relaxedcc/internal/catalog"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/obs"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/remote"
	"relaxedcc/internal/repl"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
	"relaxedcc/internal/vclock"
)

// Cache is one mid-tier database cache attached to a back-end server.
type Cache struct {
	clock vclock.Clock
	back  *backend.Server
	link  *remote.Client
	cat   *catalog.Catalog // shadow catalog

	mu     sync.RWMutex
	views  map[string]*storage.Table
	agents map[int]*repl.Agent

	// planMu guards the statement cache: one stmtEntry per statement, keyed by
	// its canonical text. Dynamic plans are exactly what makes caching safe
	// here — the currency decision is re-taken by the guard at every
	// execution, so a cached plan never pins a staleness choice (Section 3.2:
	// "this approach requires re-optimization only if a view's consistency
	// properties change"). The cache is invalidated when views or regions
	// change. byText indexes the same entries by the raw query texts that
	// reached them, so a known text is neither parsed nor printed; it never
	// holds an entry planCache dropped. Under both sits shapes, the optimized
	// templates by statement shape: a statement cache miss on a known shape is
	// one lexer pass and a bind, and plans and idle trees outlive the
	// statement cache's evictions.
	planMu    sync.Mutex
	planCache map[string]*stmtEntry
	byText    map[string]*stmtEntry
	shapes    opt.Shapes

	// obs holds the cache's metrics registry, instruments and trace store
	// (see obs.go). Always non-nil; each cache owns its registry.
	obs *cacheObs

	// oneShot is the session behind Cache.Query and Cache.ExplainAnalyze:
	// default action, never in a TIMEORDERED bracket, so it keeps nothing
	// from one statement to the next but its query context.
	oneShot *Session

	// aud is the delivered-guarantee auditor: every answered query's guard
	// decisions reach it as read events, every view registers its base
	// table and every agent reports its applies.
	aud *audit.Auditor

	// wait passes simulated time for blocking sessions, which let
	// replication catch up between guard re-evaluations, and for the link's
	// backoff and injected latency. core.System passes its coordinator's
	// Wait, so heartbeats and agents fire during every wait.
	wait func(d time.Duration)
}

// New creates a cache over the back-end server, cloning its catalog as the
// shadow catalog (empty shadow tables, back-end statistics). wait is how
// the cache and its link pass simulated time (see Cache.wait).
func New(clock vclock.Clock, back *backend.Server, wait func(time.Duration)) *Cache {
	co := newCacheObs(clock, obs.NewRegistry())
	c := &Cache{
		clock:     clock,
		back:      back,
		link:      remote.NewClient(back, clock, wait, co.reg, co.tracer),
		cat:       back.Catalog().Clone(),
		views:     map[string]*storage.Table{},
		agents:    map[int]*repl.Agent{},
		planCache: make(map[string]*stmtEntry, maxCachedPlans),
		byText:    make(map[string]*stmtEntry, maxCachedPlans),
		obs:       co,
		aud:       audit.New(co.reg, back.Log()),
		wait:      wait,
	}
	c.oneShot = c.NewSession()
	return c
}

// maxCachedPlans bounds the plan cache (evicted wholesale when exceeded —
// plan texts in a workload are few) and, separately, the raw-text index over
// it (emptied when full; its entries stay reachable by canonical text). Both
// are made at this size, so refilling one does not regrow it.
const maxCachedPlans = 512

// stmtEntry is one cached statement: everything a plan-cache hit needs.
type stmtEntry struct {
	// key is the canonical text, sqlparser.SelectSQL of the statement.
	key string
	// tmpl is the optimized shape the statement runs through — the plan and
	// its idle trees, shared with every statement that differs from this one
	// in free literals only. Nil until the statement is planned.
	tmpl *opt.Template
	// params are the statement's literal values by slot, which a tree of the
	// template reads them from; nil when the template is the statement's own.
	// Up to three (a point read's key and bound, a join's key and two
	// bounds) are kept in own, in the entry's one allocation.
	params []sqltypes.Value
	own    [3]sqltypes.Value
	// sel is a parse of key, made at first need (ast): only the sessions
	// that cannot run the cached plan plan from it. Read-only once set.
	sel atomic.Pointer[sqlparser.SelectStmt]
}

// lookupText returns the entry a raw query text reached before, or nil; with
// take set, an idle tree comes with it when there is one.
func (c *Cache) lookupText(sql string, take bool) (e *stmtEntry, root exec.Operator) {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	if e = c.byText[sql]; e != nil && take {
		root = e.tmpl.TakeIdle()
	}
	return e, root
}

// lookupShape resolves a text the index does not know, scanned to skel and
// vals, through the template of its shape: the canonical text is spliced from
// the template's and looked up. A statement met for the first time gets its
// entry here (fresh), and with store set is cached under both texts.
func (c *Cache) lookupShape(sql string, skel []byte, vals []sqltypes.Value, store, take bool) (e *stmtEntry, root exec.Operator, fresh bool) {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	t := c.shapes.Find(skel, vals)
	if t == nil {
		return nil, nil, false
	}
	key := t.Text.Splice(vals)
	if e = c.planCache[key]; e == nil {
		e, fresh = &stmtEntry{key: key, tmpl: t}, true
		e.params = append(e.own[:0], vals...)
		if store {
			c.storeLocked(e, sql)
		}
	} else {
		c.fileText(sql, e)
	}
	if take {
		root = e.tmpl.TakeIdle()
	}
	return e, root, fresh
}

// lookupKey is lookupText by canonical text, for a statement that had to be
// parsed; a hit also files the raw text (unless empty) under the entry.
func (c *Cache) lookupKey(key, sql string, take bool) (e *stmtEntry, root exec.Operator) {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	if e = c.planCache[key]; e != nil {
		c.fileText(sql, e)
		if take {
			root = e.tmpl.TakeIdle()
		}
	}
	return e, root
}

// fileText points the raw text at an entry of planCache. Called with planMu
// held.
func (c *Cache) fileText(sql string, e *stmtEntry) {
	if sql == "" {
		return
	}
	if len(c.byText) >= maxCachedPlans {
		c.byText = make(map[string]*stmtEntry, maxCachedPlans)
	}
	c.byText[sql] = e
}

// storePlanned caches a statement the session just optimized: the plan goes
// to the shape cache, which answers with the statement's template — another
// session's when that one planned the shape first — and its parameters. When
// another session cached the same statement first, that entry stays and e
// remains private to its query.
func (c *Cache) storePlanned(e *stmtEntry, p *parsed, plan *opt.Plan) {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	e.tmpl, e.params = c.shapes.Add(p.skel, p.vals, p.sel, plan) // p.vals is p's own copy
	c.storeLocked(e, p.sql)
}

// storeLocked puts e in the plan cache (unless its statement is there) and
// files the raw text under the cached entry. Called with planMu held.
func (c *Cache) storeLocked(e *stmtEntry, sql string) {
	if cur := c.planCache[e.key]; cur != nil {
		e = cur
	} else {
		if len(c.planCache) >= maxCachedPlans {
			c.planCache, c.byText = make(map[string]*stmtEntry, maxCachedPlans), make(map[string]*stmtEntry, maxCachedPlans)
		}
		c.planCache[e.key] = e
	}
	c.fileText(sql, e)
}

// checkIn hands a tree back after a clean run, for the next statement of the
// shape to run again. A tree whose entry is no longer the cached one
// (evicted, invalidated, or never stored) is dropped.
func (c *Cache) checkIn(e *stmtEntry, root exec.Operator) {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	if c.planCache[e.key] == e {
		e.tmpl.CheckIn(root)
	}
}

// InvalidatePlans drops all cached plans; called when the set of views or
// regions changes (a view's consistency properties changed — the paper's
// re-optimization trigger).
func (c *Cache) InvalidatePlans() {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	c.planCache, c.byText = make(map[string]*stmtEntry, maxCachedPlans), make(map[string]*stmtEntry, maxCachedPlans)
	c.shapes.Reset()
}

// Catalog returns the cache's shadow catalog.
func (c *Cache) Catalog() *catalog.Catalog { return c.cat }

// Link returns the remote link (for stats and failure injection).
func (c *Cache) Link() *remote.Client { return c.link }

// Clock returns the cache's time source.
func (c *Cache) Clock() vclock.Clock { return c.clock }

// SyncShadowSchema mirrors any back-end tables and indexes created since the
// cache was attached into the shadow catalog (the paper's shadow database of
// empty tables with back-end statistics). It stops at the first definition
// the shadow catalog rejects.
func (c *Cache) SyncShadowSchema() error {
	for _, t := range c.back.Catalog().Tables() {
		shadow := c.cat.Table(t.Name)
		if shadow == nil {
			if err := c.cat.AddTable(t.Clone()); err != nil {
				return fmt.Errorf("mtcache: shadow of %s: %w", t.Name, err)
			}
			continue
		}
		for _, idx := range t.Indexes {
			found := false
			for _, have := range shadow.Indexes {
				if have.Name == idx.Name {
					found = true
					break
				}
			}
			if !found {
				ic := *idx
				ic.Columns = append([]string(nil), idx.Columns...)
				if err := c.cat.AddIndex(&ic); err != nil {
					return fmt.Errorf("mtcache: shadow of %s: %w", t.Name, err)
				}
			}
		}
	}
	return nil
}

// RefreshShadowStats re-copies statistics from the back-end catalog into the
// shadow catalog (run after loading or ANALYZE on the back end).
func (c *Cache) RefreshShadowStats() error {
	if err := c.SyncShadowSchema(); err != nil {
		return err
	}
	for _, t := range c.back.Catalog().Tables() {
		shadow := c.cat.Table(t.Name)
		if shadow == nil {
			continue
		}
		src := t.Stats.Clone()
		shadow.Stats.Set(src.Rows(), src.RowBytes(), src.Columns)
		// Views over this table share its statistics.
		for _, v := range c.cat.ViewsOf(t.Name) {
			c.mu.RLock()
			vt := c.views[v.Name]
			c.mu.RUnlock()
			if vt != nil {
				vt.Def().Stats.Set(src.Rows(), src.RowBytes(), src.Columns)
			}
		}
	}
	return nil
}

// AddRegion registers a currency region on both servers and creates its
// distribution agent; the link's breaker probes no more often than the
// slowest region heartbeat (remote.Client.PaceProbes).
func (c *Cache) AddRegion(r *catalog.Region) (*repl.Agent, error) {
	if err := c.back.RegisterRegion(r); err != nil {
		return nil, err
	}
	// Mirror into the shadow catalog.
	rc := *r
	if err := c.cat.AddRegion(&rc); err != nil {
		return nil, err
	}
	c.link.PaceProbes(rc.HeartbeatInterval)
	agent := repl.NewAgent(&rc, c.back.Log(), backend.HeartbeatTable)
	agent.Instrument(c.obs.reg)
	agent.SetTracer(c.obs.tracer)
	agent.SetApplySink(c.aud.ObserveApply)
	c.mu.Lock()
	c.agents[r.ID] = agent
	c.mu.Unlock()
	return agent, nil
}

// Agent returns the region's distribution agent.
func (c *Cache) Agent(regionID int) *repl.Agent {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.agents[regionID]
}

// Agents returns all distribution agents, ordered by region id.
func (c *Cache) Agents() []*repl.Agent {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := make([]int, 0, len(c.agents))
	for id := range c.agents {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]*repl.Agent, 0, len(ids))
	for _, id := range ids {
		out = append(out, c.agents[id])
	}
	return out
}

// SetLastSync publishes ts as the region's heartbeat outside replication —
// the chaos harness's guard lie, tests — through the region's agent
// (repl.Agent.Beat), which moves the region's word with it. A region without
// an agent has no heartbeat to set.
func (c *Cache) SetLastSync(regionID int, ts time.Time) {
	if a := c.Agent(regionID); a != nil {
		a.Beat(ts)
	}
}

// LastSync returns the region's replicated heartbeat as its word publishes
// it, for the ops surface and callers outside a query. No query reads it: a
// guard loads the word itself, and its decision carries the timestamp it
// judged.
func (c *Cache) LastSync(regionID int) (time.Time, bool) {
	return c.word(regionID).Synced()
}

// word returns the region's state word, nil for a region without an agent.
func (c *Cache) word(regionID int) *storage.Word {
	if a := c.Agent(regionID); a != nil {
		return a.Word()
	}
	return nil
}

// Audit returns the cache's delivered-guarantee auditor.
func (c *Cache) Audit() *audit.Auditor { return c.aud }

// CreateView defines a materialized view on the cache: it creates local
// storage with the given extra secondary indexes, registers the matching
// replication subscription with the region's agent, and populates the view
// from the current back-end state (the automatic subscription of the
// paper's step 3).
func (c *Cache) CreateView(view *catalog.View, extraIndexes ...*catalog.Index) error {
	if err := c.SyncShadowSchema(); err != nil {
		return err
	}
	base := c.cat.Table(view.BaseTable)
	if base == nil {
		return fmt.Errorf("mtcache: view %s: unknown base table %s", view.Name, view.BaseTable)
	}
	if err := c.cat.AddView(view); err != nil {
		return err
	}
	agent := c.Agent(view.RegionID)
	if agent == nil {
		return fmt.Errorf("mtcache: view %s: region %d has no agent", view.Name, view.RegionID)
	}
	// The view's stored layout: projected base columns, base primary key,
	// clustered index on the PK plus any extra indexes.
	def := &catalog.Table{Name: view.Name, PrimaryKey: append([]string(nil), base.PrimaryKey...)}
	for _, col := range view.Columns {
		def.Columns = append(def.Columns, *base.Column(col))
	}
	for _, idx := range extraIndexes {
		ic := *idx
		ic.Table = view.Name
		def.Indexes = append(def.Indexes, &ic)
	}
	tmp := catalog.New()
	if err := tmp.AddTable(def); err != nil { // validates and adds clustered PK index
		return err
	}
	stats := base.Stats.Clone()
	def.Stats.Set(stats.Rows(), stats.RowBytes(), stats.Columns)
	target := storage.NewTable(def)

	sub, err := repl.NewSubscription(view, base, target)
	if err != nil {
		return err
	}
	baseData := c.back.Table(view.BaseTable)
	if baseData == nil {
		return fmt.Errorf("mtcache: back end has no table %s", view.BaseTable)
	}
	agent.Subscribe(sub)
	if err := agent.InitialSync(sub, baseData); err != nil {
		return err
	}
	c.aud.RegisterObject(view.RegionID, view.BaseTable, sub.StartSeq())
	c.mu.Lock()
	c.views[view.Name] = target
	c.mu.Unlock()
	c.InvalidatePlans()
	return nil
}

// ViewData returns the local storage of a materialized view, or nil.
func (c *Cache) ViewData(name string) *storage.Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.views[name]
}

// planner builds a planner for the given per-query options.
func (c *Cache) planner(opts opt.Options) *opt.Planner {
	site := &opt.Site{
		Cat:        c.cat,
		LocalTable: func(string) *storage.Table { return nil }, // shadow tables are empty
		LocalView:  c.ViewData,
		Remote:     c.link,
		Word:       c.word,
		Clock:      c.clock,
	}
	return &opt.Planner{Site: site, Opts: opts}
}

// Plan optimizes a SELECT with the given options (exposed for benchmarks
// and the experiment harness).
func (c *Cache) Plan(sel *sqlparser.SelectStmt, opts opt.Options) (*opt.Plan, *opt.Query, error) {
	return c.planner(opts).PlanSelect(sel)
}

// PlanCandidates returns every plan the optimizer chooses among for sel,
// built (for the plan-regret report, which times them all).
func (c *Cache) PlanCandidates(sel *sqlparser.SelectStmt, opts opt.Options) ([]*opt.Plan, error) {
	return c.planner(opts).Candidates(sel)
}

// QueryResult augments an execution result with plan and guard outcomes.
type QueryResult struct {
	*exec.Result
	// Plan is the executed plan.
	Plan *opt.Plan
	// LocalViews lists guards that chose their local branch, by label, in
	// the order they decided (an inner guard before the guard around it).
	LocalViews []string
	// RemoteQueries counts the remote queries that answered: the successful
	// fetches of the run.
	RemoteQueries int
	// ServedStale is set when the violation action downgraded to stale
	// local data after a remote failure.
	ServedStale bool
	// Degraded is set when any guard served its local branch because the
	// remote fall-back was unavailable (ActionServeLocal).
	Degraded bool
	// Violations lists the decisions of the run that answered on which a
	// violation action acted — a degraded serve or a blocked guard — in the
	// order they were taken: the paper's violation actions made visible to
	// the client.
	Violations []exec.GuardDecision
	// AsOf is a conservative bound on the snapshot time of the data used:
	// the minimum last-synchronized timestamp across the local sources that
	// answered (query start time when everything came from the master).
	// Zero only for statements that read nothing.
	AsOf time.Time
	// Trace is the annotated execution trace, set only for EXPLAIN ANALYZE.
	Trace *obs.TraceNode
	// Explained is set for plain EXPLAIN: the statement was planned but not
	// executed (Rows is empty, Plan describes the choice).
	Explained bool

	// res and views back Result and LocalViews, and rows and vals are the
	// storage res is Reserved, so that one allocation holds an executed
	// statement's result with up to two local views and a one-row answer of
	// up to three columns: a point read (352 bytes, exactly a size class).
	res   exec.Result
	views [2]string
	rows  [1]sqltypes.Row
	vals  [3]sqltypes.Value
}

// Query runs one SELECT outside any session (default options and actions).
func (c *Cache) Query(sql string) (*QueryResult, error) {
	return c.oneShot.Query(sql)
}

// ExplainAnalyze runs one SELECT outside any session with per-operator
// tracing enabled; the result carries the execution trace.
func (c *Cache) ExplainAnalyze(sql string) (*QueryResult, error) {
	return c.oneShot.ExplainAnalyze(sql)
}

// Exec forwards a DML statement's text transparently to the back-end server
// (the paper's step 5), which parses it or knows its shape. DDL is rejected:
// cache contents are defined through CreateView.
func (c *Cache) Exec(sql string) (int, error) {
	n, err := c.back.ExecDML(sql)
	if errors.Is(err, backend.ErrNotDML) {
		err = fmt.Errorf("mtcache: only DML is forwarded; use the cache API for definitions")
	}
	return n, err
}

// ViolationAction selects the session's behavior when a query's constraints
// cannot be met because the remote fall-back failed (Section 1 lists the
// options a system could take).
type ViolationAction int

// Violation actions.
const (
	// ActionError fails the query (default).
	ActionError ViolationAction = iota
	// ActionServeStale re-plans the whole query against local views with
	// currency checking disabled, marking the result ServedStale. It is the
	// coarsest degradation: staleness becomes unknown.
	ActionServeStale
	// ActionServeLocal degrades per guard: a SwitchUnion whose remote branch
	// is unavailable answers from its guarded local branch and records an
	// explicit staleness-violation warning (QueryResult.Violations). Unlike
	// ActionServeStale the result's staleness is still observed and bounded
	// by the heartbeat.
	ActionServeLocal
	// ActionBlock re-evaluates a failed currency guard on the region's
	// replication cadence until it passes or the session's wait budget
	// (MaxBlockWaits) runs out, trading latency for currency.
	ActionBlock
)

// DefaultBlockWaits bounds ActionBlock's guard re-evaluations when the
// session does not set MaxBlockWaits: enough for one full heartbeat →
// propagation cycle plus scheduling slack, small enough that an unhealable
// region fails the query rather than hanging the session.
const DefaultBlockWaits = 4

// Session is one client session: it carries timeline-consistency state and
// the violation action.
type Session struct {
	cache  *Cache
	Action ViolationAction
	// MaxBlockWaits bounds guard re-evaluations under ActionBlock; zero
	// means DefaultBlockWaits.
	MaxBlockWaits int
	// Tenant labels the session's queries with a tenant class in sampled
	// trace records (the load generator's multi-tenant attribution). Empty
	// means unattributed; the field is read-only once traffic flows.
	Tenant string

	mu          sync.Mutex
	timeOrdered bool
	floor       time.Time

	// slot parks the session's query context between queries (see queryCtx).
	slot atomic.Pointer[queryCtx]
}

// NewSession opens a session.
func (c *Cache) NewSession() *Session { return &Session{cache: c} }

// TimeOrdered reports whether the session is inside a TIMEORDERED bracket.
func (s *Session) TimeOrdered() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.timeOrdered
}

// Floor returns the current timeline-consistency floor.
func (s *Session) Floor() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.floor
}

// cacheable reports whether a plan made with opts can be shared: only one
// made with default options. A timeline session's floor is baked into its
// guards, so its plans are its own.
func cacheable(opts opt.Options) bool { return opts == (opt.Options{}) }

// planOptions returns the session's per-query planning options: a timeline
// session carries its floor into the guards.
func (s *Session) planOptions() opt.Options {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.timeOrdered {
		return opt.Options{MinSync: s.floor}
	}
	return opt.Options{}
}

// Execute runs any statement in the session: SELECTs are optimized and run
// with C&C enforcement; DML forwards to the back end (returning an empty
// result); BEGIN/END TIMEORDERED toggle timeline consistency.
func (s *Session) Execute(sql string) (*QueryResult, error) { return s.text(sql, false, true) }

// Query runs one SELECT in the session.
func (s *Session) Query(sql string) (*QueryResult, error) { return s.text(sql, false, false) }

// ExplainAnalyze runs one SELECT with execution tracing: the result carries
// the annotated plan tree (per-node time, rows, guard verdicts) in Trace,
// and the trace is retained in the cache's TraceStore for /trace/last.
func (s *Session) ExplainAnalyze(sql string) (*QueryResult, error) { return s.text(sql, true, false) }

// text runs the statement in sql — a SELECT, or with anyStmt set whatever
// Execute takes. A text seen before runs its cached statement with no look
// at the text at all.
func (s *Session) text(sql string, analyze, anyStmt bool) (*QueryResult, error) {
	opts := s.planOptions()
	if e, root := s.cache.lookupText(sql, !analyze && cacheable(opts)); e != nil {
		return s.query(e, root, false, nil, opts, analyze)
	}
	return s.unknownText(sql, opts, analyze, anyStmt)
}

// parsed is what the miss path knows of a statement it had to parse: the
// raw text to file it under (empty for none), the text's skeleton and token
// values (nil when its shape is not to be shared), and the parse.
type parsed struct {
	sql  string
	skel []byte
	vals []sqltypes.Value
	sel  *sqlparser.SelectStmt
	took time.Duration
}

// unknownText resolves a text the raw-text index does not know. One lexer
// pass yields its skeleton and literals; a statement of a known shape takes
// its canonical text and its plan from the shape's template, and only a shape
// (or a set of pinned values) met for the first time is parsed and optimized.
func (s *Session) unknownText(sql string, opts opt.Options, analyze, anyStmt bool) (*QueryResult, error) {
	c := s.cache
	var kb [256]byte
	var vb [8]sqltypes.Value
	shared := cacheable(opts)
	skel, vals, ok := sqlparser.Scan(sql, kb[:0], vb[:0])
	if ok && anyStmt && sqlparser.IsDML(skel) {
		// Forwarded as text: the back end parses it or knows its shape.
		if _, err := c.back.ExecDML(sql); err != nil {
			return nil, err
		}
		return &QueryResult{Result: &exec.Result{}}, nil
	}
	if ok {
		if e, root, fresh := c.lookupShape(sql, skel, vals, shared, shared && !analyze); e != nil {
			return s.query(e, root, fresh, nil, opts, analyze)
		}
	}
	parseStart := c.clock.Now()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	p := &parsed{took: c.clock.Now().Sub(parseStart)}
	switch stmt := stmt.(type) {
	case *sqlparser.SelectStmt:
		// The copies keep the scan's buffers on this frame's stack.
		p.sel, p.sql, p.skel, p.vals = stmt, sql, slices.Clone(skel), slices.Clone(vals)
	case *sqlparser.ExplainStmt:
		if !anyStmt {
			break
		}
		if !stmt.Analyze {
			return s.explain(stmt.Stmt)
		}
		// The text names the EXPLAIN, not the SELECT: neither it nor its
		// skeleton is filed.
		p.sel, analyze = stmt.Stmt, true
	default:
		if anyStmt {
			return s.other(stmt)
		}
	}
	if p.sel == nil {
		return nil, fmt.Errorf("sql: expected SELECT statement")
	}
	// Print the statement's canonical text and look it up by that.
	key := sqlparser.SelectSQL(p.sel)
	e, root := c.lookupKey(key, p.sql, shared && !analyze)
	if e == nil {
		e = &stmtEntry{key: key} // not cached, not planned yet
	}
	return s.query(e, root, false, p, opts, analyze)
}

// other runs a statement that is neither a SELECT nor DML: the session
// brackets.
func (s *Session) other(stmt sqlparser.Statement) (*QueryResult, error) {
	switch stmt := stmt.(type) {
	case *sqlparser.BeginTimeOrderedStmt, *sqlparser.EndTimeOrderedStmt:
		_, begin := stmt.(*sqlparser.BeginTimeOrderedStmt)
		s.mu.Lock()
		s.timeOrdered = begin
		s.floor = time.Time{}
		s.mu.Unlock()
	default:
		return nil, fmt.Errorf("mtcache: unsupported statement in session")
	}
	return &QueryResult{Result: &exec.Result{}}, nil
}

// explain plans the SELECT without executing it (plain EXPLAIN).
func (s *Session) explain(sel *sqlparser.SelectStmt) (*QueryResult, error) {
	plan, _, err := s.cache.Plan(sel, s.planOptions())
	if err != nil {
		return nil, err
	}
	return &QueryResult{Result: &exec.Result{}, Plan: plan, Explained: true}, nil
}

// ast returns the statement's parse — what the sessions that cannot run the
// cached plan (timeline, serve-stale) plan from: the miss path's when the text
// came that way, else a parse of the canonical text, made once and kept.
func (e *stmtEntry) ast(p *parsed) (*sqlparser.SelectStmt, error) {
	if p != nil {
		return p.sel, nil
	}
	if sel := e.sel.Load(); sel != nil {
		return sel, nil
	}
	sel, err := sqlparser.ParseSelect(e.key)
	if err != nil {
		return nil, err
	}
	e.sel.CompareAndSwap(nil, sel)
	return e.sel.Load(), nil
}

// query runs the statement e. On a plan-cache hit it runs the template's
// plan, through the idle tree root when the lookup checked one out, reading
// the statement's literals from its parameters; so does a statement just made
// from a known shape (fresh), which counts as the miss it is. A statement
// with no plan yet is optimized, and cached, with its template, when the plan
// was made with default options. p is the miss path's parse, nil when the
// text was not parsed. The query runs in the session's query context, checked
// out here and handed back, its sampled record published, by the one deferred
// end.
func (s *Session) query(e *stmtEntry, root exec.Operator, fresh bool, p *parsed, opts opt.Options, analyze bool) (qr *QueryResult, err error) {
	c := s.cache
	q := s.begin(e.key)
	defer q.end(&err)
	if p != nil {
		q.qt.Parse(p.took)
	}
	var planStart time.Time
	if q.qt != nil {
		planStart = c.clock.Now()
	}
	// A shared plan is safe to run again because the currency guard re-takes
	// the freshness decision at every execution. A session whose plans are
	// its own plans afresh.
	shared := cacheable(opts)
	var plan *opt.Plan
	var setup time.Duration
	params := e.params
	if e.tmpl == nil || !shared {
		c.obs.planMisses.Inc()
		sel, err := e.ast(p)
		if err == nil {
			plan, _, err = c.Plan(sel, opts)
		}
		if err != nil {
			return nil, err
		}
		root, setup, params = plan.Root, plan.Setup, nil
		if shared {
			// The entry keeps the plan without its tree: a result's Plan must
			// not lead to a tree some other query is running.
			c.storePlanned(e, p, plan)
			plan, params = e.tmpl.Plan, e.params
		}
	} else {
		if fresh {
			c.obs.planMisses.Inc()
		} else {
			c.obs.planHits.Inc()
		}
		if plan = e.tmpl.Plan; root == nil {
			if root, err = plan.Build(); err != nil {
				return nil, err
			}
		}
	}
	if q.qt != nil {
		q.qt.Plan(c.clock.Now().Sub(planStart))
	}
	qr, err = s.run(q, plan, root, params, setup, analyze, e.key)
	if err != nil {
		// The tree is dropped with whatever the failed run left in it.
		if s.Action == ActionServeStale && remote.IsUnavailable(err) {
			return s.serveStale(q, e, p)
		}
		return nil, err
	}
	if shared && !analyze {
		c.checkIn(e, root)
	}
	return qr, nil
}

// degradeMode maps the session's violation action onto the operator-level
// degraded mode applied inside SwitchUnion.
func (s *Session) degradeMode() exec.DegradeMode {
	switch s.Action {
	case ActionServeLocal:
		return exec.DegradeServeLocal
	case ActionBlock:
		return exec.DegradeBlock
	default:
		return exec.DegradeFail
	}
}

// guardRetry paces one blocked guard re-evaluation (EvalContext.GuardRetry):
// it waits one replication interval of the stale region — the agent's
// effective interval, which the autotuner may have retuned — so the next
// check sees fresher data, and cuts off at the session's wait budget.
func (s *Session) guardRetry(region, attempt int) bool {
	max := s.MaxBlockWaits
	if max <= 0 {
		max = DefaultBlockWaits
	}
	if attempt > max {
		return false
	}
	iv := time.Second
	if a := s.cache.Agent(region); a != nil && a.Interval() > 0 {
		iv = a.Interval()
	}
	s.cache.wait(iv)
	return true
}

// run executes one tree of a plan in the query's context and updates the
// session's timeline floor from the sources actually used, as the guard
// decisions (queryCtx.guard) and the run's remote fetches report them: a
// local source is as of the heartbeat its guard judged, a remote one as of
// the statement's instant, EvalContext.Now, read from the clock once per run.
// After the run it checks that the state word of every region a guard served
// locally has not moved (queryCtx.moved): a moved word means the local rows
// may straddle an apply, and the tree runs again; when the word moves again,
// once more with every guard sent remote. Each outcome is counted, and only
// the run that answered reaches the ledger, the trace and the auditor. With
// analyze set, the tree is instrumented (in place) and the result carries the
// annotated trace of its runs, a repeated one counted in each node's Opens
// (retained in the cache's TraceStore under sql).
func (s *Session) run(q *queryCtx, plan *opt.Plan, root exec.Operator, params []sqltypes.Value, setup time.Duration, analyze bool, sql string) (*QueryResult, error) {
	c := s.cache
	o := c.obs
	o.queries.Inc()
	qr := &QueryResult{Plan: plan}
	qr.Result = &qr.res
	qr.res.Reserve(qr.rows[:], qr.vals[:])
	if analyze {
		if params != nil {
			spliceRemotes(root, params)
		}
		root, qr.Trace = exec.Instrument(root)
	}
	q.qr, q.observed, q.oldest = qr, time.Time{}, time.Time{}
	var execStart time.Time
	var retriesBefore int64
	if q.qt != nil {
		retriesBefore = c.link.Stats().Retries
		execStart = c.clock.Now()
	}
	var err error
	for run := 0; ; run++ {
		q.decisions, q.reads = q.decisions[:0], q.reads[:0]
		q.ev.Now, q.ev.Degrade, q.ev.Params, q.ev.Fetches = c.clock.Now(), s.degradeMode(), params, 0
		q.ev.RemoteOnly = run == 2
		if err = exec.RunInto(&qr.res, root, &q.ev, setup); err != nil || run == 2 || !q.moved() {
			break
		}
		if run == 0 {
			o.reruns.Inc()
		} else {
			o.rerunsRemote.Inc()
		}
	}
	if q.qt != nil {
		q.qt.Exec(c.clock.Now().Sub(execStart))
		q.qt.Retries(c.link.Stats().Retries - retriesBefore)
	}
	if err != nil {
		q.qr = nil
		return nil, err
	}
	q.publish()
	q.qr = nil
	if qr.Trace != nil {
		o.traces.Set(sql, qr.Trace)
	}
	if qr.RemoteQueries = q.ev.Fetches; qr.RemoteQueries > 0 {
		o.remoteQueries.Add(int64(qr.RemoteQueries))
		q.note(q.ev.Now)
	}
	qr.AsOf = q.oldest
	s.mu.Lock()
	if s.timeOrdered && q.observed.After(s.floor) {
		s.floor = q.observed
	}
	s.mu.Unlock()
	c.aud.Reads(q.reads)
	return qr, nil
}

// spliceRemotes gives every Remote of a tree about to be instrumented the
// text it ships for params: the trace names a Remote by its text, executed or
// not, and the tree may have been built for another statement of the shape.
func spliceRemotes(op exec.Operator, params []sqltypes.Value) {
	if r, ok := op.(*exec.Remote); ok && len(r.Text.Slots) > 0 {
		r.SQL = r.Text.Splice(params)
	}
	exec.VisitChildren(op, func(c *exec.Operator) { spliceRemotes(*c, params) })
}

// serveStale is the ActionServeStale fall-back: answer from local views
// without currency checking, flagging the result. The rerun executes
// guardless and untraced — the sampled record keeps the failed run's timings
// and is marked degraded instead of through a guard event, its staleness
// unknown.
func (s *Session) serveStale(q *queryCtx, e *stmtEntry, p *parsed) (*QueryResult, error) {
	c := s.cache
	var plan *opt.Plan
	sel, err := e.ast(p)
	if err == nil {
		plan, _, err = c.Plan(sel, opt.Options{NoGuards: true, ForceLocal: true, IgnoreConstraints: true})
	}
	if err != nil {
		return nil, fmt.Errorf("mtcache: remote unavailable and no local data: %w", err)
	}
	if !plan.UsesLocal {
		return nil, fmt.Errorf("mtcache: remote unavailable and no matching local view")
	}
	qt := q.qt
	q.qt = nil
	qr, err := s.run(q, plan, plan.Root, nil, plan.Setup, false, "")
	q.qt = qt
	if err != nil {
		return nil, err
	}
	qr.ServedStale = true
	c.obs.servedStale.Inc()
	qr.AsOf = time.Time{} // staleness unknown: no guard vouched for it
	// The guardless rerun produced no read events; record the downgrade
	// itself as one disclosed serve of the query it downgraded (staleness
	// unknown, promise waived).
	ev := audit.ReadEvent{ServedStale: true, ServeTSNS: c.clock.Now().UnixNano()}
	ev.Query = q.ev.Query
	c.aud.Reads(append(q.reads[:0], ev))
	q.qt.MarkDegraded()
	return qr, nil
}
