package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"relaxedcc/internal/exec"
	"relaxedcc/internal/obs"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/remote"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
)

const (
	// referenceRounds untraced rounds precede the traced pass in a -trace 1
	// run: they give the counters and the latency the traced pass is
	// compared with.
	referenceRounds = 3
	// maxTracedOps caps the traced pass so the trace file stays around ten
	// megabytes; syncOps caps the unrecorded slice before it.
	maxTracedOps = 15000
	syncOps      = 2048
	// replCycle is the longest replication interval of the standard cache
	// configuration (region CR1).
	replCycle = 15 * time.Second
	// planCacheSize mirrors mtcache's plan-cache bound: the staged replay
	// keeps its own plans under the same wholesale-eviction rule, so a
	// production hit is a staged hit.
	planCacheSize = 512
)

// staged replays each traced statement through the layers one call at a
// time, from outside: parse, print, plan or build, run.
type staged struct {
	r        *runner
	tr       *tracer
	plans    map[string]*opt.Plan
	misses   *obs.Counter
	rows     int64 // rows returned by exec.run spans
	desynced int   // ops whose replay could not mirror the production call
	// linkSelf holds, per remote fetch, its time minus the time of the same
	// query replayed directly on the back end.
	linkSelf []float64
	// tmplRun keeps exec.run durations by statement template.
	tmplRun map[string][]uint32
}

// remoteLeaves collects the Remote operators under op, over every branch of
// a SwitchUnion (the guard picks one only when the tree runs). It names the
// operators mtcache's walkUsed names plus the leaves and adapters; an
// operator it does not know is an error, so a new one cannot hide a remote
// fetch from the trace.
func remoteLeaves(op exec.Operator, out []*exec.Remote) ([]*exec.Remote, error) {
	var children []exec.Operator
	switch op := op.(type) {
	case *exec.Remote:
		return append(out, op), nil
	case *exec.Scan, *exec.ParallelScan, *exec.Values:
	case *exec.SwitchUnion:
		children = op.Children
	case *exec.Filter:
		children = []exec.Operator{op.Child}
	case *exec.Project:
		children = []exec.Operator{op.Child}
	case *exec.Sort:
		children = []exec.Operator{op.Child}
	case *exec.Limit:
		children = []exec.Operator{op.Child}
	case *exec.Distinct:
		children = []exec.Operator{op.Child}
	case *exec.Aggregate:
		children = []exec.Operator{op.Child}
	case *exec.BatchAdapter:
		children = []exec.Operator{op.Child}
	case *exec.RowAdapter:
		children = []exec.Operator{op.Child}
	case *exec.VecAdapter:
		children = []exec.Operator{op.Child}
	case *exec.IndexLoopJoin:
		children = []exec.Operator{op.Outer}
	case *exec.HashJoin:
		children = []exec.Operator{op.Left, op.Right}
	case *exec.MergeJoin:
		children = []exec.Operator{op.Left, op.Right}
	default:
		return nil, fmt.Errorf("bench: remoteLeaves does not know operator %T", op)
	}
	for _, c := range children {
		var err error
		if out, err = remoteLeaves(c, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// read traces one SELECT: the production call, then the staged replay of
// the same statement at the same virtual instant. A failed or unmirrored op
// is counted; the error is for a tree the replay cannot instrument.
func (sg *staged) read(req int32, idx uint32, rec *round) error {
	r, tr := sg.r, sg.tr
	s := &r.st.stmts[idx]
	op := tr.begin(spOp, 0, req)

	missesBefore := sg.misses.Value()
	q := tr.begin(spQuery, op, req)
	qr, err := r.sess.Query(s.sql)
	tr.end(q)
	missed := sg.misses.Value() != missesBefore
	sp := tr.spans[q-1]
	rec.readLat = append(rec.readLat, clampNS(time.Duration(sp.end-sp.start)))
	rec.reads++
	r.account(idx, qr, err, rec)
	if err != nil {
		tr.end(op)
		return nil
	}

	st := tr.begin(spStaged, op, req)
	defer func() { tr.end(st); tr.end(op) }()
	id := tr.begin(spParse, st, req)
	sel, err := sqlparser.ParseSelect(s.sql)
	tr.end(id)
	if err != nil {
		sg.desynced++
		return nil
	}
	id = tr.begin(spPrint, st, req)
	key := sqlparser.SelectSQL(sel)
	tr.end(id)

	var root exec.Operator
	plan := sg.plans[key]
	if missed || plan == nil {
		if !missed {
			sg.desynced++
		}
		id = tr.begin(spPlan, st, req)
		plan, _, err = r.sys.Cache.Plan(sel, opt.Options{})
		tr.end(id)
		if err != nil {
			sg.desynced++
			return nil
		}
		if len(sg.plans) >= planCacheSize {
			sg.plans = map[string]*opt.Plan{}
		}
		sg.plans[key] = plan
		root = plan.Root
	} else {
		id = tr.begin(spBuild, st, req)
		root, err = plan.Build()
		tr.end(id)
		if err != nil {
			sg.desynced++
			return nil
		}
	}

	// Time each remote fetch where it happens, as a child of exec.run, and
	// remember what was shipped for the back-end replay below.
	var run int32
	type fetched struct {
		sql  string
		span int32
	}
	var shipped []fetched
	leaves, err := remoteLeaves(root, nil)
	if err != nil {
		return err
	}
	for _, leaf := range leaves {
		leaf, fetch := leaf, leaf.Fetch
		leaf.Fetch = func(ctx *exec.EvalContext) ([]sqltypes.Row, error) {
			id := tr.begin(spRemote, run, req)
			rows, err := fetch(ctx)
			tr.end(id)
			shipped = append(shipped, fetched{leaf.SQL, id})
			return rows, err
		}
	}
	ctx := &exec.EvalContext{Now: r.sys.Clock.Now(), Clock: r.sys.Clock, Unavailable: remote.IsUnavailable}
	run = tr.begin(spRun, st, req)
	res, err := exec.Run(root, ctx, 0)
	tr.end(run)
	if err != nil {
		sg.desynced++
		return nil
	}
	sg.rows += int64(len(res.Rows))
	sp = tr.spans[run-1]
	sg.tmplRun[s.tmpl] = append(sg.tmplRun[s.tmpl], clampNS(time.Duration(sp.end-sp.start)))
	if len(shipped) != qr.RemoteQueries {
		sg.desynced++
	}
	for _, f := range shipped {
		id = tr.begin(spBackend, st, req)
		_, err := r.sys.Backend.Query(f.sql)
		tr.end(id)
		if err != nil {
			sg.desynced++
		}
		rem, back := tr.spans[f.span-1], tr.spans[id-1]
		sg.linkSelf = append(sg.linkSelf, float64((rem.end-rem.start)-(back.end-back.start))/1e3)
	}
	return nil
}

// write traces one DML, executed staged only: parse, then the back end's
// ExecStmt — exactly what Cache.Exec does.
func (sg *staged) write(req int32, idx uint32, rec *round) {
	r, tr := sg.r, sg.tr
	s := &r.st.stmts[idx]
	op := tr.begin(spOp, 0, req)
	st := tr.begin(spStaged, op, req)
	id := tr.begin(spParseDML, st, req)
	stmt, err := sqlparser.Parse(s.sql)
	tr.end(id)
	if err == nil {
		id = tr.begin(spExecDML, st, req)
		_, err = r.sys.Backend.ExecStmt(stmt)
		tr.end(id)
	}
	tr.end(st)
	tr.end(op)
	sp := tr.spans[st-1]
	rec.writeLat = append(rec.writeLat, clampNS(time.Duration(sp.end-sp.start)))
	if err != nil {
		rec.failed++
		r.ver.fail("%s: %v", s.sql, err)
		return
	}
	r.ver.wrote(s)
}

// run traces the next n ops of the runner's stream.
func (sg *staged) run(n int, rec *round) error {
	r, tr := sg.r, sg.tr
	start := time.Now()
	for i := 0; i < n; i++ {
		idx := r.st.ops[r.pos]
		r.pos++
		req := int32(r.pos)
		if r.st.stmts[idx].write {
			sg.write(req, idx, rec)
		} else if err := sg.read(req, idx, rec); err != nil {
			return err
		}
		if r.step() {
			id := tr.begin(spTick, 0, 0)
			err := r.tick()
			tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	rec.ops += n
	rec.wall += time.Since(start)
	return nil
}

// tracedOps is the length of the recorded traced pass: a quarter round, but
// at least one replication cycle of virtual time so every guard phase is in
// it, and at most maxTracedOps.
func (c *config) tracedOps() int {
	cycle := int(float64(replCycle/c.w.vstep) * c.opsScale)
	return min(max(c.roundOps()/4, cycle), maxTracedOps)
}

// tracedPass runs the traced pass on r: it empties the plan cache so the
// staged replay's own cache starts in step with it, traces an unrecorded
// slice until both are warm again, then records n ops.
func tracedPass(r *runner, n int) (*staged, *round, error) {
	sg := &staged{
		r:       r,
		tr:      newTracer(12 * n),
		plans:   map[string]*opt.Plan{},
		misses:  r.sys.Cache.Obs().Counter("mtcache_plan_cache_misses_total"),
		tmplRun: map[string][]uint32{},
	}
	r.sys.Cache.InvalidatePlans()
	if err := sg.run(min(n, syncOps), &r.unmeasured); err != nil {
		return nil, nil, err
	}
	sg.tr.spans = sg.tr.spans[:0]
	sg.rows, sg.linkSelf, sg.tmplRun = 0, nil, map[string][]uint32{}
	rec := &round{}
	if err := sg.run(n, rec); err != nil {
		return nil, nil, err
	}
	bad, err := r.ver.flush()
	rec.failed += bad
	return sg, rec, err
}

// counterSum adds up a counter and its labeled children in a snapshot.
func counterSum(s obs.Snapshot, name string) int64 {
	var sum int64
	for k, v := range s.Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// auditedRound runs a warm-up and one more round of the stream on a fresh
// system with the delivered-guarantee auditor on, and returns that system's
// runner (auditor's ledger, failed checks, warm-up counts) and the round.
func auditedRound(cfg *config, st *stream) (*runner, *pass, error) {
	sys, _, err := buildSystem(cfg)
	if err != nil {
		return nil, nil, err
	}
	sys.EnableAudit()
	r, err := newRunner(cfg, sys, st)
	if err != nil {
		return nil, nil, err
	}
	if err := r.warmUp(); err != nil {
		return nil, nil, err
	}
	cfg.logf("  audited round on a fresh system:\n")
	p, err := r.timedPass(1)
	return r, p, err
}

// runTraced is the -trace 1 run: reference rounds without spans, the traced
// pass, layer probes, one audited round on a fresh system and the 2-client
// probe. It reports every per-layer metric and writes the trace file.
func runTraced(cfg *config) (*outcome, error) {
	sys, _, err := buildSystem(cfg)
	if err != nil {
		return nil, err
	}
	traceOps := cfg.tracedOps()
	streamOps := cfg.warmOps() + referenceRounds*cfg.roundOps() + min(traceOps, syncOps) + traceOps
	st := buildStream(cfg.w, cfg.seed, streamOps, cfg.tpcd().Customers())
	cfg.logf("  stream: %d ops, %d distinct statements, hash %016x\n", len(st.ops), len(st.stmts), st.hash())
	r, err := newRunner(cfg, sys, st)
	if err != nil {
		return nil, err
	}
	if err := r.ver.preflight(); err != nil {
		return nil, err
	}
	if err := r.warmUp(); err != nil {
		return nil, err
	}

	// Reference rounds: counters and the untraced latency.
	reg := sys.Cache.Obs()
	var memBefore, memAfter runtime.MemStats
	snapBefore := reg.Snapshot()
	seqBefore := sys.Backend.Log().LastSeq()
	runtime.ReadMemStats(&memBefore)
	ref, err := r.timedPass(referenceRounds)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&memAfter)
	snap := reg.Snapshot()
	delta := func(name string) float64 { return float64(counterSum(snap, name) - counterSum(snapBefore, name)) }
	t := ref.total()
	ops, reads := float64(t.ops), float64(t.reads)
	var refLat []uint32
	for _, rd := range ref.rounds {
		refLat = append(refLat, rd.readLat...)
	}
	refSorted := sortedCopy(refLat)
	var refSum float64
	for _, l := range refLat {
		refSum += float64(l)
	}
	refMeanUS := ratio(refSum, float64(len(refLat))) / 1e3
	hits, misses := delta("mtcache_plan_cache_hits_total"), delta("mtcache_plan_cache_misses_total")
	guardLocal, guardRemote := delta("guard_local_total"), delta("guard_remote_total")

	// Traced pass.
	sg, traced, err := tracedPass(r, traceOps)
	if err != nil {
		return nil, err
	}
	tracedTxns := float64(counterSum(reg.Snapshot(), "repl_txns_applied_total") - counterSum(snap, "repl_txns_applied_total"))
	layers := layerStats(sg.tr.spans)
	path, err := writeTrace(cfg.outDir, cfg.w.name, sg.tr.spans)
	if err != nil {
		return nil, err
	}
	cfg.logf("  trace: %d spans of %d ops written to %s (%d ops could not be mirrored)\n", len(sg.tr.spans), traceOps, path, sg.desynced)

	// The layer-sum row: what the staged layers add up to, per read, beside
	// the production call they replay. The remainder is the session's own
	// bookkeeping (tracer, metrics, walkUsed).
	query := layers[spQuery]
	perQuery := func(n spanName) float64 { return ratio(float64(layers[n].total), float64(query.count)) / 1e3 }
	layerSum := perQuery(spParse) + perQuery(spPrint) + perQuery(spBuild) + perQuery(spPlan) + perQuery(spRun)
	selfUS := query.meanUS() - layerSum
	cfg.logf("  layer sum per read: parse %.2f + print %.2f + hit*build %.2f + miss*plan %.2f + run %.2f = %.2f us; mtcache.query %.2f us; remainder %.2f us\n",
		perQuery(spParse), perQuery(spPrint), perQuery(spBuild), perQuery(spPlan), perQuery(spRun), layerSum, query.meanUS(), selfUS)
	for n := spanName(0); n < numSpanNames; n++ {
		if l := layers[n]; l.count > 0 {
			cfg.logf("    %-20s n %-7d mean %10.2f us  self %10.2f us\n", spanNames[n], l.count, l.meanUS(), ratio(float64(l.self), float64(l.count))/1e3)
		}
	}
	tmplP50 := func(name string) float64 { return float64(percentile(sortedCopy(sg.tmplRun[name]), 0.5)) / 1e3 }
	templates := make([]string, 0, len(sg.tmplRun))
	for name := range sg.tmplRun {
		templates = append(templates, name)
	}
	sort.Strings(templates)
	for _, name := range templates {
		var sum float64
		for _, d := range sg.tmplRun[name] {
			sum += float64(d)
		}
		cfg.logf("    template %-12s n %-5d p50 %9.2f us  share of exec.run %.1f%%\n", name, len(sg.tmplRun[name]), tmplP50(name), 100*ratio(sum, float64(layers[spRun].total)))
	}
	ticks := layers[spTick]
	var tickMax int64
	for _, s := range sg.tr.spans {
		if s.name == spTick && s.end-s.start > tickMax {
			tickMax = s.end - s.start
		}
	}

	// Probes on the warmed system.
	planUS, planAllocs, err := probePlan(r)
	if err != nil {
		return nil, err
	}
	guardUS, err := probeGuard(r)
	if err != nil {
		return nil, err
	}
	getNS, scanRate := probeStorage(r)
	scale := probeScale(r, time.Duration(float64(scaleProbe)*cfg.opsScale))

	out := &outcome{correct: true}
	if err := r.ver.viewsMatchBase(); err != nil {
		r.ver.fail("%v", err)
		out.correct = false
	}
	ar, audited, err := auditedRound(cfg, st)
	if err != nil {
		return nil, err
	}
	sum := ar.sys.Audit().Summary()

	at := audited.total()
	out.attempted = r.unmeasured.ops + t.ops + traced.ops + ar.unmeasured.ops + at.ops
	out.failed = r.unmeasured.failed + t.failed + traced.failed + ar.unmeasured.failed + at.failed
	out.correct = out.correct && out.failed == 0 && sum.ViolationsTotal == 0 && sg.desynced == 0
	out.values = map[string]float64{
		"sqlparser.parse_us": layers[spParse].meanUS(),
		"sqlparser.print_us": layers[spPrint].meanUS(),
		"opt.build_us":       layers[spBuild].meanUS(),
		"exec.run_us":        layers[spRun].meanUS(),
		"exec.guard_us":      guardUS,
		"storage.get_ns":     getNS,
		"mtcache.self_us":    selfUS,

		"mtcache.plan_cache_hit_ratio": ratio(hits, hits+misses),
		"mtcache.plan_cache_misses":    misses,
		"opt.plan_us":                  planUS,
		"opt.plan_allocs":              planAllocs,
		"cc.normalize_us":              probeNormalize(),

		"remote.query_us":       layers[spRemote].meanUS(),
		"backend.query_us":      layers[spBackend].meanUS(),
		"remote.link_self_us":   median(sg.linkSelf),
		"remote.queries_per_op": ratio(float64(t.link.Queries), ops),
		"remote.rows_per_op":    ratio(float64(t.link.Rows), ops),
		"remote_kb_per_op":      ratio(float64(t.link.Bytes)/1024, ops),

		"exec.rows_per_s":              ratio(float64(sg.rows), float64(layers[spRun].self)/1e9),
		"exec.tmpl.scan_cust.p50_us":   tmplP50("scan_cust"),
		"exec.tmpl.join_local.p50_us":  tmplP50("join_local"),
		"exec.tmpl.scan_orders.p50_us": tmplP50("scan_orders"),
		"exec.tmpl.agg_nation.p50_us":  tmplP50("agg_nation"),
		"exec.tmpl.agg_top.p50_us":     tmplP50("agg_top"),
		"storage.scan_rows_per_s":      scanRate,

		"exec.guard_local_ratio": ratio(guardLocal, guardLocal+guardRemote),
		"exec.guards_per_query":  ratio(guardLocal+guardRemote, reads),

		"write_p50_us":           median(ref.wp50),
		"write_p99_us":           median(ref.wp99),
		"sqlparser.parse_dml_us": layers[spParseDML].meanUS(),
		"backend.dml_us":         layers[spExecDML].meanUS(),
		"txn.commits":            float64(sys.Backend.Log().LastSeq() - seqBefore),

		"repl.tick_us":          ticks.meanUS(),
		"repl.tick_max_us":      float64(tickMax) / 1e3,
		"repl.tick_share":       ratio(float64(ticks.total), float64(traced.wall.Nanoseconds())),
		"repl.txns_applied":     delta("repl_txns_applied_total"),
		"repl.rows_applied":     delta("repl_rows_applied_total"),
		"repl.apply_us_per_txn": ratio(float64(ticks.total)/1e3, tracedTxns),

		"runtime.gc_cycles":          float64(memAfter.NumGC - memBefore.NumGC),
		"runtime.gc_pause_total_us":  float64(memAfter.PauseTotalNs-memBefore.PauseTotalNs) / 1e3,
		"runtime.gc_pause_max_us":    gcPauseMaxUS(&memAfter, memBefore.NumGC),
		"runtime.alloc_bytes_per_op": ratio(float64(t.allocBytes), ops),
		"runtime.heap_inuse_mb":      float64(memAfter.HeapInuse) / (1 << 20),
		"bench.query_max_us":         float64(percentile(refSorted, 1)) / 1e3,

		"audit.overhead_ratio": ratio(median(ref.qps), median(audited.qps)),
		"audit.reads_checked":  float64(sum.ReadsChecked),
		"audit.violations":     float64(sum.ViolationsTotal),
		"obs.trace_sampled":    delta("trace_sampled_total"),
		"mtcache.scale_2c":     scale,

		"bench.trace_overhead_ratio": ratio(query.meanUS(), refMeanUS),
		"bench.unexplained_share":    ratio(math.Abs(selfUS), query.meanUS()),
		"bench.drift_ratio":          ratio(ref.p50[len(ref.p50)-1], ref.p50[0]),
		"bench.canary_ms":            median(ref.canaryMS()),
		"bench.host_factor":          median(ref.host),
		"bench.wall_qps":             median(ref.wallQPS),
		"bench.wall_p50_us":          median(ref.wallP50),
		"bench.wall_p99_us":          median(ref.wallP99),
		"bench.timer_ns":             probeTimer(),
	}
	out.failures = append(r.ver.failures, ar.ver.failures...)
	return out, nil
}
