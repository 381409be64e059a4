package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"relaxedcc/internal/core"
	"relaxedcc/internal/mtcache"
	"relaxedcc/internal/remote"
	"relaxedcc/internal/tpcd"
)

const (
	// dataSeed fixes the generated database; -seed varies the op stream only.
	dataSeed = 2004
	// timedRounds equal rounds continue one op stream; the median is reported
	// and no round is ever dropped.
	timedRounds = 5
	// tickEvery ops the accumulated virtual time is applied with sys.RunTo,
	// firing heartbeats and distribution agents inline.
	tickEvery = 10
	// setupBuilds system builds give setup_s its median.
	setupBuilds = 5
	// timedRuns timed runs per workload make one set of runs, which is what
	// -compare judges: five, so that the quartiles are not the extremes.
	timedRuns = 5
)

// config is one single-workload run.
type config struct {
	w       *workload
	seed    int64
	seconds int
	// scale is the TPC-D scale factor (0.1: 15,000 customers, 150,000
	// orders) and opsScale multiplies every op count; the smoke test shrinks
	// both.
	scale    float64
	opsScale float64
	outDir   string
	log      io.Writer
	// host is the host-speed reference, made by runOne.
	host *hostProbe
}

func (c *config) roundOps() int {
	n := int(c.w.opsPerSec * float64(c.seconds) / timedRounds * c.opsScale)
	if n < 4*tickEvery {
		n = 4 * tickEvery
	}
	return n
}

func (c *config) warmOps() int { return c.roundOps() / 2 }

// probeEvery is the op count between two host probes of a timed round.
func (c *config) probeEvery() int { return max(1, int(c.w.opsPerSec*probeGap.Seconds())) }

func (c *config) tpcd() tpcd.Config { return tpcd.Config{ScaleFactor: c.scale, Seed: dataSeed} }

func (c *config) logf(format string, args ...any) { fmt.Fprintf(c.log, format, args...) }

// round is what one slice of ops measured.
type round struct {
	ops, reads, local, failed int
	// wall is the time the ops and their ticks took; the host probes run
	// between them are not in it.
	wall, canary        time.Duration
	readLat, writeLat   []uint32  // ns
	host                []float64 // ns per host probe
	mallocs, allocBytes uint64
	link                remote.Stats
}

func (r *round) qps() float64 { return ratio(float64(r.ops), r.wall.Seconds()) }

func clampNS(d time.Duration) uint32 {
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// runner drives one system with one closed-loop client: the next op is sent
// only after the previous one returned, as an app-server thread would.
type runner struct {
	cfg  *config
	sys  *core.System
	sess *mtcache.Session
	st   *stream
	ver  *verifier
	// pos is the next op of the stream; vnow the virtual time the ops so far
	// add up to; sysNow the time last applied to the system.
	pos       int
	vnow      time.Time
	sysNow    time.Time
	sinceTick int
	// unmeasured collects the slices that are run but not timed (the warm-up,
	// the traced pass's unrecorded start). Their answers are checked like any
	// other, so their ops and failures count towards attempted and failed.
	unmeasured round
}

func newRunner(cfg *config, sys *core.System, st *stream) (*runner, error) {
	ver, err := newVerifier(sys, st, cfg.w.model)
	if err != nil {
		return nil, err
	}
	now := sys.Clock.Now()
	return &runner{cfg: cfg, sys: sys, sess: sys.Cache.NewSession(), st: st, ver: ver, vnow: now, sysNow: now}, nil
}

// step accounts one completed op's virtual time and reports whether a tick
// is due.
func (r *runner) step() bool {
	r.vnow = r.vnow.Add(r.cfg.w.vstep)
	r.sinceTick++
	return r.sinceTick >= tickEvery
}

func (r *runner) tick() error {
	r.sinceTick = 0
	r.sysNow = r.vnow
	return r.sys.RunTo(r.vnow)
}

// run issues the next n ops untraced, timing each call and nothing else.
// With probeEvery > 0 it runs the host probe after every so many ops.
func (r *runner) run(n int, rec *round, probeEvery int) error {
	start := time.Now()
	var probing time.Duration
	for i := 0; i < n; i++ {
		idx := r.st.ops[r.pos]
		r.pos++
		s := &r.st.stmts[idx]
		if s.write {
			t0 := time.Now()
			_, err := r.sys.Exec(s.sql)
			rec.writeLat = append(rec.writeLat, clampNS(time.Since(t0)))
			if err != nil {
				rec.failed++
				r.ver.fail("%s: %v", s.sql, err)
			} else {
				r.ver.wrote(s)
			}
		} else {
			t0 := time.Now()
			qr, err := r.sess.Query(s.sql)
			rec.readLat = append(rec.readLat, clampNS(time.Since(t0)))
			rec.reads++
			r.account(idx, qr, err, rec)
		}
		if r.step() {
			if err := r.tick(); err != nil {
				return err
			}
		}
		if probeEvery > 0 && (i+1)%probeEvery == 0 {
			d := r.cfg.host.once()
			rec.host = append(rec.host, float64(d))
			probing += d
		}
	}
	rec.ops += n
	rec.wall += time.Since(start) - probing
	return nil
}

// account classifies one read's answer.
func (r *runner) account(idx uint32, qr *mtcache.QueryResult, err error, rec *round) {
	switch {
	case err != nil:
		rec.failed++
		r.ver.fail("%s: %v", r.st.stmts[idx].sql, err)
	case !r.ver.checkRead(idx, qr, r.sysNow):
		rec.failed++
	case qr.RemoteQueries == 0:
		rec.local++
	}
}

// canary times a fixed integer loop, so a slow host shows as a slow canary
// and not as a slow commit.
func canary() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 10_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	if x == 0 { // never true for xorshift; keeps the loop from being optimised away
		return 0
	}
	return time.Since(start)
}

// measuredRound runs one timed round: canary, a collection so every round
// starts from the same heap state, then n ops bracketed by counter reads,
// then the deferred answer comparison.
func (r *runner) measuredRound(n int) (*round, error) {
	rec := &round{readLat: make([]uint32, 0, n), writeLat: make([]uint32, 0, n/8), host: make([]float64, 0, n/r.cfg.probeEvery())}
	rec.canary = canary()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	linkBefore := r.sys.Cache.Link().Stats()
	if err := r.run(n, rec, r.cfg.probeEvery()); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	linkAfter := r.sys.Cache.Link().Stats()
	// The host probes' allocations are not the engine's.
	probes := uint64(len(rec.host))
	rec.mallocs = after.Mallocs - before.Mallocs - probes*probeAllocs
	rec.allocBytes = after.TotalAlloc - before.TotalAlloc - probes*probeAllocBytes
	rec.link = remote.Stats{
		Queries: linkAfter.Queries - linkBefore.Queries,
		Rows:    linkAfter.Rows - linkBefore.Rows,
		Bytes:   linkAfter.Bytes - linkBefore.Bytes,
	}
	bad, err := r.ver.flush()
	rec.failed += bad
	return rec, err
}

// pass is a warm-up slice followed by timed rounds on one system.
type pass struct {
	rounds []*round
	// host is each round's host factor. The other slices are per-round
	// headline numbers in round order, at reference host speed (see host.go);
	// the wall* ones are the same as the wall clock read them. Write latencies
	// are zero on a workload without writes.
	host                      []float64
	qps, p50, p99             []float64
	wallQPS, wallP50, wallP99 []float64
	p99Pct                    float64
	p99Samples                int
	wp50, wp99                []float64
	wp99Pct                   float64
	wp99Samples               int
}

// warmUp runs the untimed slice that fills plan cache, pools and heap.
func (r *runner) warmUp() error {
	if err := r.run(r.cfg.warmOps(), &r.unmeasured, 0); err != nil {
		return err
	}
	bad, err := r.ver.flush()
	r.unmeasured.failed += bad
	return err
}

func (r *runner) timedPass(rounds int) (*pass, error) {
	cfg := r.cfg
	p := &pass{}
	for i := 0; i < rounds; i++ {
		rec, err := r.measuredRound(cfg.roundOps())
		if err != nil {
			return nil, err
		}
		h := hostFactor(rec.host)
		sorted := sortedCopy(rec.readLat)
		tail, pct := tailPercentile(sorted, 0.99)
		p.rounds = append(p.rounds, rec)
		p.host = append(p.host, h)
		p.wallQPS = append(p.wallQPS, rec.qps())
		p.wallP50 = append(p.wallP50, float64(percentile(sorted, 0.50))/1e3)
		p.wallP99 = append(p.wallP99, float64(tail)/1e3)
		p.qps = append(p.qps, p.wallQPS[i]*h)
		p.p50 = append(p.p50, p.wallP50[i]/h)
		p.p99 = append(p.p99, p.wallP99[i]/h)
		p.p99Pct, p.p99Samples = pct, len(sorted)
		writes := sortedCopy(rec.writeLat)
		wtail, wpct := tailPercentile(writes, 0.99)
		p.wp50 = append(p.wp50, float64(percentile(writes, 0.50))/1e3/h)
		p.wp99 = append(p.wp99, float64(wtail)/1e3/h)
		p.wp99Pct, p.wp99Samples = wpct, len(writes)
		cfg.logf("  round %d: canary %.2f ms  wall %.3f s  %.0f qps  p50 %.2f us  p%.2f %.2f us (%d samples)  host x%.3f  at reference speed %.0f qps  p50 %.2f us  p%.2f %.2f us  failed %d\n",
			i+1, rec.canary.Seconds()*1e3, rec.wall.Seconds(), p.wallQPS[i], p.wallP50[i], pct*100, p.wallP99[i], len(sorted),
			h, p.qps[i], p.p50[i], pct*100, p.p99[i], rec.failed)
	}
	return p, nil
}

// total pools the rounds' counters: counts are reported over all rounds,
// timings as the median round.
func (p *pass) total() *round {
	t := &round{}
	for _, r := range p.rounds {
		t.ops += r.ops
		t.reads += r.reads
		t.local += r.local
		t.failed += r.failed
		t.wall += r.wall
		t.mallocs += r.mallocs
		t.allocBytes += r.allocBytes
		t.link.Queries += r.link.Queries
		t.link.Rows += r.link.Rows
		t.link.Bytes += r.link.Bytes
	}
	return t
}

func (p *pass) canaryMS() []float64 {
	out := make([]float64, len(p.rounds))
	for i, r := range p.rounds {
		out[i] = r.canary.Seconds() * 1e3
	}
	return out
}

// buildSystem builds the standard TPC-D system and reports how long it took.
func buildSystem(cfg *config) (*core.System, time.Duration, error) {
	start := time.Now()
	sys, err := tpcd.NewLoadedSystem(cfg.tpcd())
	return sys, time.Since(start), err
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/self/status")
}

// outcome is what a single-workload run reports.
type outcome struct {
	attempted, failed int
	correct           bool
	values            map[string]float64
	// also holds the zeroable end-to-end metrics of a timed run.
	also map[string]float64
	// failures are the first few failed checks, for printing.
	failures []string
}

// runTimed is the -trace 0 run: setupBuilds system builds, preflight, warm-up,
// five timed rounds with no spans, the final view check. It reports every
// end-to-end metric, the rounds' timings at reference host speed (see
// host.go).
func runTimed(cfg *config) (*outcome, error) {
	var sys *core.System
	var setups []float64
	for i := 0; i < setupBuilds; i++ {
		sys = nil
		runtime.GC() // the previous build is garbage: keep it out of this one's time and of peak RSS
		s, d, err := buildSystem(cfg)
		if err != nil {
			return nil, err
		}
		sys = s
		setups = append(setups, d.Seconds())
	}
	cfg.logf("  setup: %.3f s median of %v\n", median(setups), setups)

	st := buildStream(cfg.w, cfg.seed, cfg.warmOps()+timedRounds*cfg.roundOps(), cfg.tpcd().Customers())
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
	p, err := r.timedPass(timedRounds)
	if err != nil {
		return nil, err
	}
	out := &outcome{correct: true}
	if err := r.ver.viewsMatchBase(); err != nil {
		r.ver.fail("%v", err)
		out.correct = false
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	t := p.total()
	out.attempted, out.failed = r.unmeasured.ops+t.ops, r.unmeasured.failed+t.failed
	out.correct = out.correct && out.failed == 0
	out.values = map[string]float64{
		"setup_s":           median(setups),
		"throughput_qps":    median(p.qps),
		"query_p50_us":      median(p.p50),
		"query_p99_us":      median(p.p99),
		"allocs_per_op":     ratio(float64(t.mallocs), float64(t.ops)),
		"local_serve_ratio": ratio(float64(t.local), float64(t.reads)),
		"peak_rss_mb":       rss,
	}
	out.also = map[string]float64{
		"write_p50_us":     median(p.wp50),
		"write_p99_us":     median(p.wp99),
		"remote_kb_per_op": ratio(float64(t.link.Bytes)/1024, float64(t.ops)),
	}
	out.failures = r.ver.failures
	cfg.logf("  query_p99_us is the p%.2f of %d samples per round\n", p.p99Pct*100, p.p99Samples)
	if p.wp99Samples > 0 {
		cfg.logf("  write_p99_us is the p%.2f of %d samples per round\n", p.wp99Pct*100, p.wp99Samples)
	}
	return out, nil
}

// printMetrics prints every metric by name with unit, direction and bound.
func printMetrics(w io.Writer, specs []metricSpec, values map[string]float64) {
	for _, s := range specs {
		bound := ""
		if s.Bound > 0 {
			bound = fmt.Sprintf("  bound %g%%", s.Bound*100)
		}
		fmt.Fprintf(w, "  %-32s %14.4f %-6s %s is better%s\n", s.Name, values[s.Name], s.Unit, s.Better, bound)
	}
}
