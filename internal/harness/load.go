package harness

// The open-loop macro-benchmark: latency under sustained concurrent load,
// key skew and multi-tenancy over the TPC-D workload. BENCH_exec.json is
// closed-loop — the next query waits for the previous one, so a slow server
// slows the load down and the tail disappears. Here queries arrive on a fixed
// target-QPS schedule whether or not the server keeps up, and every latency
// is charged from the *scheduled* arrival, not from when a worker dispatched
// the query: a stalled worker inflates the tail of every query queued behind
// it (the coordinated-omission correction). Each offered-QPS step is one run
// of the scenario loop — the schedule its arrivals, the worker-pool model its
// observer — and deterministic under the virtual clock, byte for byte.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"relaxedcc/internal/core"
	"relaxedcc/internal/mtcache"
	"relaxedcc/internal/obs"
	"relaxedcc/internal/tpcd"
	"relaxedcc/internal/vclock"
)

// The server and link model of the sweep: no caller ever varied these, so
// they are constants; the report header still names them.
const (
	// Service channels draining the arrival queue: open-loop latency is
	// queueing delay on them plus service time.
	loadWorkers = 2
	// Synthetic CPU cost of a point serve, a join costing loadJoinFactor
	// times as much; a remote fetch pays the link latency in virtual time on
	// top. Two workers at ~3-4ms mean service saturate around 500-600 QPS.
	loadLocalService = 2 * time.Millisecond
	loadJoinFactor   = 3
	// Every remote call pays latency plus uniform jitter and fails
	// transiently at this rate (the resilient link retries).
	loadLatency   = 2 * time.Millisecond
	loadJitter    = 2 * time.Millisecond
	loadErrorRate = 0.02
	// Per-tenant within-bound objective behind the error-budget columns (and
	// the cache region ledger's SLO target).
	loadSLOTarget = 0.95
	// A step is saturated when its p99 exceeds kneeP99 or it achieves less
	// than kneeMinAchieved of the offered rate.
	kneeP99         = 250 * time.Millisecond
	kneeMinAchieved = 0.95
	// A query that took this much virtual time sat out a replication block
	// (10-15s) rather than a serve (milliseconds).
	blockVisible = time.Second
	// Decorrelates per-step rng streams: any odd constant works, a large
	// prime keeps adjacent steps far apart in seed space.
	stepSeedStride = 1000003
)

// tenantClass is a share of the traffic with its own currency bound and
// violation action, issued through its own cache session.
type tenantClass struct {
	name   string
	weight int
	bound  time.Duration
	action mtcache.ViolationAction
	// maxBlockWaits bounds ActionBlock's guard re-evaluations: each wait is
	// one full replication interval of virtual time.
	maxBlockWaits int
}

// loadTenants is the three-class mix: a strict tier that blocks for
// currency, a standard tier that degrades to guarded-local serves, and a
// batch tier that tolerates stale data outright.
var loadTenants = []tenantClass{
	{name: "gold", weight: 2, bound: 2 * time.Second, action: mtcache.ActionBlock, maxBlockWaits: 1},
	{name: "silver", weight: 3, bound: 15 * time.Second, action: mtcache.ActionServeLocal},
	{name: "bronze", weight: 5, bound: 2 * time.Minute, action: mtcache.ActionServeStale},
}

var actionNames = map[mtcache.ViolationAction]string{
	mtcache.ActionError:      "error",
	mtcache.ActionServeStale: "serve-stale",
	mtcache.ActionServeLocal: "serve-local",
	mtcache.ActionBlock:      "block",
}

// LoadConfig scripts one load sweep; start from DefaultLoadConfig or
// ShortLoadConfig.
type LoadConfig struct {
	Seed int64
	// ScaleFactor is the physical TPC-D scale of the backing data.
	ScaleFactor float64
	// Steps are the offered-QPS levels of the sweep, ascending; each offers
	// load for StepDuration of virtual time, with StepGap idle between steps
	// (regions settle, the previous step's backlog drains).
	Steps        []float64
	StepDuration time.Duration
	StepGap      time.Duration
	// Pace, when non-nil, paces arrivals in real time on this clock (demo
	// mode: watch the ops surface move). Measurement stays on the virtual
	// clock, so pacing changes presentation, never results.
	Pace vclock.Clock
	// OnSystem, if set, receives the fully wired system before any virtual
	// time passes (same contract as Scenario.OnSystem).
	OnSystem func(sys *core.System)
}

// DefaultLoadConfig is the full sweep: five steps sized so the top one sits
// past the modeled capacity knee.
func DefaultLoadConfig() LoadConfig {
	return LoadConfig{
		Seed:         2004,
		ScaleFactor:  0.005,
		Steps:        []float64{50, 100, 200, 400, 800},
		StepDuration: 15 * time.Second,
		StepGap:      2 * time.Second,
	}
}

// ShortLoadConfig is the CI smoke sweep: three steps, two virtual seconds
// each — a few hundred queries that still exercise every reporting path.
func ShortLoadConfig() LoadConfig {
	cfg := DefaultLoadConfig()
	cfg.Steps = []float64{40, 80, 160}
	cfg.StepDuration = 2 * time.Second
	cfg.StepGap = time.Second
	return cfg
}

// TenantStep is one tenant class's slice of one step.
type TenantStep struct {
	Class   string `json:"class"`
	Action  string `json:"action"`
	BoundNS int64  `json:"bound_ns"`
	Queries int    `json:"queries"`
	Failed  int    `json:"failed"`
	// Within counts answers within the class's currency bound (serve.Within).
	Within         int     `json:"within"`
	SLOWithinRatio float64 `json:"slo_within_ratio"`
	// SLOErrorBudget is the remaining error budget against the SLO target
	// over the step's serves: 1 = untouched, 0 = spent.
	SLOErrorBudget float64 `json:"slo_error_budget"`
	LatencyP50NS   int64   `json:"latency_p50_ns"`
	LatencyP99NS   int64   `json:"latency_p99_ns"`
	LatencyP999NS  int64   `json:"latency_p999_ns"`
	// BlockWaits counts the class's queries that sat out a replication block.
	BlockWaits int `json:"block_waits"`
}

// RegionStep is one currency region's workload profile over one step,
// cut from the cache's region ledger.
type RegionStep struct {
	Region           int     `json:"region"`
	Queries          int64   `json:"queries"`
	QueriesPerSecond float64 `json:"queries_per_second"`
	Local            int64   `json:"local"`
	Remote           int64   `json:"remote"`
	Degraded         int64   `json:"degraded"`
	DistinctBounds   int     `json:"distinct_bounds"`
	StalenessP50NS   int64   `json:"staleness_p50_ns"`
	StalenessMaxNS   int64   `json:"staleness_max_ns"`
}

// LoadStep is one offered-QPS level of the sweep.
type LoadStep struct {
	OfferedQPS float64 `json:"offered_qps"`
	Queries    int     `json:"queries"`
	Answered   int     `json:"answered"`
	Failed     int     `json:"failed"`
	// AchievedQPS counts completions inside the step window over the step
	// duration; under saturation it flattens below OfferedQPS.
	AchievedQPS float64 `json:"achieved_qps"`
	// Open-loop latency percentiles (charged from scheduled arrival),
	// estimated from a 65-bucket log2 histogram.
	LatencyP50NS  int64 `json:"latency_p50_ns"`
	LatencyP99NS  int64 `json:"latency_p99_ns"`
	LatencyP999NS int64 `json:"latency_p999_ns"`
	LatencyMaxNS  int64 `json:"latency_max_ns"`
	// Guard outcome mix over answered queries (a join can count as both
	// local and remote; degraded includes serve-stale).
	Local           int     `json:"local"`
	Degraded        int     `json:"degraded"`
	Remote          int     `json:"remote"`
	GuardLocalRatio float64 `json:"guard_local_ratio"`
	DegradedRatio   float64 `json:"degraded_ratio"`
	// Served-staleness percentiles (nearest-rank, exact) over answers that
	// used local views.
	StalenessP50NS int64 `json:"staleness_p50_ns"`
	StalenessP95NS int64 `json:"staleness_p95_ns"`
	StalenessP99NS int64 `json:"staleness_p99_ns"`
	StalenessMaxNS int64 `json:"staleness_max_ns"`
	// Saturated marks the step as past the knee.
	Saturated bool         `json:"saturated"`
	Tenants   []TenantStep `json:"tenants"`
	Regions   []RegionStep `json:"regions"`
}

// LoadReport is one load sweep: the BENCH_load.json payload.
type LoadReport struct {
	Seed        int64      `json:"seed"`
	Arrival     string     `json:"arrival"` // always "uniform": fixed gaps
	Workers     int        `json:"workers"`
	StepSeconds float64    `json:"step_seconds"`
	ZipfS       float64    `json:"zipf_s"`
	ZipfKeys    int64      `json:"zipf_keys"`
	SLOTarget   float64    `json:"slo_target"`
	Steps       []LoadStep `json:"steps"`
	// KneeQPS is the highest offered QPS whose step stayed unsaturated
	// (0 when even the first step saturated).
	KneeQPS float64 `json:"knee_qps"`
	// SLO is the cache's cumulative per-region currency-SLO snapshot at the
	// end of the run.
	SLO obs.SLOSnapshot `json:"slo"`
}

// JSON renders the report as the BENCH_load.json payload: indented, stable
// field order (struct order), trailing newline.
func (r *LoadReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Check holds a report to the invariants of its schema — what a reader of
// BENCH_load.json may rely on beyond the header's constants — and names the
// first field that breaks one. RunLoadReport applies it to every report
// before writing it.
func (r *LoadReport) Check() error {
	ascending, kneeIsStep := true, r.KneeQPS == 0
	for i, s := range r.Steps {
		ascending = ascending && (i == 0 || s.OfferedQPS > r.Steps[i-1].OfferedQPS)
		kneeIsStep = kneeIsStep || s.OfferedQPS == r.KneeQPS
	}
	if err := firstBroken("load report",
		inv{"zipf_keys", r.ZipfKeys >= 1}, inv{"slo", r.SLO.Target > 0 && len(r.SLO.Regions) > 0},
		inv{"steps: fewer than 3", len(r.Steps) >= 3},
		inv{"steps: offered_qps not strictly ascending", ascending},
		inv{"knee_qps names no step", kneeIsStep},
	); err != nil {
		return err
	}
	for i, s := range r.Steps {
		where := fmt.Sprintf("load report: step %d", i)
		if err := firstBroken(where,
			inv{"queries", s.Queries > 0},
			inv{"answered + failed != queries", s.Answered+s.Failed == s.Queries},
			inv{"latency_p50_ns > latency_p99_ns", s.LatencyP50NS <= s.LatencyP99NS},
			inv{"latency_p99_ns > latency_p999_ns", s.LatencyP99NS <= s.LatencyP999NS},
			inv{"latency_p999_ns > latency_max_ns", s.LatencyP999NS <= s.LatencyMaxNS},
			inv{"guard_local_ratio", inUnit(s.GuardLocalRatio)},
			inv{"degraded_ratio", inUnit(s.DegradedRatio)},
			inv{"staleness_p50_ns > staleness_p95_ns", s.StalenessP50NS <= s.StalenessP95NS},
			inv{"staleness_p95_ns > staleness_p99_ns", s.StalenessP95NS <= s.StalenessP99NS},
			inv{"staleness_p99_ns > staleness_max_ns", s.StalenessP99NS <= s.StalenessMaxNS},
			inv{"tenants", len(s.Tenants) > 0}, inv{"regions", len(s.Regions) > 0},
		); err != nil {
			return err
		}
		for _, t := range s.Tenants {
			if err := firstBroken(where+" tenant "+t.Class,
				inv{"queries", t.Queries > 0},
				inv{"within", t.Within >= 0 && t.Within <= t.Queries},
				inv{"slo_within_ratio", inUnit(t.SLOWithinRatio)},
				inv{"slo_error_budget", inUnit(t.SLOErrorBudget)},
				inv{"latency_p50_ns > latency_p99_ns", t.LatencyP50NS <= t.LatencyP99NS},
				inv{"latency_p99_ns > latency_p999_ns", t.LatencyP99NS <= t.LatencyP999NS},
			); err != nil {
				return err
			}
		}
	}
	return nil
}

// RunLoad executes the load sweep and returns the report. Deterministic under
// the virtual clock: two runs with the same config produce identical reports.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	sys, err := tpcd.NewLoadedSystem(tpcd.Config{ScaleFactor: cfg.ScaleFactor, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	injectFaults(sys, cfg.Seed, loadLatency, loadJitter, loadErrorRate)

	// Size the count-based SLO window to the whole sweep so the final
	// snapshot covers every serve.
	expected := 0
	for _, qps := range cfg.Steps {
		expected += int(qps * cfg.StepDuration.Seconds())
	}
	sys.Cache.Ledger().Reconfigure(loadSLOTarget, expected)
	if cfg.OnSystem != nil {
		cfg.OnSystem(sys)
	}

	sessions := make([]*mtcache.Session, len(loadTenants))
	for i, c := range loadTenants {
		s := sys.Cache.NewSession()
		s.Action, s.MaxBlockWaits, s.Tenant = c.action, c.maxBlockWaits, c.name
		sessions[i] = s
	}
	keys := tpcd.Config{ScaleFactor: cfg.ScaleFactor}.Customers()
	rep := &LoadReport{
		Seed:        cfg.Seed,
		Arrival:     "uniform",
		Workers:     loadWorkers,
		StepSeconds: cfg.StepDuration.Seconds(),
		ZipfS:       tpcd.DefaultZipfS,
		ZipfKeys:    int64(keys),
		SLOTarget:   loadSLOTarget,
		Steps:       make([]LoadStep, 0, len(cfg.Steps)),
	}

	// Open a fresh workload window so step 0's region profiles do not
	// include warm-up traffic, and again after every gap.
	sys.Cache.Ledger().Cut(sys.Clock.Now())
	for i, qps := range cfg.Steps {
		step, err := runStep(cfg, sys, sessions, keys, i, qps)
		if err != nil {
			return nil, err
		}
		rep.Steps = append(rep.Steps, *step)
		if err := sys.Run(cfg.StepGap); err != nil {
			return nil, err
		}
		sys.Cache.Ledger().Cut(sys.Clock.Now())
	}
	rep.KneeQPS = findKnee(rep.Steps)
	rep.SLO = sys.Cache.Ledger().SLO()
	return rep, nil
}

// runStep offers one QPS level for one step duration and measures it: one
// run of the scenario loop whose observer is the worker-pool model.
func runStep(cfg LoadConfig, sys *core.System, sessions []*mtcache.Session, keys, idx int, qps float64) (*LoadStep, error) {
	seed := cfg.Seed + int64(idx+1)*stepSeedStride
	schedule := buildSchedule(cfg.StepDuration, rand.New(rand.NewSource(seed)),
		tpcd.NewKeySampler(seed, keys, tpcd.DefaultZipfS, tpcd.DefaultZipfV), qps)
	offsets := make([]time.Duration, len(schedule))
	for i, a := range schedule {
		offsets[i] = a.at
	}

	stepStart := sys.Clock.Now()
	stepEnd := stepStart.Add(cfg.StepDuration)
	pool := workerPool{freeAt: make([]time.Time, loadWorkers)}
	step := &LoadStep{OfferedQPS: qps, Queries: len(schedule), Tenants: make([]TenantStep, len(loadTenants))}
	for i, c := range loadTenants {
		step.Tenants[i] = TenantStep{Class: c.name, Action: actionNames[c.action], BoundNS: int64(c.bound)}
	}
	// Latencies per tenant, and lat for all of them together.
	hists := make([]obs.Histogram, len(loadTenants))
	lat := &obs.Histogram{}
	var staleness []time.Duration
	var maxLat time.Duration
	inWindow := 0

	r := runner{sys: sys, arrivals: offsets, pace: cfg.Pace,
		ask: func(i int) ask {
			a := schedule[i]
			bound := loadTenants[a.tenant].bound
			return ask{Session: sessions[a.tenant], SQL: tpcd.Query(a.kind, a.key, bound), Bound: bound}
		},
		observe: func(s *serve) error {
			a := schedule[s.Index]
			t := &step.Tenants[a.tenant]
			t.Queries++
			// Open-loop service time: the synthetic local CPU cost plus
			// whatever virtual time the query actually consumed (link
			// latency, retries, replication block waits).
			vdelta := s.After.Sub(s.Before)
			svc := loadLocalService
			if a.kind == tpcd.KindJoin {
				svc *= loadJoinFactor
			}
			arrive := stepStart.Add(s.Off)
			done := pool.dispatch(arrive, svc+vdelta)
			latency := done.Sub(arrive)
			lat.ObserveDuration(latency)
			hists[a.tenant].ObserveDuration(latency)
			maxLat = max(maxLat, latency)
			if !done.After(stepEnd) {
				inWindow++
			}
			if vdelta >= blockVisible && loadTenants[a.tenant].action == mtcache.ActionBlock {
				t.BlockWaits++
			}
			if s.Err != nil {
				step.Failed++
				t.Failed++
				return nil
			}
			step.Answered++
			if s.Local {
				step.Local++
			}
			if s.Remote {
				step.Remote++
			}
			if s.Degraded || s.ServedStale {
				step.Degraded++
			}
			if s.Local && s.Known {
				staleness = append(staleness, s.Staleness)
			}
			if s.Within {
				t.Within++
			}
			return nil
		}}
	if err := r.run(); err != nil {
		return nil, err
	}
	// Drain: run virtual time to the step boundary so the next step starts
	// on schedule even if the last arrivals finished early.
	if err := sys.RunTo(stepEnd); err != nil {
		return nil, err
	}

	step.AchievedQPS = float64(inWindow) / cfg.StepDuration.Seconds()
	// Histogram quantiles are bucket-bound estimates and can overshoot the
	// true extremum; clamping to the exact max keeps p999 <= max invariant.
	step.LatencyP50NS = min(lat.Quantile(0.50), int64(maxLat))
	step.LatencyP99NS = min(lat.Quantile(0.99), int64(maxLat))
	step.LatencyP999NS = min(lat.Quantile(0.999), int64(maxLat))
	step.LatencyMaxNS = int64(maxLat)
	step.GuardLocalRatio = ratio(step.Local, step.Answered)
	step.DegradedRatio = ratio(step.Degraded, step.Answered)
	step.StalenessP50NS = int64(percentileDur(staleness, 0.50))
	step.StalenessP95NS = int64(percentileDur(staleness, 0.95))
	step.StalenessP99NS = int64(percentileDur(staleness, 0.99))
	step.StalenessMaxNS = int64(percentileDur(staleness, 1.0))

	for i := range step.Tenants {
		t, h := &step.Tenants[i], &hists[i]
		t.SLOWithinRatio = ratio(t.Within, t.Queries)
		t.SLOErrorBudget = obs.ErrorBudget(loadSLOTarget, t.Within, t.Queries)
		t.LatencyP50NS, t.LatencyP99NS, t.LatencyP999NS = h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999)
	}
	for _, p := range sys.Cache.Ledger().Cut(sys.Clock.Now()) {
		step.Regions = append(step.Regions, RegionStep{
			Region:           p.Region,
			Queries:          p.Queries,
			QueriesPerSecond: p.QueriesPerSecond,
			Local:            p.Local,
			Remote:           p.Remote,
			Degraded:         p.Degraded,
			DistinctBounds:   len(p.Bounds),
			StalenessP50NS:   p.StalenessP50NS,
			StalenessMaxNS:   p.StalenessMaxNS,
		})
	}
	return step, nil
}

// ratio is a NaN-safe division for the report's JSON (json.Marshal rejects
// NaN, and an empty step must still serialize).
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// arrival is one scheduled query: its offset from step start and the
// already-drawn tenant/kind/key, so the schedule is fixed before any query
// runs (an open-loop generator does not re-plan under pressure).
type arrival struct {
	at     time.Duration
	tenant int
	kind   tpcd.QueryKind
	key    int64
}

// buildSchedule draws one step's arrival schedule: arrivals at fixed gaps of
// 1/qps over the step, a weighted tenant, a query kind and a Zipf-skewed key
// for each. All draws come from the step's seeded rng and sampler, so the
// schedule is a pure function of (config, step index).
func buildSchedule(stepDuration time.Duration, rng *rand.Rand, keys *tpcd.KeySampler, qps float64) []arrival {
	n := max(1, int(qps*stepDuration.Seconds()))
	gap := time.Duration(float64(time.Second) / qps)
	out := make([]arrival, 0, n)
	for i := 0; i < n && time.Duration(i)*gap < stepDuration; i++ {
		out = append(out, arrival{
			at:     time.Duration(i) * gap,
			tenant: pickTenant(rng),
			kind:   tpcd.DefaultMix().Pick(rng),
			key:    keys.Next(),
		})
	}
	return out
}

// pickTenant draws a tenant class by weight.
func pickTenant(rng *rand.Rand) int {
	total := 0
	for _, c := range loadTenants {
		total += c.weight
	}
	d := rng.Intn(total)
	for i, c := range loadTenants {
		if d < c.weight {
			return i
		}
		d -= c.weight
	}
	return len(loadTenants) - 1
}

// workerPool is the open-loop service model: W channels, each busy until
// its current query's completion. Dispatch assigns an arrival to the
// earliest-free worker; the returned completion time is
// max(arrival, workerFree) + service. Latency charged against the
// *scheduled* arrival — not the dispatch — is the coordinated-omission
// correction: a wedged worker bills every query queued behind it for the
// full wait.
type workerPool struct {
	freeAt []time.Time // zero: free since before the first arrival
}

// dispatch serves one arrival with the given service time and returns its
// completion instant.
func (p *workerPool) dispatch(arrival time.Time, service time.Duration) time.Time {
	w := 0
	for i := 1; i < len(p.freeAt); i++ {
		if p.freeAt[i].Before(p.freeAt[w]) {
			w = i
		}
	}
	start := arrival
	if p.freeAt[w].After(start) {
		start = p.freeAt[w]
	}
	done := start.Add(service)
	p.freeAt[w] = done
	return done
}

// findKnee marks saturated steps in place and returns the highest offered
// QPS whose step stayed unsaturated (0 when every step saturated).
func findKnee(steps []LoadStep) float64 {
	knee := 0.0
	for i := range steps {
		s := &steps[i]
		s.Saturated = time.Duration(s.LatencyP99NS) > kneeP99 ||
			s.AchievedQPS < kneeMinAchieved*s.OfferedQPS
		if !s.Saturated {
			knee = max(knee, s.OfferedQPS)
		}
	}
	return knee
}

// RunLoadReport runs the open-loop load sweep, prints the human-readable
// report, checks it and, when jsonPath is non-empty, writes the
// BENCH_load.json payload there: a report that breaks its schema is an error,
// not a file. Under the virtual clock the whole output — text and JSON — is a
// pure function of cfg.
func RunLoadReport(w io.Writer, cfg LoadConfig, jsonPath string) error {
	rep, err := RunLoad(cfg)
	if err != nil {
		return err
	}

	section(w, "Load: open-loop saturation sweep (latency from scheduled arrival)")
	fmt.Fprintf(w, "arrival %s, %d workers, %.0fs steps, zipf s=%.2f over %d keys\n",
		rep.Arrival, rep.Workers, rep.StepSeconds, rep.ZipfS, rep.ZipfKeys)
	fmt.Fprintf(w, "%8s %9s %10s %10s %10s %7s %7s %10s %4s\n",
		"offered", "achieved", "p50", "p99", "p999", "local", "degr", "stale-p95", "sat")
	for _, s := range rep.Steps {
		sat := ""
		if s.Saturated {
			sat = "SAT"
		}
		fmt.Fprintf(w, "%8.0f %9.1f %10s %10s %10s %6.1f%% %6.1f%% %10s %4s\n",
			s.OfferedQPS, s.AchievedQPS,
			time.Duration(s.LatencyP50NS), time.Duration(s.LatencyP99NS),
			time.Duration(s.LatencyP999NS),
			s.GuardLocalRatio*100, s.DegradedRatio*100,
			time.Duration(s.StalenessP95NS), sat)
	}
	fmt.Fprintf(w, "knee: %.0f qps (highest unsaturated offered step)\n", rep.KneeQPS)

	section(w, "Load: per-tenant SLO by offered step")
	fmt.Fprintf(w, "%8s %-8s %-11s %8s %7s %7s %8s %7s %10s %6s\n",
		"offered", "class", "action", "bound", "queries", "failed", "within", "budget", "p99", "blocks")
	for _, s := range rep.Steps {
		for _, t := range s.Tenants {
			fmt.Fprintf(w, "%8.0f %-8s %-11s %8s %7d %7d %7.1f%% %6.0f%% %10s %6d\n",
				s.OfferedQPS, t.Class, t.Action, time.Duration(t.BoundNS),
				t.Queries, t.Failed, t.SLOWithinRatio*100, t.SLOErrorBudget*100,
				time.Duration(t.LatencyP99NS), t.BlockWaits)
		}
	}

	section(w, "Currency SLO (cumulative, per region)")
	fmt.Fprint(w, renderSLO(rep.SLO))

	if err := rep.Check(); err != nil {
		return err
	}
	if jsonPath != "" {
		payload, err := rep.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, payload, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s\n", jsonPath)
	}
	return nil
}
