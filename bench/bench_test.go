package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = uint32(i + 1)
		}
		return out
	}
	// Plenty of samples: the 99th percentile itself, with 1% beyond.
	if v, pct := tailPercentile(seq(100000), 0.99); v != 99000 || pct != 0.99 {
		t.Errorf("100000 samples: got %d at %v, want 99000 at 0.99", v, pct)
	}
	// 500 samples: p99 would leave 5 beyond, so the rule lowers it to p98.
	if v, pct := tailPercentile(seq(500), 0.99); v != 490 || pct != 0.98 {
		t.Errorf("500 samples: got %d at %v, want 490 at 0.98", v, pct)
	}
	// Too few samples for any tail.
	if v, pct := tailPercentile(seq(10), 0.99); v != 1 || pct != 0 {
		t.Errorf("10 samples: got %d at %v, want the minimum at 0", v, pct)
	}
	if v, _ := tailPercentile(nil, 0.99); v != 0 {
		t.Errorf("no samples: got %d", v)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("got %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("three values: got %v, %v, want 1, 4", q1, q3)
	}
}

// TestHostFactorIsMedianOverReference: probes that ran into a collection do
// not move it, and a run without probes is reported as measured.
func TestHostFactorIsMedianOverReference(t *testing.T) {
	probes := make([]float64, 100)
	for i := range probes {
		probes[i] = 1.2 * refProbeNS
	}
	for i := 0; i < 30; i++ {
		probes[3*i] = 2.5 * refProbeNS
	}
	if h := hostFactor(probes); math.Abs(h-1.2) > 1e-9 {
		t.Errorf("host factor %v, want 1.2", h)
	}
	if h := hostFactor(nil); h != 1 {
		t.Errorf("no probes: host factor %v, want 1", h)
	}
}

// TestHostProbeAllocationsAreKnown: a round takes the probes' allocations out
// of its counters, so one probe must allocate exactly what host.go says.
func TestHostProbeAllocationsAreKnown(t *testing.T) {
	h := newHostProbe()
	if got := testing.AllocsPerRun(10, func() { h.once() }); got != probeAllocs {
		t.Errorf("%v allocations per probe, want %d", got, probeAllocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.once()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got != probeAllocBytes {
		t.Errorf("%d bytes per probe, want %d", got, probeAllocBytes)
	}
}

func TestSameSeedSameStream(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a := buildStream(w, 7, 2000, 1500)
		b := buildStream(w, 7, 2000, 1500)
		c := buildStream(w, 8, 2000, 1500)
		if a.hash() != b.hash() {
			t.Errorf("%s: same seed gave different streams", w.name)
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: different seeds gave the same stream", w.name)
		}
		if len(a.ops) != 2000 {
			t.Errorf("%s: %d ops, want 2000", w.name, len(a.ops))
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{id: 1, parent: 0, start: 0, end: 100},
		{id: 2, parent: 1, start: 10, end: 30},
		{id: 3, parent: 2, start: 12, end: 20},
		{id: 4, parent: 1, start: 20, end: 50}, // overlaps span 2: the union counts once
		{id: 5, parent: 1, start: 60, end: 70},
		{id: 6, parent: 1, start: 95, end: 120}, // runs past its parent: clipped
	}
	want := []int64{100 - (40 + 10 + 5), 20 - 8, 8, 30, 10, 25}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	stats := layerStats(spans)
	if stats[spOp].count != len(spans) || stats[spOp].total != 100+20+8+30+10+25 {
		t.Errorf("layer stats %+v", stats[spOp])
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lat := metricSpec{Name: "query_p50_us", Unit: "us", Better: lower, Bound: 0.10}
	qps := metricSpec{Name: "throughput_qps", Unit: "1/s", Better: higher, Bound: 0.10}
	cases := []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"within the bound", lat, []float64{10, 10.1, 10.2}, []float64{10.3, 10.4, 10.5}, same},
		{"slower beyond the bound", lat, []float64{10, 10.1, 10.2}, []float64{11.5, 11.6, 11.7}, worse},
		{"faster than the spread", lat, []float64{10, 10.1, 10.2}, []float64{8, 8.1, 8.2}, better},
		{"higher is better, dropped", qps, []float64{1000, 1010, 1020}, []float64{850, 860, 870}, worse},
		{"higher is better, rose", qps, []float64{1000, 1010, 1020}, []float64{1200, 1210, 1220}, better},
		{"spread wider than the bound", lat, []float64{10, 12, 14}, []float64{11, 13, 15}, unresolved},
		{"wide spread but every run better", lat, []float64{10, 12, 14}, []float64{5, 6, 7}, better},
		{"wide spread and every run worse", lat, []float64{10, 12, 14}, []float64{20, 22, 24}, worse},
		{"exact counter unchanged", lat, []float64{100, 100, 100}, []float64{100, 100, 100}, same},
	}
	for _, c := range cases {
		if got, _ := judge(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitsNonZeroOnlyOnWorse(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 []float64) string {
		r := resultFile{Seed: 1, Seconds: 15, Workloads: map[string]*workloadResult{
			"point_hot": {Correct: true, Attempted: 100, EndToEnd: map[string][]float64{
				"query_p50_us":   p50,
				"throughput_qps": {1000, 1001, 1002},
			}},
		}}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", []float64{10, 10.1, 10.2})
	again := write("b.json", []float64{10.1, 10.2, 10.3})
	slow := write("c.json", []float64{14, 14.1, 14.2})

	var out bytes.Buffer
	if code := run([]string{"-compare", base, again}, &out, io.Discard); code != 0 {
		t.Errorf("two agreeing sets: exit %d\n%s", code, out.String())
	}
	if strings.Contains(out.String(), worse) || strings.Contains(out.String(), unresolved) {
		t.Errorf("two agreeing sets:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-compare", base, slow}, &out, io.Discard); code != 1 {
		t.Errorf("a regression: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), worse) {
		t.Errorf("a regression was not called worse:\n%s", out.String())
	}
}

// TestCompareJudgesWritesWhereMeasured: the zeroable metrics are judged on
// the workload that has them and skipped where they read zero.
func TestCompareJudgesWritesWhereMeasured(t *testing.T) {
	set := func(writeP50 []float64) *resultFile {
		return &resultFile{Workloads: map[string]*workloadResult{
			"point_hot":  {Correct: true, EndToEnd: map[string][]float64{"write_p50_us": {0, 0, 0}}},
			"read_write": {Correct: true, EndToEnd: map[string][]float64{"write_p50_us": writeP50}},
		}}
	}
	var out bytes.Buffer
	if code := compareResults(set([]float64{1000, 1010, 1020}), set([]float64{1500, 1510, 1520}), &out); code != 1 {
		t.Errorf("slower writes: exit %d\n%s", code, out.String())
	}
	if got := strings.Count(out.String(), "write_p50_us"); got != 1 {
		t.Errorf("write_p50_us judged on %d workloads, want read_write only:\n%s", got, out.String())
	}
}

// TestWarmUpFailuresCount puts a statement that errors into the warm-up
// slice only: the run must count it as attempted and failed and must not
// report itself correct.
func TestWarmUpFailuresCount(t *testing.T) {
	w := workload{name: "warm_fail", opsPerSec: 80000, vstep: time.Millisecond, gen: func(g *generator) {
		genPointHot(g)
		// Same template as its neighbours, so preflight, which runs the
		// first statement of each template, does not see it.
		g.out.stmts = append(g.out.stmts, stmt{sql: "SELECT c_name FROM Nowhere WHERE c_custkey = 1", tmpl: g.out.stmts[0].tmpl})
		g.out.ops[1] = uint32(len(g.out.stmts) - 1)
	}}
	cfg := &config{w: &w, seed: 3, seconds: 15, scale: 0.01, opsScale: 1.0 / 200, outDir: t.TempDir(), log: io.Discard}
	for _, traced := range []bool{false, true} {
		line, err := runOne(cfg, traced)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		var res resultLine
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed < 1 {
			t.Errorf("traced=%v: correct %v, failed %d; the warm-up's failure was dropped", traced, res.Correct, res.Failed)
		}
		if !traced && res.Attempted != cfg.warmOps()+timedRounds*cfg.roundOps() {
			t.Errorf("attempted %d, want warm-up %d + %d rounds of %d", res.Attempted, cfg.warmOps(), timedRounds, cfg.roundOps())
		}
	}
}

// TestContractMatchesBenchmarkJSON keeps BENCHMARK.json and the metric and
// workload lists in this package from drifting apart.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &contract); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(contract.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", contract.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(contract.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%+v\n%+v", contract.PerLayer, perLayer)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if contract.Workloads[i].Name != w.name || contract.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %s", i, contract.Workloads[i], w.name)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at 1/200 of its size on a
// tenth-size database, timed and traced, with verification on. The subtests
// are not parallel: internal/repl numbers coordinator events with a
// package-level counter, which two systems built at once race on.
func TestSmokeAllWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := &config{w: w, seed: 3, seconds: 15, scale: 0.01, opsScale: 1.0 / 200, outDir: t.TempDir(), log: io.Discard}
			for _, traced := range []bool{false, true} {
				line, err := runOne(cfg, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				var res resultLine
				if err := json.Unmarshal([]byte(line), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("traced=%v: correct %v, failed %d of %d", traced, res.Correct, res.Failed, res.Attempted)
				}
				for name, m := range res.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", name, m.Value)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be zero", name, m.Value)
					}
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}
