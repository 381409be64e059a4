// Command bench is the repository's real-clock end-to-end benchmark: four
// closed-loop workloads against the standard TPC-D system, through
// Session.Query and System.Exec on the wall clock, every answer verified.
//
//	go run ./bench                                  all workloads -> bench/out/result.json
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	go run ./bench -compare A.json B.json
//
// A single-workload run prints every metric by name and, as its last line,
// one JSON object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "run one workload (point_hot, mix_zipf, analytic, read_write); default all, each in its own process")
	seed := fs.Int64("seed", 1, "seed of the op stream; the data set is fixed")
	seconds := fs.Int("seconds", 20, "sizes the timed rounds: op counts are fixed from it up front, never cut off by the clock")
	trace := fs.Int("trace", 0, "0: timed rounds, end-to-end metrics; 1: traced run, per-layer metrics")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for result.json and trace files")
	compare := fs.Bool("compare", false, "compare two result.json files: bench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || fs.NArg() != 0 {
		fs.Usage()
		return 2
	}
	if *workloadName == "" {
		return runAll(*seed, *seconds, *outDir, stdout, stderr)
	}
	w := findWorkload(*workloadName)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workloadName)
		return 2
	}
	cfg := &config{w: w, seed: *seed, seconds: *seconds, scale: 0.1, opsScale: 1, outDir: *outDir, log: stdout}
	line, err := runOne(cfg, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// runOne runs one workload in this process and returns its result line.
func runOne(cfg *config, traced bool) (string, error) {
	specs, runFn, mode := endToEnd, runTimed, "timed rounds"
	if traced {
		specs, runFn, mode = perLayer, runTraced, "traced run"
	}
	cfg.logf("%s (%s, seed %d, %d s): %s\n", cfg.w.name, mode, cfg.seed, cfg.seconds, cfg.w.why)
	cfg.host = newHostProbe()
	out, err := runFn(cfg)
	if err != nil {
		return "", err
	}
	for _, f := range out.failures {
		cfg.logf("  FAILED: %s\n", f)
	}
	cfg.logf("  failed_ratio: %d / %d = %g\n", out.failed, out.attempted, ratio(float64(out.failed), float64(out.attempted)))
	printMetrics(cfg.log, specs, out.values)
	if out.also != nil {
		printMetrics(cfg.log, zeroable, out.also)
		b, err := json.Marshal(out.also)
		if err != nil {
			return "", err
		}
		cfg.logf("%s%s\n", alsoPrefix, b)
	}
	b, err := json.Marshal(resultLine{
		Correct:   out.correct,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   fill(specs, out.values),
	})
	return string(b), err
}

// workloadResult is one workload's entry in result.json: each end-to-end
// metric's value per timed run (the zeroable ones included), and the traced
// run's per-layer values.
type workloadResult struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Correct   bool                 `json:"correct"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer"`
}

// resultFile is result.json.
type resultFile struct {
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// alsoPrefix starts the line a timed run prints just before its result line:
// the zeroable end-to-end metrics, which the result line may not carry.
const alsoPrefix = "also: "

// child runs one workload in its own process, so heap, caches and peak RSS
// of one workload never leak into the next, and parses its result line and,
// from a timed run, the zeroable metrics on the line before it.
func child(workload string, seed int64, seconds, trace int, outDir string, stdout, stderr io.Writer) (*resultLine, map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", outDir)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(stdout, &buf)
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	var also map[string]float64
	if n := len(lines); n >= 2 && bytes.HasPrefix(lines[n-2], []byte(alsoPrefix)) {
		if err := json.Unmarshal(lines[n-2][len(alsoPrefix):], &also); err != nil {
			return nil, nil, fmt.Errorf("%s: %sline: %w", workload, alsoPrefix, err)
		}
	}
	return &line, also, nil
}

// runAll runs every workload — timedRuns timed runs and one traced run each
// — and writes result.json. It makes one pass over all workloads at a time,
// so a workload's runs are minutes apart: a slow phase of the host then
// widens every workload's spread instead of shifting one workload's median,
// and -compare calls it unresolved and not worse.
func runAll(seed int64, seconds int, outDir string, stdout, stderr io.Writer) int {
	res := resultFile{Seed: seed, Seconds: seconds, Workloads: map[string]*workloadResult{}}
	for _, w := range workloads {
		res.Workloads[w.name] = &workloadResult{Correct: true, EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}}
	}
	for pass := 0; pass <= timedRuns; pass++ {
		trace := 0
		if pass == timedRuns {
			trace = 1
		}
		for _, w := range workloads {
			wr := res.Workloads[w.name]
			line, also, err := child(w.name, seed, seconds, trace, outDir, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			wr.Attempted += line.Attempted
			wr.Failed += line.Failed
			wr.Correct = wr.Correct && line.Correct
			for name, m := range line.Metrics {
				if trace == 1 {
					wr.PerLayer[name] = m.Value
				} else {
					wr.EndToEnd[name] = append(wr.EndToEnd[name], m.Value)
				}
			}
			for name, v := range also {
				wr.EndToEnd[name] = append(wr.EndToEnd[name], v)
			}
		}
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.MkdirAll(outDir, 0o755)
	}
	path := filepath.Join(outDir, "result.json")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	ok := true
	fmt.Fprintf(stdout, "\nsummary (median of %d runs, min..max)\n", timedRuns)
	for _, w := range workloads {
		wr := res.Workloads[w.name]
		ok = ok && wr.Correct
		fmt.Fprintf(stdout, "%s: failed_ratio %g, correct %v\n", w.name, ratio(float64(wr.Failed), float64(wr.Attempted)), wr.Correct)
		for _, s := range compared {
			if vs := wr.EndToEnd[s.Name]; median(vs) != 0 {
				lo, hi := minMax(vs)
				fmt.Fprintf(stdout, "  %-20s %12.4f %-6s (%.4f..%.4f)\n", s.Name, median(vs), s.Unit, lo, hi)
			}
		}
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	if !ok {
		return 1
	}
	return 0
}
