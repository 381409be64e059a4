// Command rccbench regenerates every table and figure from the paper's
// evaluation section (Section 4) against the Go reproduction:
//
//	rccbench [-sf 0.02] [-reps 200] [-raw-stats]
//
// Output goes to stdout; see EXPERIMENTS.md for the paper-vs-measured
// comparison. One mode flag runs something else instead: -chaos the
// fault-injection workload, -shift the bound-mix shift that demonstrates
// closed-loop autotuning, -load the open-loop macro-benchmark (BENCH_load.json
// via -load-json), -bench-text the reader that turns a `go test -bench`
// transcript into BENCH_exec.json. With -obs ADDR the run serves the live ops
// surface; with -snapshot DIR its /slo, /queries/slow, /tuner and /audit
// payloads are written as JSON when the run ends. Every mode gates itself and
// the exit status says so: a load report is checked against its schema before
// it is written, a bench report against its ceilings and the baseline, and
// with -audit the delivered-guarantee ledger of a -chaos, -shift or -load run
// must come out clean — or, under -chaos -broken-guard, must have caught the
// lie — and the back end's tables must equal a replay of its commit log. A
// flag bound to a mode the run is not in is a usage error (exit 2).
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"relaxedcc/internal/core"
	"relaxedcc/internal/harness"
	"relaxedcc/internal/obs"
	"relaxedcc/internal/tuner"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit status as values: 0 when the run and
// the gates it applies to itself pass, 1 when either fails, 2 on a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rccbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := harness.DefaultConfig()
	fs.Float64Var(&cfg.ScaleFactor, "sf", cfg.ScaleFactor,
		"physical TPC-D scale factor (1.0 = paper's 150k customers)")
	fs.IntVar(&cfg.Reps, "reps", cfg.Reps,
		"repetitions per timed measurement")
	rawStats := fs.Bool("raw-stats", false,
		"use physical statistics instead of scaling them to the paper's cardinalities")
	fs.BoolVar(&cfg.Extras, "extras", false,
		"also run extension experiments (back-end offload, region tuning)")
	fs.BoolVar(&cfg.Metrics, "metrics", false,
		"append a metrics-registry snapshot (guard picks, staleness gauges) to the report")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "data generation seed")
	chaos := fs.Bool("chaos", false,
		"run the fault-injection workload instead: availability and served-staleness under link faults")
	shift := fs.Bool("shift", false,
		"run the workload bound-mix shift scenario: SLO budget recovery with vs without closed-loop autotuning")
	loadRun := fs.Bool("load", false,
		"run the open-loop macro-benchmark: throughput-vs-latency saturation sweep over multi-tenant sessions")
	loadShort := fs.Bool("load-short", false,
		"with -load: the short CI smoke sweep (3 steps, 2 virtual seconds each)")
	loadJSON := fs.String("load-json", "",
		"with -load: also write the machine-readable report (BENCH_load.json) to this path")
	wall := fs.Bool("wall", false,
		"with -load: pace arrivals in real time for demos (measurement stays on the virtual clock)")
	benchText := fs.String("bench-text", "",
		"read this `go test -bench` transcript instead: write BENCH_exec.json, gate it and compare it with BENCH_baseline.json")
	pairsDir := fs.String("pairs", "",
		"fold the paired runs scripts/pairs.sh left in this directory: per workload and end-to-end metric of BENCHMARK.json, and per executor benchmark for ns/op and allocs/op, both medians, the change and the pairs it won")
	autotune := fs.Bool("autotune", false,
		"enable the closed-loop currency autotuner (tuner.Loop) for the run")
	auditOn := fs.Bool("audit", false,
		"append the delivered-guarantee auditor's ledger to the report and gate the run on it")
	brokenGuard := fs.Bool("broken-guard", false,
		"with -chaos: run the deliberately broken guard-lie schedule; with -audit the run then fails unless the auditor catches it")
	obsAddr := fs.String("obs", "",
		"serve the ops HTTP surface (/metrics /slo /queries/... /regions /tuner /audit) on this address for the run")
	snapshotDir := fs.String("snapshot", "",
		"write /slo, /queries/slow, /tuner (with -autotune or -shift) and /audit (with -audit) JSON snapshots into this directory when the run ends")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.ScaleStatsToPaper = !*rawStats

	// A flag bound to a mode the run is not in would otherwise select a
	// different experiment than the one asked for, silently.
	modes := 0
	for _, on := range []bool{*loadRun, *shift, *chaos, *benchText != "", *pairsDir != ""} {
		if on {
			modes++
		}
	}
	for _, u := range []struct {
		bad bool
		msg string
	}{
		{modes > 1, "-load, -shift, -chaos, -bench-text and -pairs exclude one another"},
		{!*loadRun && (*loadShort || *loadJSON != "" || *wall), "-load-short, -load-json and -wall need -load"},
		{!*chaos && *brokenGuard, "-broken-guard needs -chaos"},
	} {
		if u.bad {
			fmt.Fprintf(stderr, "rccbench: %s\n", u.msg)
			fs.Usage()
			return 2
		}
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "rccbench:", err)
		return 1
	}
	if *benchText != "" {
		if err := harness.RunBenchReport(stdout, *benchText, "BENCH_exec.json", "BENCH_baseline.json"); err != nil {
			return fail(err)
		}
		return 0
	}
	if *pairsDir != "" {
		if err := foldPairs(stdout, *pairsDir, "BENCHMARK.json"); err != nil {
			return fail(err)
		}
		return 0
	}

	// attach enables autotuning (if requested), serves the ops endpoints (if
	// requested) and remembers the system so snapshots can be taken after the
	// run.
	var sys *core.System
	var attachErr error
	attach := func(s *core.System) {
		sys = s
		if *autotune && s.Tuner() == nil {
			s.EnableAutotune(tuner.DefaultCadence)
		}
		if *obsAddr == "" {
			return
		}
		_, addr, err := obs.Serve(*obsAddr, s.ObsHandler())
		if err != nil {
			attachErr = fmt.Errorf("obs: %w", err)
			return
		}
		fmt.Fprintf(stderr, "serving ops endpoints on http://%s/metrics (/slo, /queries/recent, /queries/slow, /regions, /trace/last, /tuner, /audit)\n", addr)
	}

	var err error
	switch {
	case *loadRun:
		lcfg := harness.DefaultLoadConfig()
		if *loadShort {
			lcfg = harness.ShortLoadConfig()
		}
		lcfg.Seed = cfg.Seed
		lcfg.OnSystem = attach
		lcfg.Pace = *wall
		err = harness.RunLoadReport(stdout, lcfg, *loadJSON)
	case *shift:
		scfg := harness.DefaultShiftConfig()
		scfg.Seed = cfg.Seed
		scfg.OnSystem = attach
		err = harness.RunShiftReport(stdout, scfg)
	case *chaos:
		ccfg := harness.DefaultChaosConfig()
		if *brokenGuard {
			ccfg = harness.BrokenGuardChaosConfig()
		}
		ccfg.Seed = cfg.Seed
		ccfg.OnSystem = attach
		err = harness.RunChaosReport(stdout, ccfg)
	default:
		var s *core.System
		if s, err = harness.NewSystem(cfg); err == nil {
			attach(s)
			err = harness.RunAllOn(stdout, cfg, s)
		}
	}
	if err == nil {
		err = attachErr
	}
	if err != nil {
		return fail(err)
	}

	if *snapshotDir != "" {
		if err := writeSnapshots(sys, *snapshotDir, stderr); err != nil {
			return fail(fmt.Errorf("snapshot: %w", err))
		}
	}
	if *auditOn {
		harness.RenderAudit(stdout, sys.Audit())
		// The scenario runs are sized to fit the auditor's rings and gate on
		// the ledger, and on the back end's tables being what its commit log
		// says (the broken guard lies in the cache, not the master); the paper
		// sweep outlives the rings (its replay is partial by construction) and
		// only prints the ledger.
		if modes == 1 {
			if err := harness.CheckAudit(sys.Audit(), *brokenGuard); err != nil {
				return fail(err)
			}
			if err := sys.Backend.CheckLog(); err != nil {
				return fail(err)
			}
		}
	}
	return 0
}

// writeSnapshots dumps the post-run /slo, /queries/slow, /tuner and /audit
// payloads as JSON files, exactly as the HTTP surface would serve them.
// /tuner is optional: on a run without -autotune it 404s and no file is
// written.
func writeSnapshots(sys *core.System, dir string, stderr io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	h := sys.ObsHandler()
	for _, snap := range []struct{ file, url string }{
		{"slo.json", "/slo"},
		{"queries_slow.json", "/queries/slow?threshold=0s"},
		{"tuner.json", "/tuner"},
		{"audit.json", "/audit"},
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, snap.url, nil))
		if rr.Code == http.StatusNotFound {
			continue // /tuner: not enabled on this run
		}
		if rr.Code != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", snap.url, rr.Code)
		}
		path := filepath.Join(dir, snap.file)
		if err := os.WriteFile(path, rr.Body.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", path)
	}
	return nil
}
