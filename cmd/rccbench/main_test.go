package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestModeBoundFlagsAreRejected: a flag bound to a mode the run is not in,
// or two modes at once, is a usage error (exit 2) and runs nothing.
func TestModeBoundFlagsAreRejected(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-load-short"}, "need -load"},
		{[]string{"-load-json", "x.json"}, "need -load"},
		{[]string{"-wall", "-chaos"}, "need -load"},
		{[]string{"-broken-guard"}, "needs -chaos"},
		{[]string{"-broken-guard", "-shift", "-audit"}, "needs -chaos"},
		{[]string{"-load", "-chaos"}, "exclude one another"},
		{[]string{"-shift", "-chaos"}, "exclude one another"},
		{[]string{"-load", "-bench-text", "x.txt"}, "exclude one another"},
		{[]string{"-pairs", "dir", "-chaos"}, "exclude one another"},
		{[]string{"-no-such-flag"}, "not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stderr %q does not say %q", c.args, stderr.String(), c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran something:\n%s", c.args, stdout.String())
		}
	}
}

// TestAuditedRunsGateThemselves: the honest chaos run exits 0 with a clean
// ledger; the broken-guard run exits 0 because the violations were found
// (harness.TestAuditCheckBites shows the same gate refusing an honest run
// under that expectation); both leave the /audit snapshot behind.
func TestAuditedRunsGateThemselves(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-chaos", "-audit"}, "violations              0 "},
		{[]string{"-chaos", "-audit", "-broken-guard"}, "violation q"},
	} {
		dir := t.TempDir()
		var stdout, stderr bytes.Buffer
		if code := run(append(c.args, "-snapshot", dir), &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d\n%s", c.args, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), c.want) || !strings.Contains(stdout.String(), "agrees with online ledger") {
			t.Errorf("%v: report lacks %q or the replay line:\n%s", c.args, c.want, stdout.String())
		}
		if _, err := os.Stat(filepath.Join(dir, "audit.json")); err != nil {
			t.Errorf("%v: %v", c.args, err)
		}
	}
}

// TestLoadRunWritesTheGatedReport: -load -load-short exits 0 and writes the
// report that passed its check.
func TestLoadRunWritesTheGatedReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_load.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-load", "-load-short", "-load-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../internal/harness/testdata/load_short.json.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from load_short.json.golden", path)
	}
}

// TestBenchTextFailsOnAGateAndStillWritesTheFile: a transcript whose
// local-point row is over its ceiling exits 1, naming it, with
// BENCH_exec.json written for whoever reads the failure.
func TestBenchTextFailsOnAGateAndStillWritesTheFile(t *testing.T) {
	text, err := os.ReadFile("../../internal/harness/testdata/bench_procs1.txt")
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	// -bench-text reads and writes the BENCH files of the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for name, content := range map[string][]byte{
		"BENCH_baseline.json": baseline,
		"good.txt":            text,
		"bad.txt":             bytes.Replace(text, []byte("       1 allocs/op"), []byte("      12 allocs/op"), 1),
	} {
		if err := os.WriteFile(name, content, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bench-text", "good.txt"}, &stdout, &stderr); code != 0 {
		t.Fatalf("recorded transcript: exit %d\n%s", code, stderr.String())
	}
	if code := run([]string{"-bench-text", "bad.txt"}, &stdout, &stderr); code != 1 {
		t.Fatalf("over the ceiling: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "BenchmarkEndToEndQuery/local-point: allocs_op regressed: 12 > 3") {
		t.Errorf("stderr: %s", stderr.String())
	}
	if out, err := os.ReadFile("BENCH_exec.json"); err != nil || !bytes.Contains(out, []byte(`"allocs_op": 12`)) {
		t.Errorf("BENCH_exec.json not left behind for the failing run: %v", err)
	}
}

// TestFoldPairs: -pairs folds each workload's paired runs into both medians,
// the change, the base's interquartile range and the pairs the change won,
// in the direction BENCHMARK.json calls better; a workload with no runs is
// left out, and a side short of runs is an error.
func TestFoldPairs(t *testing.T) {
	dir := t.TempDir()
	contract := filepath.Join(dir, "contract.json")
	write := func(path, body string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(contract, `{"workloads":[{"name":"point_hot"},{"name":"analytic"}],
		"end_to_end":[{"name":"throughput_qps","better":"higher"},{"name":"allocs_per_op","better":"lower"}]}`)
	line := func(qps, allocs float64, failed int) string {
		return fmt.Sprintf(`{"correct":true,"attempted":10,"failed":%d,"metrics":{"throughput_qps":{"value":%g,"unit":"1/s"},"allocs_per_op":{"value":%g,"unit":"count"}}}`, failed, qps, allocs)
	}
	for i, r := range []struct{ base, change float64 }{{100, 110}, {104, 103}, {96, 120}, {100, 130}} {
		write(filepath.Join(dir, "runs", "point_hot", fmt.Sprintf("base-%d.json", i+1)), line(r.base, 3, 0))
		write(filepath.Join(dir, "runs", "point_hot", fmt.Sprintf("change-%d.json", i+1)), line(r.change, 1, i%2))
	}
	var out bytes.Buffer
	if err := foldPairs(&out, filepath.Join(dir, "runs"), contract); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"point_hot   throughput_qps                100            115   +15.00%     6.00%   3/4",
		"point_hot   allocs_per_op                   3              1   -66.67%     0.00%   4/4",
		"point_hot   change runs failed 2 ops",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "analytic") || strings.Contains(out.String(), "benchmark") {
		t.Errorf("a workload or a benchmark section with no runs is printed:\n%s", out.String())
	}
	// The executor benchmarks' transcripts, read at -cpu 2: a row only the
	// change has is left out.
	for i, ns := range [][2]int{{500, 400}, {600, 450}, {550, 560}} {
		bench := func(ns, allocs int, extra string) string {
			return fmt.Sprintf("BenchmarkExecScan/serial-2 \t 100\t 300 ns/op\t 21 allocs/op\n"+
				"BenchmarkExecScan/parallel-2-2 \t 100\t %d ns/op\t 9 B/op\t %d allocs/op\n%s", ns, allocs, extra)
		}
		write(filepath.Join(dir, "runs", "gotest", fmt.Sprintf("base-%d.txt", i+1)), bench(ns[0], 160, ""))
		write(filepath.Join(dir, "runs", "gotest", fmt.Sprintf("change-%d.txt", i+1)), bench(ns[1], 80,
			"BenchmarkExecScan/parallel-2-reused-2 \t 100\t 200 ns/op\t 1 allocs/op\n"))
	}
	out.Reset()
	if err := foldPairs(&out, filepath.Join(dir, "runs"), contract); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"BenchmarkExecScan/serial                     ns_op                         300            300    +0.00%     0.00%   0/3",
		"BenchmarkExecScan/parallel-2                 ns_op                         550            450   -18.18%    18.18%   2/3",
		"BenchmarkExecScan/parallel-2                 allocs_op                     160             80   -50.00%     0.00%   3/3",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "reused") {
		t.Errorf("a benchmark only the change ran is printed:\n%s", out.String())
	}
	write(filepath.Join(dir, "runs", "analytic", "base-1.json"), line(1, 1, 0))
	if err := foldPairs(&out, filepath.Join(dir, "runs"), contract); err == nil || !strings.Contains(err.Error(), "1 base runs, 0 change runs") {
		t.Errorf("unpaired runs: %v", err)
	}
}
