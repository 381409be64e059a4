package main

import (
	"bytes"
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
		"bad.txt":             bytes.Replace(text, []byte("       6 allocs/op"), []byte("      12 allocs/op"), 1),
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
	if !strings.Contains(stderr.String(), "BenchmarkEndToEndQuery/local-point: allocs_op regressed: 12 > 8") {
		t.Errorf("stderr: %s", stderr.String())
	}
	if out, err := os.ReadFile("BENCH_exec.json"); err != nil || !bytes.Contains(out, []byte(`"allocs_op": 12`)) {
		t.Errorf("BENCH_exec.json not left behind for the failing run: %v", err)
	}
}
