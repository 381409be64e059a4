package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The fixture tests load testdata packages through the real module loader
// and compare findings against `want:<analyzer>` markers on the flagged
// lines, so expectations live next to the code they describe.

var (
	testLoaderOnce sync.Once
	testLoader     *Loader
	testLoaderErr  error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	testLoaderOnce.Do(func() {
		testLoader, testLoaderErr = NewLoader("../..")
	})
	if testLoaderErr != nil {
		t.Fatal(testLoaderErr)
	}
	return testLoader
}

func loadFixture(t *testing.T, dir string) []*Package {
	t.Helper()
	pkgs, err := fixtureLoader(t).LoadDirs(filepath.Join("internal", "analysis", "testdata", "src", dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages under testdata/src/%s", dir)
	}
	return pkgs
}

type finding struct {
	analyzer string
	file     string // base name
	line     int
}

var wantRe = regexp.MustCompile(`want:([a-z,]+)`)

func wantedFindings(t *testing.T, pkgs []*Package) map[finding]int {
	t.Helper()
	out := map[finding]int{}
	for _, pkg := range pkgs {
		for _, name := range pkg.Filenames {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
					for _, a := range strings.Split(m[1], ",") {
						out[finding{analyzer: a, file: filepath.Base(name), line: i + 1}]++
					}
				}
			}
		}
	}
	return out
}

func gotFindings(diags []Diagnostic) map[finding]int {
	out := map[finding]int{}
	for _, d := range diags {
		out[finding{analyzer: d.Analyzer, file: filepath.Base(d.File), line: d.Line}]++
	}
	return out
}

func checkFixture(t *testing.T, dir string, mk func() *Analyzer) {
	t.Helper()
	pkgs := loadFixture(t, dir)
	diags := Run(pkgs, []*Analyzer{mk()})
	want := wantedFindings(t, pkgs)
	got := gotFindings(diags)
	for f, n := range want {
		if got[f] != n {
			t.Errorf("%s:%d: want %d %s finding(s), got %d", f.file, f.line, n, f.analyzer, got[f])
		}
	}
	for f, n := range got {
		if want[f] == 0 {
			t.Errorf("%s:%d: unexpected %s finding (x%d)", f.file, f.line, f.analyzer, n)
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("finding: %s", d)
		}
	}
}

func TestFixtures(t *testing.T) {
	cases := []struct {
		dir string
		mk  func() *Analyzer
	}{
		{"lockorder/bad", NewLockOrder},
		{"lockorder/good", NewLockOrder},
		{"lockorder/cycle", NewLockOrder},
		{"metricnames/bad", NewMetricNames},
		{"metricnames/good", NewMetricNames},
		{"wallclock/bad", func() *Analyzer { return NewWallClockAllow("wallclock/bad/clockutil") }},
		{"wallclock/good", NewWallClock},
		{"ignore", NewWallClock},
	}
	for _, c := range cases {
		t.Run(strings.ReplaceAll(c.dir, "/", "_"), func(t *testing.T) {
			checkFixture(t, c.dir, c.mk)
		})
	}
}

// TestIgnoreDirectives pins the directive semantics beyond positions: a
// valid directive suppresses exactly the one finding on the next line, the
// identical finding elsewhere survives, and a directive naming an unknown
// analyzer — including a deleted one, selvec — is reported under the
// "rcclint" pseudo-analyzer instead of being accepted silently.
func TestIgnoreDirectives(t *testing.T) {
	pkgs := loadFixture(t, "ignore")
	diags := Run(pkgs, []*Analyzer{NewWallClock()})
	var clocks int
	var directives []string
	for _, d := range diags {
		switch d.Analyzer {
		case "wallclock":
			clocks++
		case "rcclint":
			directives = append(directives, d.Message)
		default:
			t.Errorf("unexpected analyzer %q: %s", d.Analyzer, d)
		}
	}
	// The fixture has three identical time.Now reads; one is suppressed.
	if clocks != 2 || len(directives) != 2 {
		t.Fatalf("want 2 wallclock + 2 rcclint finding(s), got %v", diags)
	}
	for i, name := range []string{"nosuchanalyzer", "selvec"} {
		if want := `unknown analyzer "` + name + `"`; !strings.Contains(directives[i], want) {
			t.Errorf("directive finding %q does not say %s", directives[i], want)
		}
	}
}

// TestIgnoreAcrossAnalyzers runs the full analyzer suite over a fixture
// with one finding per analyzer, each suppressed by a directive naming
// it. It pins three interaction rules at once: every analyzer honors
// suppression, a directive silences only its own analyzer (the metricnames
// finding sharing a line with a suppressed wallclock finding survives),
// and malformed directives — unknown analyzer, missing reason — are
// still reported under the "rcclint" pseudo-analyzer.
func TestIgnoreAcrossAnalyzers(t *testing.T) {
	pkgs := loadFixture(t, "ignoreall")
	diags := Run(pkgs, Analyzers())

	var rest []Diagnostic
	var badDirectives []string
	for _, d := range diags {
		if d.Analyzer == "rcclint" {
			badDirectives = append(badDirectives, d.Message)
			continue
		}
		rest = append(rest, d)
	}

	// Malformed directives survive no matter which analyzers ran.
	if len(badDirectives) != 2 {
		t.Fatalf("want 2 rcclint directive findings, got %v", diags)
	}
	for _, want := range []string{`unknown analyzer "nosuchpass"`, "missing reason"} {
		found := false
		for _, msg := range badDirectives {
			if strings.Contains(msg, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no directive finding containing %q in %v", want, badDirectives)
		}
	}

	// Everything else must match the want markers exactly: one surviving
	// metricnames finding on the line whose wallclock finding is suppressed,
	// and nothing else from the analyzers whose findings carry directives.
	want := wantedFindings(t, pkgs)
	got := gotFindings(rest)
	for f, n := range want {
		if got[f] != n {
			t.Errorf("%s:%d: want %d %s finding(s), got %d", f.file, f.line, n, f.analyzer, got[f])
		}
	}
	for f, n := range got {
		if want[f] == 0 {
			t.Errorf("%s:%d: unexpected %s finding (x%d)", f.file, f.line, f.analyzer, n)
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("finding: %s", d)
		}
	}
}

// TestMetricNamesZeroRegistrations checks the fail-closed behavior the old
// shell script had: analyzing packages with no registrations at all is
// itself a finding.
func TestMetricNamesZeroRegistrations(t *testing.T) {
	pkgs := loadFixture(t, "lockorder/good")
	diags := Run(pkgs, []*Analyzer{NewMetricNames()})
	if len(diags) != 1 {
		t.Fatalf("want exactly one finding, got %v", diags)
	}
	d := diags[0]
	if d.Analyzer != "metricnames" || !strings.Contains(d.Message, "no metric registrations") {
		t.Fatalf("unexpected finding: %s", d)
	}
}

// TestStrictDiagnostics pins the degradation findings rcclint always adds:
// the analyzers run on a package that parses but fails the type check
// without noticing, and StrictDiagnostics turns it into a positioned
// "strict" finding.
func TestStrictDiagnostics(t *testing.T) {
	pkgs := loadFixture(t, "strict/broken")
	if len(pkgs[0].TypeErrors) == 0 {
		t.Fatal("fixture should have type errors")
	}
	if diags := Run(pkgs, []*Analyzer{NewWallClock()}); len(diags) != 0 {
		t.Fatalf("the analyzers should not report degradation themselves: %v", diags)
	}
	diags := StrictDiagnostics(fixtureLoader(t), pkgs)
	var broken []Diagnostic
	for _, d := range diags {
		if d.Analyzer != "strict" {
			t.Fatalf("unexpected analyzer %q: %s", d.Analyzer, d)
		}
		if strings.Contains(d.File, "broken") {
			broken = append(broken, d)
		}
	}
	if len(broken) != 1 {
		t.Fatalf("want exactly one strict finding for the broken package, got %v", diags)
	}
	d := broken[0]
	if !strings.Contains(d.Message, "type-checked with 1 error(s)") || !strings.Contains(d.Message, "weight") {
		t.Errorf("finding should carry the error count and first message: %s", d)
	}
	if filepath.Base(d.File) != "broken.go" || d.Line == 0 {
		t.Errorf("finding should be positioned at the offending line: %s", d)
	}
}

// TestStrictCleanPackages checks that healthy packages produce no strict
// findings of the type-error kind (placeholder findings are loader-wide
// and depend on the environment's stdlib, so they are not asserted here).
func TestStrictCleanPackages(t *testing.T) {
	pkgs := loadFixture(t, "lockorder/good")
	for _, d := range StrictDiagnostics(fixtureLoader(t), pkgs) {
		if strings.Contains(d.Message, "type-checked") {
			t.Errorf("unexpected type-error finding for a healthy package: %s", d)
		}
	}
}
