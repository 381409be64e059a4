package analysis

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mutants holds one edit of today's tree per analyzer: a bug that this
// analyzer alone reports — go vet, -race and the tests pass with it
// (DESIGN.md §8 keeps the table of every mutant run). An analyzer without a
// row here has no reason to exist; a row whose old text no longer occurs
// fails rather than silently checking nothing.
var mutants = []struct {
	analyzer, file, old, new string
	want                     string // regexp over the one finding, path relative to the module
}{
	{
		// Server.exec keeps stmtMu held while it runs a DML of a known
		// shape, whose write takes Server.mu; createTable holds Server.mu
		// while invalidatePlans takes stmtMu. A CREATE TABLE beside such a
		// DML deadlocks.
		analyzer: "lockorder",
		file:     "internal/backend/backend.go",
		old: `		s.stmtMu.Unlock()
		if d != nil {
			return s.run(d, vals)
		}
`,
		new: `		if d != nil {
			defer s.stmtMu.Unlock()
			return s.run(d, vals)
		}
		s.stmtMu.Unlock()
`,
		want: `^internal/backend/backend\.go:\d+:\d+: lock-order cycle \(deadlock candidate\): backend\.\(Server\)\.mu is held while acquiring backend\.\(Server\)\.stmtMu .*backend\.\(Server\)\.stmtMu is held while acquiring backend\.\(Server\)\.mu`,
	},
	{
		// bench/traced.go reads the counter by its _total name and would
		// silently see 0.
		analyzer: "metricnames",
		file:     "internal/repl/repl.go",
		old:      `reg.CounterVec("repl_rows_applied_total", "region")`,
		new:      `reg.CounterVec("repl_rows_applied", "region")`,
		want:     `^internal/repl/repl\.go:\d+:\d+: counter "repl_rows_applied" must end in _total`,
	},
	{
		// Apply latency read with time.Since, past the vclock.Wall{} that
		// NewAgent binds: the same wall time, but outside the sanctioned
		// wrapper, the one place a deterministic package may read it.
		analyzer: "wallclock",
		file:     "internal/repl/repl.go",
		old:      `a.mApply.ObserveDuration(a.clock.Now().Sub(applyStart))`,
		new:      `a.mApply.ObserveDuration(time.Since(applyStart))`,
		want:     `^internal/repl/repl\.go:\d+:\d+: time\.Since in deterministic package relaxedcc/internal/repl`,
	},
}

// TestEveryAnalyzerCatchesItsMutant applies each row to a copy of the
// module's non-test sources and lints the copy with that row's analyzer
// only: it must report exactly the expected finding.
func TestEveryAnalyzerCatchesItsMutant(t *testing.T) {
	byName := map[string]*Analyzer{}
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	rows := map[string]bool{}
	for _, m := range mutants {
		if byName[m.analyzer] == nil || rows[m.analyzer] {
			t.Fatalf("mutant row for %q, which is not an analyzer or has two rows", m.analyzer)
		}
		rows[m.analyzer] = true
	}
	for name := range byName {
		if !rows[name] {
			t.Errorf("analyzer %s has no mutant row", name)
		}
	}
	for _, m := range mutants {
		t.Run(m.analyzer, func(t *testing.T) {
			root := copyModule(t)
			path := filepath.Join(root, m.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("the old text occurs %d times in %s; update the row to today's tree", n, m.file)
			}
			if err := os.WriteFile(path, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := NewLoader(root)
			if err != nil {
				t.Fatal(err)
			}
			pkgs, err := l.LoadDirs("internal", "cmd")
			if err != nil {
				t.Fatal(err)
			}
			diags := append(Run(pkgs, []*Analyzer{byName[m.analyzer]}), StrictDiagnostics(l, pkgs)...)
			for i := range diags {
				diags[i].File, _ = filepath.Rel(root, diags[i].File)
			}
			if len(diags) != 1 || !regexp.MustCompile(m.want).MatchString(diags[0].String()) {
				t.Fatalf("want exactly one finding matching %s, got %v", m.want, diags)
			}
		})
	}
}

// copyModule copies go.mod and every non-test Go file of the module (the
// module has no dependencies) into a temporary directory.
func copyModule(t *testing.T) string {
	t.Helper()
	src, dst := filepath.Join("..", ".."), t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != src && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}
