package opt_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/tpcd"
)

// corpusPath holds the SELECT texts of the module's tests, one Go-quoted
// literal a line, sorted.
var corpusPath = filepath.Join("testdata", "test_selects.corpus")

// TestEveryTestSelectAgrees runs TestEveryCandidateAgrees's check over the
// SELECT texts the module's tests already hold: every complete string literal
// of a _test.go file outside testdata/ that sqlparser.ParseSelect accepts and
// whose tables all exist in the loaded TPC-D system. It runs the committed
// corpus, and fails when a literal it finds is not in it (-update rewrites
// the corpus to what it finds).
func TestEveryTestSelectAgrees(t *testing.T) {
	sys, err := tpcd.NewLoadedSystem(tpcd.Config{ScaleFactor: 0.005, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auditClean(t, sys) })
	found := testSelects(t, sys.Backend.Catalog())
	if *update {
		var b strings.Builder
		for _, sql := range found {
			b.WriteString(strconv.Quote(sql) + "\n")
		}
		if err := os.WriteFile(corpusPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(corpusPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	stmts := map[string]string{}
	for i, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		sql, err := strconv.Unquote(line)
		if err != nil {
			t.Fatalf("%s:%d: %v", corpusPath, i+1, err)
		}
		stmts[sql] = sql
	}
	for _, sql := range found {
		if _, ok := stmts[sql]; !ok {
			t.Errorf("%s lacks %q (run with -update to add it)", corpusPath, sql)
		}
	}
	candidates := everyCandidateAgrees(t, sys, stmts)
	if len(stmts) < 42 || candidates < 168 {
		t.Errorf("%d statements and %d candidates, want at least 42 and 168", len(stmts), candidates)
	}
}

// testSelects returns, sorted and without repeats, every complete string
// literal of the module's _test.go files (testdata/ and hidden directories
// aside) that parses as a SELECT naming at least one table, each of which
// cat holds (a SELECT without FROM has no candidates to compare).
func testSelects(t *testing.T, cat *catalog.Catalog) []string {
	t.Helper()
	var out []string
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			sql, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			sel, err := sqlparser.ParseSelect(sql)
			if err != nil {
				return true
			}
			names := tableNames(reflect.ValueOf(sel), nil)
			if len(names) > 0 && !slices.ContainsFunc(names, func(n string) bool { return cat.Table(n) == nil }) {
				out = append(out, sql)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// tableNames appends to names every table the statement v names, in FROM
// clauses and subqueries alike.
func tableNames(v reflect.Value, names []string) []string {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return names
		}
		if tn, ok := v.Interface().(*sqlparser.TableName); ok {
			return append(names, tn.Name)
		}
		return tableNames(v.Elem(), names)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				names = tableNames(v.Field(i), names)
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			names = tableNames(v.Index(i), names)
		}
	}
	return names
}
