package opt_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"relaxedcc/internal/core"
	"relaxedcc/internal/exec"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
	"relaxedcc/internal/tpcd"
)

// TestEveryCandidateAgrees is the candidate differential over the statements
// the repo already has: the statements TestCandidatesMatchGolden pins, and
// tpcd.Query for every QueryKind over a sweep of keys and bounds (unbounded
// among them). Every candidate the back end's planner enumerates, and every
// candidate the cache's enumerates under ForceLocal, must return the multiset
// of rows the back end's chosen plan (backend.Server.Plan) returns — or, when
// that plan fails, every candidate must fail. Float columns compare exactly:
// every candidate of an aggregate sums its column in one order. Nothing is
// written after the load, so the cache's views hold the back end's rows.
func TestEveryCandidateAgrees(t *testing.T) {
	sys, err := tpcd.NewLoadedSystem(tpcd.Config{ScaleFactor: 0.005, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auditClean(t, sys) })
	stmts := goldenStatements()
	if len(stmts) != 23 {
		t.Fatalf("%d golden statements, want 23", len(stmts))
	}
	customers := int64(tpcd.Config{ScaleFactor: 0.005}.Customers())
	for _, kind := range []tpcd.QueryKind{tpcd.KindPoint, tpcd.KindJoin} {
		for _, key := range []int64{0, 1, 2, 17, customers / 2, customers, customers + 1} {
			for _, bound := range []time.Duration{0, time.Second, time.Hour} {
				stmts[fmt.Sprintf("query-%d-%d-%v", kind, key, bound)] = tpcd.Query(kind, key, bound)
			}
		}
	}
	candidates := everyCandidateAgrees(t, sys, stmts)
	if len(stmts) < 65 || candidates < 267 {
		t.Errorf("%d statements and %d candidates, want at least 65 and 267", len(stmts), candidates)
	}
}

// everyCandidateAgrees runs every candidate of each statement, by name in
// sorted order, at both sites against the back end's chosen plan, and
// returns how many candidates it ran.
func everyCandidateAgrees(t *testing.T, sys *core.System, stmts map[string]string) int {
	t.Helper()
	const dop = 4 // as TestCandidatesMatchGolden: the same candidates on any host
	back := &opt.Site{
		Cat:        sys.Backend.Catalog(),
		LocalTable: sys.Backend.Table,
		LocalView:  func(string) *storage.Table { return nil },
		Clock:      sys.Backend.Clock(),
	}
	run := func(p *opt.Plan) ([]string, error) {
		res, err := exec.Run(p.Root, &exec.EvalContext{Now: sys.Clock.Now()}, 0)
		if err != nil {
			return nil, err
		}
		return multiset(res.Rows), nil
	}
	names := make([]string, 0, len(stmts))
	for name := range stmts {
		names = append(names, name)
	}
	slices.Sort(names)
	candidates := 0
	for _, name := range names {
		sel, err := sqlparser.ParseSelect(stmts[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var want []string
		chosen, err := sys.Backend.Plan(sel)
		if err == nil {
			want, err = run(chosen)
		}
		atBack, errBack := (&opt.Planner{Site: back, Opts: opt.Options{MaxDOP: dop}}).Candidates(sel)
		atCache, errCache := sys.Cache.PlanCandidates(sel, opt.Options{MaxDOP: dop, ForceLocal: true})
		if errBack != nil || errCache != nil {
			t.Fatalf("%s: candidates: %v / %v", name, errBack, errCache)
		}
		if len(atBack) == 0 || len(atCache) == 0 {
			t.Fatalf("%s: %d candidates at the back end, %d at the cache", name, len(atBack), len(atCache))
		}
		for _, c := range append(atBack, atCache...) {
			candidates++
			got, cerr := run(c)
			switch {
			case err != nil && cerr == nil:
				t.Errorf("%s: the chosen plan fails (%v), %s answers %d rows", name, err, c.Shape, len(got))
			case err == nil && cerr != nil:
				t.Errorf("%s: %s fails: %v", name, c.Shape, cerr)
			case err == nil && !slices.Equal(got, want):
				t.Errorf("%s: %s answers %d rows, the chosen plan %d:\n got %.3q\nwant %.3q", name, c.Shape, len(got), len(want), got, want)
			}
		}
	}
	return candidates
}

// multiset renders each row exactly — every value with its kind, a float by
// its shortest round-trip form — and sorts the renderings.
func multiset(rows []sqltypes.Row) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		var b strings.Builder
		for _, v := range row {
			fmt.Fprintf(&b, "%d:%s|", v.Kind(), v)
		}
		out[i] = b.String()
	}
	slices.Sort(out)
	return out
}
