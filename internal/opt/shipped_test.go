package opt_test

import (
	"math"
	"slices"
	"testing"
	"time"

	"relaxedcc/internal/exec"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/tpcd"
)

// sweep holds, by kind, the values every slot of a statement takes in turn
// in TestRemoteShipsTheScanOfItsText: its own, zero, negative numbers, 2^53
// ± 1, the ends of int64 (math.MinInt64 prints as a text that does not scan),
// integral FLOATs on both sides of 1e18 (one prints as an INT, the other
// with ".0"), a FLOAT whose text outgrows 32 bytes, and strings with quotes.
var sweep = map[sqltypes.Kind][]sqltypes.Value{
	sqltypes.KindInt: {
		sqltypes.NewInt(0), sqltypes.NewInt(-1), sqltypes.NewInt(-4242), sqltypes.NewInt(1<<53 - 1), sqltypes.NewInt(1<<53 + 1),
		sqltypes.NewInt(math.MinInt64), sqltypes.NewInt(math.MaxInt64), sqltypes.NewInt(17),
	},
	sqltypes.KindFloat: {
		sqltypes.NewFloat(0), sqltypes.NewFloat(-2.5), sqltypes.NewFloat(1e17), sqltypes.NewFloat(-1e18), sqltypes.NewFloat(1<<53 + 1),
		sqltypes.NewFloat(math.MaxFloat64), sqltypes.NewFloat(0.1), sqltypes.NewFloat(-0.0),
	},
	sqltypes.KindString: {
		sqltypes.NewString(""), sqltypes.NewString("it's"), sqltypes.NewString("''"), sqltypes.NewString("BUILDING"),
	},
}

// TestRemoteShipsTheScanOfItsText: for every Remote leaf of every candidate
// of the golden statements (the benchmark templates, the Table 4.2/4.3
// variants, the guard queries) and of the tpcd builders' workload forms,
// under every option set and for each literal of the sweep in every slot,
// what the leaf ships (exec.Remote.Shipment) is what Scan reads from the text
// it would have spliced: the same skeleton and values when that text scans,
// the text itself exactly when it does not.
func TestRemoteShipsTheScanOfItsText(t *testing.T) {
	sys, err := tpcd.NewLoadedSystem(tpcd.Config{ScaleFactor: 0.005, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auditClean(t, sys) })
	stmts := goldenStatements()
	for _, b := range []time.Duration{0, 2 * time.Second} {
		stmts["tpcd-point-"+b.String()] = tpcd.Query(tpcd.KindPoint, 4242, b)
		stmts["tpcd-join-"+b.String()] = tpcd.Query(tpcd.KindJoin, 4242, b)
	}
	stmts["tpcd-range"] = tpcd.RangeQuery(-5.5, 1e6, "")
	stmts["tpcd-join-pred"] = tpcd.JoinQuery("C.c_name <> 'it''s' AND C.c_custkey BETWEEN -3 AND 40", "")
	var leaves, scanned, text int
	for name, sql := range stmts {
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, own, _ := sqlparser.Scan(sql, nil, nil)
		sel.Slots.Bind(own)
		for _, opts := range []opt.Options{{}, {NoGuards: true}, {ForceLocal: true}, {NoGuards: true, ForceLocal: true, IgnoreConstraints: true}} {
			plans, err := sys.Cache.PlanCandidates(sel, opts)
			if err != nil {
				continue
			}
			for _, p := range plans {
				for _, r := range remotes(p.Root, nil) {
					leaves++
					check(t, name, r, nil)
					for k := 0; k < 8; k++ {
						params := slices.Clone(own)
						for i, v := range params {
							vs := sweep[v.Kind()]
							params[i] = vs[k%len(vs)]
						}
						if check(t, name, r, params) {
							scanned++
						} else {
							text++
						}
					}
				}
			}
		}
	}
	t.Logf("%d statements, %d remote leaves: %d runs shipped a scan, %d a text", len(stmts), leaves, scanned, text)
	if leaves == 0 || scanned == 0 || text == 0 {
		t.Fatal("the sweep must ship both scans and texts")
	}
}

// check holds one shipment of r under params to Scan of the text it stands
// for, and reports whether it shipped a scan.
func check(t *testing.T, name string, r *exec.Remote, params []sqltypes.Value) bool {
	t.Helper()
	want := r.SQL
	if params != nil && len(r.Text.Slots) > 0 {
		want = r.Text.Splice(params)
	}
	q := r.Shipment(&exec.EvalContext{Params: params})
	if got := q.Text(); got != want {
		t.Fatalf("%s: the shipment's text is %q, want %q", name, got, want)
	}
	skel, vals, ok := sqlparser.Scan(want, nil, nil)
	if ok != (q.Skel != nil) {
		t.Fatalf("%s: %q scans %v, shipped a scan %v", name, want, ok, q.Skel != nil)
	}
	if !ok {
		return false
	}
	if string(q.Skel) != string(skel) || len(q.Vals) != len(vals) {
		t.Fatalf("%s: %q ships skeleton %q with %d values, scans to %q with %d", name, want, q.Skel, len(q.Vals), skel, len(vals))
	}
	for i, v := range vals {
		w := q.Vals[i]
		if v.Kind() != w.Kind() || v.Compare(w) != 0 || v.Kind() == sqltypes.KindFloat && math.Float64bits(v.Float()) != math.Float64bits(w.Float()) {
			t.Fatalf("%s: %q ships value %d as %v, scans it as %v", name, want, i, w, v)
		}
	}
	return true
}

// remotes collects the Remote operators under op, over every branch.
func remotes(op exec.Operator, out []*exec.Remote) []*exec.Remote {
	if r, ok := op.(*exec.Remote); ok {
		out = append(out, r)
	}
	exec.VisitChildren(op, func(c *exec.Operator) { out = remotes(*c, out) })
	return out
}
