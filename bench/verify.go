package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"relaxedcc/internal/core"
	"relaxedcc/internal/mtcache"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
)

// verifyEvery is the sampling rate of the back-end comparison on read-only
// workloads: one answer in 64 is checked as a multiset.
const verifyEvery = 64

// maxReported bounds the failure messages kept for printing.
const maxReported = 10

// digest is an order-insensitive fingerprint of a result: row count plus the
// sum of per-row hashes, so two answers with the same multiset of rows have
// the same digest whatever order they arrived in.
type digest struct {
	rows int
	sum  uint64
}

func digestRows(rows []sqltypes.Row) digest {
	d := digest{rows: len(rows)}
	for _, r := range rows {
		h := fnv.New64a()
		h.Write([]byte(sqltypes.RowKey(r)))
		d.sum += h.Sum64()
	}
	return d
}

// sameAnswer reports whether two results hold the same multiset of rows. It
// compares digests first; when they differ it sorts both sides and compares
// value by value, floats within a relative 1e-9: the back end may add up a
// float aggregate in a different order from one execution to the next, and
// the last bits of the sum are not part of the answer.
func sameAnswer(got, want []sqltypes.Row) bool {
	if len(got) != len(want) {
		return false
	}
	if digestRows(got) == digestRows(want) {
		return true
	}
	byKey := func(rows []sqltypes.Row) []sqltypes.Row {
		out := append([]sqltypes.Row(nil), rows...)
		sort.Slice(out, func(i, j int) bool { return sqltypes.RowKey(out[i]) < sqltypes.RowKey(out[j]) })
		return out
	}
	got, want = byKey(got), byKey(want)
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for c, g := range got[i] {
			w := want[i][c]
			if g.Kind() == sqltypes.KindFloat && w.Kind() == sqltypes.KindFloat {
				if math.Abs(g.Float()-w.Float()) > 1e-9*math.Max(math.Abs(g.Float()), math.Abs(w.Float())) {
					return false
				}
			} else if !g.Equal(w) {
				return false
			}
		}
	}
	return true
}

type sample struct {
	stmt uint32
	rows []sqltypes.Row
}

// verifier decides whether an answer is one the workload allows. Read-only
// workloads sample answers and compare them with the back end's after the
// round (the data never changes, so a later comparison is exact, and it stays
// out of the timed loop). read_write checks every read against a model of
// what the driver wrote.
type verifier struct {
	sys   *core.System
	st    *stream
	model bool
	// hist holds, per hot key, the value loaded and then every value
	// written, oldest first.
	hist map[int][]float64
	seen int
	// pending are sampled answers awaiting comparison; backend caches the
	// back end's digest per statement.
	pending []sample
	backend map[uint32]digest

	failures []string
}

func newVerifier(sys *core.System, st *stream, model bool) (*verifier, error) {
	v := &verifier{sys: sys, st: st, model: model, backend: map[uint32]digest{}}
	if !model {
		return v, nil
	}
	v.hist = map[int][]float64{}
	cust := sys.Backend.Table("Customer")
	bal := cust.Def().ColumnIndex("c_acctbal")
	for i := range st.stmts {
		k := st.stmts[i].key
		if k == 0 || v.hist[k] != nil {
			continue
		}
		row, ok := cust.Get(sqltypes.Row{sqltypes.NewInt(int64(k))})
		if !ok {
			return nil, fmt.Errorf("verify: customer %d not loaded", k)
		}
		v.hist[k] = []float64{row[bal].Float()}
	}
	return v, nil
}

func (v *verifier) fail(format string, args ...any) bool {
	if len(v.failures) < maxReported {
		v.failures = append(v.failures, fmt.Sprintf(format, args...))
	}
	return false
}

// preflight runs the first statement of every template once at the cache
// and on the back end, and parses every DML template: the benchmark refuses
// to start on a statement that errors or answers differently.
func (v *verifier) preflight() error {
	done := map[string]bool{}
	for i := range v.st.stmts {
		s := &v.st.stmts[i]
		if done[s.tmpl] {
			continue
		}
		done[s.tmpl] = true
		if s.write {
			if _, err := sqlparser.Parse(s.sql); err != nil {
				return fmt.Errorf("preflight %s: %w", s.tmpl, err)
			}
			continue
		}
		got, err := v.sys.Query(s.sql)
		if err != nil {
			return fmt.Errorf("preflight %s at the cache: %w", s.tmpl, err)
		}
		want, err := v.sys.QueryBackend(s.sql)
		if err != nil {
			return fmt.Errorf("preflight %s at the back end: %w", s.tmpl, err)
		}
		if !sameAnswer(got.Rows, want.Rows) {
			return fmt.Errorf("preflight %s: cache answered %d rows, back end %d rows, contents differ: %s", s.tmpl, len(got.Rows), len(want.Rows), s.sql)
		}
	}
	return nil
}

// checkRead reports whether the answer to op idx is acceptable. now is the
// system's virtual time when the query ran.
func (v *verifier) checkRead(idx uint32, qr *mtcache.QueryResult, now time.Time) bool {
	s := &v.st.stmts[idx]
	local := qr.RemoteQueries == 0
	if local && s.bound > 0 && now.Sub(qr.AsOf) > s.bound {
		return v.fail("bound violated: %s answered locally as of %v at %v", s.sql, qr.AsOf, now)
	}
	if !v.model {
		v.seen++
		if v.seen%verifyEvery == 0 {
			v.pending = append(v.pending, sample{idx, qr.Rows})
		}
		return true
	}
	if len(qr.Rows) != 1 || qr.Rows[0][0].Int() != int64(s.key) {
		return v.fail("model: %s returned %d rows", s.sql, len(qr.Rows))
	}
	got := qr.Rows[0][2].Float()
	h := v.hist[s.key]
	if !local {
		if last := h[len(h)-1]; got != last {
			return v.fail("model: remote read of key %d saw %v, last written %v", s.key, got, last)
		}
		return true
	}
	for _, w := range h {
		if w == got {
			return true
		}
	}
	return v.fail("model: local read of key %d saw %v, never written", s.key, got)
}

// wrote records a successful DML in the model.
func (v *verifier) wrote(s *stmt) {
	if v.model && s.tmpl == "update" {
		v.hist[s.key] = append(v.hist[s.key], s.val)
	}
}

// flush compares the sampled answers with the back end's and returns how
// many differ.
func (v *verifier) flush() (failed int, err error) {
	for _, p := range v.pending {
		sql := v.st.stmts[p.stmt].sql
		want, ok := v.backend[p.stmt]
		if ok && digestRows(p.rows) == want {
			continue
		}
		res, err := v.sys.QueryBackend(sql)
		if err != nil {
			return failed, fmt.Errorf("verify: back end: %w", err)
		}
		v.backend[p.stmt] = digestRows(res.Rows)
		if !sameAnswer(p.rows, res.Rows) {
			failed++
			v.fail("sampled answer differs from the back end (%d vs %d rows): %s", len(p.rows), len(res.Rows), sql)
		}
	}
	v.pending = v.pending[:0]
	return failed, nil
}

// viewsMatchBase quiesces replication and asserts each cached view equals
// its base table, row for row.
func (v *verifier) viewsMatchBase() error {
	if err := v.sys.Run(60 * time.Second); err != nil {
		return err
	}
	for _, view := range v.sys.Cache.Catalog().Views() {
		base := v.sys.Backend.Table(view.BaseTable)
		local := v.sys.Cache.ViewData(view.Name)
		if base == nil || local == nil {
			return fmt.Errorf("verify: view %s has no storage", view.Name)
		}
		ords := make([]int, len(view.Columns))
		for i, c := range view.Columns {
			ords[i] = base.Def().ColumnIndex(c)
		}
		want := scanKeys(base, ords)
		got := scanKeys(local, nil)
		if len(want) != len(got) {
			return fmt.Errorf("verify: view %s has %d rows, base table %d", view.Name, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				return fmt.Errorf("verify: view %s differs from %s at row %d", view.Name, view.BaseTable, i)
			}
		}
	}
	return nil
}

// scanKeys returns one key string per row in storage order, projected onto
// ords (all columns when nil). View and base share the clustering key, so
// equal contents scan in the same order.
func scanKeys(t *storage.Table, ords []int) []string {
	out := make([]string, 0, t.Len())
	t.Scan(func(r sqltypes.Row) bool {
		if ords != nil {
			p := make(sqltypes.Row, len(ords))
			for i, o := range ords {
				p[i] = r[o]
			}
			r = p
		}
		out = append(out, sqltypes.RowKey(r))
		return true
	})
	return out
}
