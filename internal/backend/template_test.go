package backend

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
	"relaxedcc/internal/vclock"
)

// knowsDML reports whether the server would run sql from a DML template,
// without parsing or compiling it.
func knowsDML(s *Server, sql string) bool {
	skel, vals, ok := sqlparser.Scan(sql, nil, nil)
	s.stmtMu.Lock()
	defer s.stmtMu.Unlock()
	if !ok {
		return false
	}
	t := s.shapes.Find(skel, vals)
	return t != nil && t.DML != nil
}

// contents renders a table's rows in key order, each secondary index's rows
// in its order, and the table's index consistency check.
func contents(t *testing.T, s *Server, table string) string {
	t.Helper()
	tbl := s.Table(table)
	var b strings.Builder
	tbl.Scan(func(r sqltypes.Row) bool {
		b.WriteString(r.String())
		return true
	})
	kinds := make([]sqltypes.Kind, len(tbl.Def().Columns))
	for i, c := range tbl.Def().Columns {
		kinds[i] = c.Type
	}
	for _, idx := range tbl.Def().Indexes {
		lanes := sqltypes.MakeLanes(kinds)
		if err := tbl.ScanIndex(idx.Name, storage.Bound{}, storage.Bound{}, &lanes); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "\n%s:", idx.Name)
		for i := 0; i < lanes.Len(); i++ {
			b.WriteString(lanes.AppendRow(nil, i).String())
		}
	}
	return b.String() + "\n" + tbl.CheckIndexConsistency()
}

// TestFailedKeyMovingUpdateLeavesTheTableAsItWas: an UPDATE that moves rows
// to other keys and then hits a duplicate undoes the moves it made — the old
// rows back under their keys, the new ones gone, every index as it was — and
// writes no commit record, through a template and through ExecStmt alike.
func TestFailedKeyMovingUpdateLeavesTheTableAsItWas(t *testing.T) {
	s := New(vclock.NewVirtual())
	mustExec(t, s, `CREATE TABLE o (c BIGINT NOT NULL, k BIGINT NOT NULL, p DOUBLE, PRIMARY KEY (c, k))`)
	mustExec(t, s, `CREATE INDEX ix_p ON o (p)`)
	for i := 0; i < 100; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO o VALUES (%d, %d, %d)", i/10, i, i))
	}
	before, seq := contents(t, s, "o"), s.Log().LastSeq()
	// k 70 moves to 80, then k 71 to 79, which is taken.
	for _, sql := range []string{"UPDATE o SET k = 150 - k WHERE c = 7", "UPDATE o SET k = 150 - k WHERE c = 7", "UPDATE o SET k = 130 - k WHERE c = 6"} {
		if _, err := s.Exec(sql); err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
			t.Fatalf("%s: %v, want a duplicate key", sql, err)
		}
		if got := contents(t, s, "o"); got != before {
			t.Fatalf("%s changed the table:\n%s\nwas\n%s", sql, got, before)
		}
		if s.Log().LastSeq() != seq {
			t.Fatalf("%s wrote the log", sql)
		}
	}
	stmt, err := sqlparser.Parse("UPDATE o SET k = 150 - k WHERE c = 7")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecStmt(stmt); err == nil || contents(t, s, "o") != before || s.Log().LastSeq() != seq {
		t.Fatalf("ExecStmt: %v; table or log changed", err)
	}
	if err := s.CheckLog(); err != nil {
		t.Fatal(err)
	}
}

// TestColumnAssignedTwiceIsRejected: an INSERT column list or an UPDATE SET
// that names a column twice fails at bind, with one error for both, through
// Exec and ExecStmt alike; nothing is written and no template is filed.
func TestColumnAssignedTwiceIsRejected(t *testing.T) {
	s := loadOrders(t)
	seq := s.Log().LastSeq()
	for _, sql := range []string{
		"INSERT INTO o (c, k, k) VALUES (900000, 1, 2)",
		"UPDATE o SET p = 1, p = 2 WHERE c = 7 AND k = 70",
	} {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		_, errStmt := s.ExecStmt(stmt)
		for i := 0; i < 2; i++ {
			if _, err := s.Exec(sql); err == nil || err.Error() != errStmt.Error() || err.Error() != "backend: o.k is assigned twice" && err.Error() != "backend: o.p is assigned twice" {
				t.Fatalf("%s: %v; ExecStmt %v", sql, err, errStmt)
			}
		}
		if knowsDML(s, sql) {
			t.Fatalf("%s: template filed", sql)
		}
	}
	res, err := s.Query("SELECT p FROM o WHERE c = 7 AND k = 70")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Float() != 70 || s.Log().LastSeq() != seq {
		t.Fatalf("%v, %v; log %d, was %d", res, err, s.Log().LastSeq(), seq)
	}
}

// TestDMLTemplateMatchesAFreshParse: each row's first text files its shape's
// template (or, failing at bind, files nothing), and its second text, another
// of the same skeleton, runs from it. A twin server runs both through
// ExecStmt(Parse(text)). The two agree on affected counts, error texts, table
// contents and commit logs.
func TestDMLTemplateMatchesAFreshParse(t *testing.T) {
	mk := func() (*Server, *vclock.Virtual) {
		clock := vclock.NewVirtual()
		s := New(clock)
		for _, sql := range []string{
			`CREATE TABLE t (id BIGINT NOT NULL PRIMARY KEY, name VARCHAR(20), bal DOUBLE)`,
			`CREATE INDEX ix_name ON t (name)`,
			`CREATE TABLE li (o BIGINT NOT NULL, n BIGINT NOT NULL, q DOUBLE, PRIMARY KEY (o, n))`,
			`CREATE TABLE ev (id BIGINT NOT NULL PRIMARY KEY, at TIMESTAMP)`,
			`INSERT INTO t VALUES (-7, 'neg', -70), (-8, 'neg', -80)`,
		} {
			mustExec(t, s, sql)
		}
		for i := 1; i <= 40; i++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, 'n%d', %d)", i, i%7, i*10))
			for n := 1; n <= 3; n++ {
				mustExec(t, s, fmt.Sprintf("INSERT INTO li VALUES (%d, %d, %d)", i, n, i+n))
			}
		}
		return s, clock
	}
	tmpl, clockA := mk()
	twin, clockB := mk()
	for _, c := range []struct {
		what          string
		first, second string
		filed         bool
	}{
		{"by-key UPDATE", "UPDATE t SET bal = 1.5 WHERE id = 7", "UPDATE t SET bal = 2.5 WHERE id = 8", true},
		{"scanning UPDATE", "UPDATE t SET bal = 3.5 WHERE name = 'n2'", "UPDATE t SET bal = 4.5 WHERE name = 'n3'", true},
		{"by-key DELETE", "DELETE FROM li WHERE o = 20 AND n = 1", "DELETE FROM li WHERE o = 21 AND n = 2", true},
		{"scanning DELETE", "DELETE FROM t WHERE bal > 390.5", "DELETE FROM t WHERE bal > 380.5", true},
		{"negated key", "UPDATE t SET bal = -1.5 WHERE id = -7", "UPDATE t SET bal = -2.5 WHERE id = -8", true},
		{"negated miss", "DELETE FROM t WHERE id = -9", "DELETE FROM t WHERE id = -10", true},
		{"= NULL", "UPDATE t SET bal = 4 WHERE id = NULL", "UPDATE t SET bal = 5 WHERE id = NULL", true},
		{"literal of another kind", "UPDATE t SET bal = 6 WHERE id = 'x'", "UPDATE t SET bal = 7 WHERE id = 'y'", false},
		{"SET of another kind", "UPDATE t SET bal = 'x' WHERE id = 9", "UPDATE t SET bal = 'y' WHERE id = 10", false},
		{"SET bal = bal + 1", "UPDATE t SET bal = bal + 1 WHERE id = 9", "UPDATE t SET bal = bal + 2 WHERE id = 10", true},
		{"multi-row VALUES", "INSERT INTO t VALUES (100, 'a', 1.0), (101, 'b', 2.0)", "INSERT INTO t VALUES (102, 'c', 3.0), (103, 'd', 4.0)", true},
		{"column list", "INSERT INTO t (bal, id) VALUES (1.25, 110)", "INSERT INTO t (bal, id) VALUES (2.25, 111)", true},
		{"GETDATE()", "INSERT INTO ev VALUES (1, GETDATE())", "INSERT INTO ev VALUES (2, GETDATE())", true},
		{"key-moving UPDATE", "UPDATE t SET id = 200 WHERE id = 11", "UPDATE t SET id = 201 WHERE id = 12", true},
		{"moves, then a duplicate", "UPDATE li SET n = 5 - n WHERE o = 5", "UPDATE li SET n = 5 - n WHERE o = 6", true},
		{"fails part-way", "UPDATE t SET bal = 1 / (id - 30) WHERE id >= 28", "UPDATE t SET bal = 1 / (id - 33) WHERE id >= 31", true},
		{"duplicate in VALUES", "INSERT INTO t VALUES (300, 'x', 1), (1, 'dup', 2)", "INSERT INTO t VALUES (301, 'y', 1), (2, 'dup', 2)", true},
		{"evaluates before a bind error", "INSERT INTO t VALUES (1 / 0, 'x', 1), (5)", "INSERT INTO t VALUES (1 / 1, 'x', 1), (5)", false},
	} {
		for i, sql := range []string{c.first, c.second} {
			clockA.Advance(time.Second)
			clockB.Advance(time.Second)
			if known := knowsDML(tmpl, sql); known != (i == 1 && c.filed) {
				t.Fatalf("%s: %q runs from a template: %v", c.what, sql, known)
			}
			n, err := tmpl.Exec(sql)
			stmt, perr := sqlparser.Parse(sql)
			if perr != nil {
				t.Fatal(perr)
			}
			m, errTwin := twin.ExecStmt(stmt)
			if n != m || fmt.Sprint(err) != fmt.Sprint(errTwin) {
				t.Fatalf("%s: %q: %d, %v; fresh parse %d, %v", c.what, sql, n, err, m, errTwin)
			}
		}
		for _, table := range []string{"t", "li", "ev"} {
			if a, b := contents(t, tmpl, table), contents(t, twin, table); a != b {
				t.Fatalf("%s: table %s\n%s\nfresh parse\n%s", c.what, table, a, b)
			}
		}
	}
	la, lb := tmpl.Log().Since(0), twin.Log().Since(0)
	if len(la) != len(lb) {
		t.Fatalf("commit logs differ in length: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if fmt.Sprint(la[i]) != fmt.Sprint(lb[i]) {
			t.Fatalf("record %d: %v vs %v", i, la[i], lb[i])
		}
	}
	for _, s := range []*Server{tmpl, twin} {
		if err := s.CheckLog(); err != nil {
			t.Fatal(err)
		}
	}
	// Each GETDATE() hit stores its own statement's time.
	res, err := tmpl.Query("SELECT at FROM ev")
	if err != nil || len(res.Rows) != 2 || res.Rows[0][0].Equal(res.Rows[1][0]) {
		t.Fatalf("GETDATE() rows %v, %v", res, err)
	}
}

// TestDMLTemplatesFollowInvalidation: a DML template filed before CREATE
// INDEX, CREATE TABLE, AnalyzeAll, LoadRows or RegisterRegion is not used
// after it; the next text of the shape files it again.
func TestDMLTemplatesFollowInvalidation(t *testing.T) {
	s, _ := newServer(t)
	loadItems(t, s, 50)
	for i, inv := range []struct {
		name       string
		invalidate func() error
	}{
		{"CREATE INDEX", func() error { _, err := s.Exec("CREATE INDEX ix_cat ON item (cat)"); return err }},
		{"CREATE TABLE", func() error { _, err := s.Exec("CREATE TABLE u (id BIGINT NOT NULL PRIMARY KEY)"); return err }},
		{"AnalyzeAll", func() error { s.AnalyzeAll(); return nil }},
		{"LoadRows", func() error { return s.LoadRows("u", []sqltypes.Row{{sqltypes.NewInt(1)}}) }},
		{"RegisterRegion", func() error {
			return s.RegisterRegion(&catalog.Region{ID: 9, Name: "r9", UpdateInterval: time.Second})
		}},
	} {
		sql := fmt.Sprintf("UPDATE item SET price = %d.5 WHERE id = %d", i, i)
		if n, err := s.Exec(sql); n != 1 || err != nil || !knowsDML(s, sql) {
			t.Fatalf("before %s: %d, %v, template filed %v", inv.name, n, err, knowsDML(s, sql))
		}
		if err := inv.invalidate(); err != nil {
			t.Fatalf("%s: %v", inv.name, err)
		}
		if knowsDML(s, sql) {
			t.Fatalf("%s left the DML template in place", inv.name)
		}
	}
}

// TestDMLCompiledAcrossAnInvalidationIsNotFiled: the templates are dropped
// while a statement is being compiled (here from inside its table lookup, as
// a concurrent CREATE INDEX would between compile and filing). The statement
// runs from its own template, which is not filed; the next text is.
func TestDMLCompiledAcrossAnInvalidationIsNotFiled(t *testing.T) {
	s, _ := newServer(t)
	loadItems(t, s, 50)
	lookup, invalidations := s.planner.Site.LocalTable, 1
	s.planner.Site.LocalTable = func(name string) *storage.Table {
		if invalidations > 0 {
			invalidations--
			s.invalidatePlans()
		}
		return lookup(name)
	}
	for i, wantKnown := range []bool{false, true, true} {
		sql := fmt.Sprintf("UPDATE item SET price = %d.5 WHERE id = %d", i, 7+i)
		if n, err := s.Exec(sql); n != 1 || err != nil {
			t.Fatalf("%q: %d, %v", sql, n, err)
		}
		if known := knowsDML(s, sql); known != wantKnown {
			t.Fatalf("after statement %d the template is filed: %v, want %v", i, known, wantKnown)
		}
	}
}

// TestDMLSharesTemplatesUnderRace: four goroutines update their own rows
// through one shape beside one that analyzes and creates indexes, which drops
// the templates mid-flight. Run under -race; every row ends as written.
func TestDMLSharesTemplatesUnderRace(t *testing.T) {
	s, _ := newServer(t)
	loadItems(t, s, 400)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := w*100 + i
				if n, err := s.Exec(fmt.Sprintf("UPDATE item SET price = %d.25 WHERE id = %d", id, id)); n != 1 || err != nil {
					t.Errorf("id %d: %d, %v", id, n, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			if i%4 == 0 {
				if _, err := s.Exec(fmt.Sprintf("CREATE INDEX ix_race_%d ON t (name)", i)); err != nil {
					t.Error(err)
				}
			} else {
				s.AnalyzeAll()
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	res, err := s.Query("SELECT COUNT(*) FROM item WHERE price - id = 0.25")
	if err != nil || res.Rows[0][0].Int() != 400 {
		t.Fatalf("%v, %v", res, err)
	}
}
