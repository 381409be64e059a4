package backend

import (
	"fmt"
	"math"
	"runtime/debug"
	"slices"
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

func newServer(t *testing.T) (*Server, *vclock.Virtual) {
	t.Helper()
	clock := vclock.NewVirtual()
	s := New(clock)
	if _, err := s.Exec(`CREATE TABLE t (id BIGINT NOT NULL PRIMARY KEY, name VARCHAR(20), bal DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	return s, clock
}

func TestCreateTableAndInsert(t *testing.T) {
	s, _ := newServer(t)
	n, err := s.Exec("INSERT INTO t (id, name, bal) VALUES (1, 'a', 10.5), (2, 'b', 20)")
	if err != nil || n != 2 {
		t.Fatalf("insert = %d, %v", n, err)
	}
	res, err := s.Query("SELECT name FROM t WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "b" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestInsertWithoutColumnList(t *testing.T) {
	s, _ := newServer(t)
	if _, err := s.Exec("INSERT INTO t VALUES (1, 'a', 1.0)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO t VALUES (2)"); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestInsertDuplicateRollsBackStatement(t *testing.T) {
	s, _ := newServer(t)
	if _, err := s.Exec("INSERT INTO t (id, name, bal) VALUES (1, 'a', 1)"); err != nil {
		t.Fatal(err)
	}
	seq := s.Log().LastSeq()
	// Multi-row insert where the second row conflicts: whole statement out.
	if _, err := s.Exec("INSERT INTO t (id, name, bal) VALUES (5, 'x', 1), (1, 'dup', 2)"); err == nil {
		t.Fatal("duplicate accepted")
	}
	// The second row fails to evaluate: the first must not stay behind.
	if _, err := s.Exec("INSERT INTO t (id, name, bal) VALUES (6, 'y', 1), (7, 'z', 1 / 0)"); err == nil {
		t.Fatal("division by zero accepted")
	}
	res, _ := s.Query("SELECT id FROM t WHERE id = 5 OR id = 6")
	if len(res.Rows) != 0 {
		t.Fatal("failed statement left partial changes")
	}
	if s.Log().LastSeq() != seq {
		t.Fatal("failed statement appended to the log")
	}
	if err := s.CheckLog(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdate(t *testing.T) {
	s, _ := newServer(t)
	s.Exec("INSERT INTO t VALUES (1, 'a', 1), (2, 'b', 2), (3, 'c', 3)")
	n, err := s.Exec("UPDATE t SET bal = bal + 10 WHERE id >= 2")
	if err != nil || n != 2 {
		t.Fatalf("update = %d, %v", n, err)
	}
	res, _ := s.Query("SELECT bal FROM t WHERE id = 3")
	if res.Rows[0][0].Float() != 13 {
		t.Fatalf("bal = %v", res.Rows[0][0])
	}
	// Update of the primary key is delete+insert under the hood.
	if _, err := s.Exec("UPDATE t SET id = 30 WHERE id = 3"); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Query("SELECT bal FROM t WHERE id = 30")
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 13 {
		t.Fatalf("moved row = %v", res.Rows)
	}
}

func TestDelete(t *testing.T) {
	s, _ := newServer(t)
	s.Exec("INSERT INTO t VALUES (1, 'a', 1), (2, 'b', 2)")
	n, err := s.Exec("DELETE FROM t WHERE id = 1")
	if err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	res, _ := s.Query("SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int() != 1 {
		t.Fatal("count after delete")
	}
	// Unqualified delete removes everything.
	if _, err := s.Exec("DELETE FROM t"); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Query("SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int() != 0 {
		t.Fatal("count after delete all")
	}
}

func TestCommitLogRecordsChanges(t *testing.T) {
	s, clock := newServer(t)
	base := s.Log().LastSeq()
	clock.Advance(5 * time.Second)
	s.Exec("INSERT INTO t VALUES (1, 'a', 1)")
	clock.Advance(5 * time.Second)
	s.Exec("UPDATE t SET name = 'z' WHERE id = 1")
	s.Exec("DELETE FROM t WHERE id = 1")
	recs := s.Log().Since(base)
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	if ins, upd, del := recs[0].Changes[0], recs[1].Changes[0], recs[2].Changes[0]; ins.Old != nil || ins.New == nil || upd.Old == nil || upd.New == nil || del.Old == nil || del.New != nil {
		t.Fatal("a change's kind is which side is nil")
	}
	if recs[1].Changes[0].Old[1].Str() != "a" || recs[1].Changes[0].New[1].Str() != "z" {
		t.Fatal("before/after images")
	}
	if !recs[0].TS.At.Equal(vclock.Epoch.Add(5 * time.Second)) {
		t.Fatalf("commit time = %v", recs[0].TS.At)
	}
}

func TestCreateIndexAndUseIt(t *testing.T) {
	s, _ := newServer(t)
	for i := 1; i <= 100; i++ {
		s.Exec("INSERT INTO t VALUES (" + itoa(i) + ", 'x', " + itoa(i) + ".0)")
	}
	if _, err := s.Exec("CREATE INDEX ix_bal ON t (bal)"); err != nil {
		t.Fatal(err)
	}
	s.AnalyzeAll()
	res, err := s.Query("SELECT id FROM t WHERE bal BETWEEN 10 AND 15")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if _, err := s.Exec("CREATE INDEX ix2 ON missing (x)"); err == nil {
		t.Fatal("index on missing table accepted")
	}
}

func itoa(i int) string {
	return sqltypes.NewInt(int64(i)).String()
}

func TestTrivialSelect(t *testing.T) {
	s, _ := newServer(t)
	res, err := s.Query("SELECT 1 + 1 AS two, 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 || res.Rows[0][1].Str() != "x" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Schema.Cols[0].Name != "two" {
		t.Fatal("alias")
	}
}

func TestHeartbeatLifecycle(t *testing.T) {
	s, clock := newServer(t)
	if err := s.RegisterRegion(&catalog.Region{ID: 1, Name: "CR1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Beat(99); err == nil {
		t.Fatal("beat of unknown region accepted")
	}
	clock.Advance(7 * time.Second)
	if err := s.Beat(1); err != nil {
		t.Fatal(err)
	}
	row, ok := s.Table(HeartbeatTable).Get(sqltypes.Row{sqltypes.NewInt(1)})
	if !ok || !row[1].Time().Equal(clock.Now()) {
		t.Fatalf("heartbeat row = %v", row)
	}
	// The beat is an ordinary logged transaction.
	recs := s.Log().Since(0)
	last := recs[len(recs)-1]
	if last.Changes[0].Table != HeartbeatTable {
		t.Fatal("beat not logged")
	}
}

func TestStatementErrors(t *testing.T) {
	s, _ := newServer(t)
	bad := []string{
		"INSERT INTO missing VALUES (1)",
		"UPDATE missing SET x = 1",
		"DELETE FROM missing",
		"UPDATE t SET nope = 1",
		"INSERT INTO t (nope) VALUES (1)",
		"CREATE TABLE t (id INT PRIMARY KEY)", // duplicate
		"BEGIN TIMEORDERED",                   // session statements not for the back end
	}
	for _, sql := range bad {
		if _, err := s.Exec(sql); err == nil {
			t.Errorf("%q accepted", sql)
		}
	}
	if _, err := s.Query("SELECT * FROM missing"); err == nil {
		t.Fatal("query of missing table accepted")
	}
	if _, err := s.Query("not sql at all"); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadRows(t *testing.T) {
	s, _ := newServer(t)
	rows := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewString("a"), sqltypes.NewFloat(1)},
		{sqltypes.NewInt(2), sqltypes.NewString("b"), sqltypes.NewFloat(2)},
	}
	if err := s.LoadRows("t", rows); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadRows("missing", rows); err == nil {
		t.Fatal("LoadRows into missing table accepted")
	}
	// Duplicate load rolls back entirely.
	if err := s.LoadRows("t", rows); err == nil {
		t.Fatal("duplicate LoadRows accepted")
	}
	res, _ := s.Query("SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int() != 2 {
		t.Fatal("rollback failed")
	}
}

func TestAnalyzeAll(t *testing.T) {
	s, _ := newServer(t)
	for i := 1; i <= 50; i++ {
		s.Exec("INSERT INTO t VALUES (" + itoa(i) + ", 'n', 1.0)")
	}
	s.AnalyzeAll()
	stats := s.Catalog().Table("t").Stats
	if stats.Rows() != 50 {
		t.Fatalf("rows = %d", stats.Rows())
	}
	if cs := stats.Column("id"); cs == nil || cs.NDV != 50 {
		t.Fatalf("id stats = %+v", cs)
	}
}

func TestAggregationAndArithmetic(t *testing.T) {
	s, _ := newServer(t)
	s.Exec("INSERT INTO t VALUES (1, 'a', 10), (2, 'a', 20), (3, 'b', 30)")
	res, err := s.Query(`SELECT name, COUNT(*) AS n, SUM(bal) AS total, MIN(bal), MAX(bal), AVG(bal)
		FROM t GROUP BY name ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	a := res.Rows[0]
	if a[0].Str() != "a" || a[1].Int() != 2 || a[2].Float() != 30 || a[3].Float() != 10 || a[4].Float() != 20 || a[5].Float() != 15 {
		t.Fatalf("group a = %v", a)
	}
}

func TestQueryWithCurrencyClauseAtBackend(t *testing.T) {
	// The back end accepts currency clauses and satisfies them trivially.
	s, _ := newServer(t)
	s.Exec("INSERT INTO t VALUES (1, 'a', 1)")
	res, err := s.Query("SELECT id FROM t CURRENCY 10 MIN ON (t)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatal("rows")
	}
}

func TestUnsupportedStatement(t *testing.T) {
	s, _ := newServer(t)
	if _, err := s.ExecStmt(nil); err == nil || !strings.Contains(err.Error(), "unsupported") {
		t.Fatalf("err = %v", err)
	}
}

// TestStoredValuesFitTheirColumns: INSERT, UPDATE's SET and LoadRows refuse
// a value of another kind than its column's, and a NaN; BIGINT and DOUBLE
// are stored as given in each other's columns. Nothing refused reaches the
// log, and DML comparing the columns still runs afterwards.
func TestStoredValuesFitTheirColumns(t *testing.T) {
	s, _ := newServer(t)
	mustExec(t, s, "INSERT INTO t VALUES (1, 'a', 1), (2.0, 'b', 2.5)")
	seq := s.Log().LastSeq()
	for _, sql := range []string{
		"INSERT INTO t VALUES ('x', 'b', 2.0)",
		"INSERT INTO t VALUES (3, 5, 'z')",
		"INSERT INTO t VALUES (3, 'c', 3), (4, 'd', 'z')",
		"UPDATE t SET name = 7 WHERE id = 1",
		"UPDATE t SET bal = 'z' WHERE id >= 1",
	} {
		if _, err := s.Exec(sql); err == nil {
			t.Errorf("%s: stored a value of the wrong kind", sql)
		}
	}
	for _, v := range []sqltypes.Value{sqltypes.NewString("z"), sqltypes.NewFloat(math.NaN())} {
		if err := s.LoadRows("t", []sqltypes.Row{{sqltypes.NewInt(5), sqltypes.NewString("e"), v}}); err == nil {
			t.Errorf("LoadRows stored %v in a DOUBLE column", v)
		}
	}
	if s.Log().LastSeq() != seq {
		t.Fatal("a refused statement wrote the log")
	}
	for _, sql := range []string{
		"UPDATE t SET bal = bal + 1 WHERE id = 2",
		"UPDATE t SET name = 'n' WHERE name = 'a'",
		"DELETE FROM t WHERE bal > 2 AND id = 2",
	} {
		if n, err := s.Exec(sql); err != nil || n != 1 {
			t.Errorf("%s: %d rows, %v; want 1", sql, n, err)
		}
	}
}

// tickingClock moves a microsecond forward every time it is read.
type tickingClock struct{ now time.Time }

func (c *tickingClock) Now() time.Time {
	c.now = c.now.Add(time.Microsecond)
	return c.now
}

// TestInsertReadsTheClockOnce: GETDATE() is fixed per statement, so the rows
// of one INSERT get the same timestamp however often the clock moves.
func TestInsertReadsTheClockOnce(t *testing.T) {
	s := New(&tickingClock{now: time.Unix(1e9, 0)})
	mustExec(t, s, `CREATE TABLE ev (id BIGINT NOT NULL PRIMARY KEY, at TIMESTAMP)`)
	mustExec(t, s, `INSERT INTO ev VALUES (1, GETDATE()), (2, GETDATE())`)
	res, err := s.Query(`SELECT at FROM ev`)
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("%v, %v", res, err)
	}
	if a, b := res.Rows[0][0], res.Rows[1][0]; !a.Equal(b) {
		t.Errorf("the rows of one INSERT are stamped %v and %v", a, b)
	}
}

// TestDMLByKeyWritesTheLogOfItsScanningTwin: an UPDATE or DELETE whose WHERE
// pins the whole primary key with literals and a twin server given the same
// predicate in a form no key lookup could serve must affect the same rows,
// fail alike and write the same commit log. Each row also names the path
// matchRows takes for the first form: "seek" (pinKey), "scan", or "error",
// a scan where both twins fail.
func TestDMLByKeyWritesTheLogOfItsScanningTwin(t *testing.T) {
	long := strings.Repeat("k", 70) // longer than the 64-byte stack key
	mk := func() *Server {
		s := New(vclock.NewVirtual())
		for _, sql := range []string{
			`CREATE TABLE t (id BIGINT NOT NULL PRIMARY KEY, name VARCHAR(20), bal DOUBLE)`,
			`CREATE TABLE li (o BIGINT NOT NULL, n BIGINT NOT NULL, q DOUBLE, PRIMARY KEY (o, n))`,
			`CREATE TABLE s (k VARCHAR(80) NOT NULL PRIMARY KEY, v BIGINT)`,
			`INSERT INTO t VALUES (0, 'zero', 0), (9007199254740992, 'big', 1), (9007199254740993, 'big1', 2)`,
			`INSERT INTO s VALUES ('', 0), ('abc', 1), ('ABC', 2), ('Abc', 3), ('` + long + `', 4), ('` + long + `x', 5)`,
		} {
			mustExec(t, s, sql)
		}
		for i := 1; i <= 40; i++ {
			mustExec(t, s, "INSERT INTO t VALUES ("+itoa(i)+", 'n"+itoa(i%7)+"', "+itoa(i*10)+")")
			for n := 1; n <= 3; n++ {
				mustExec(t, s, "INSERT INTO li VALUES ("+itoa(i)+", "+itoa(n)+", "+itoa(i+n)+")")
			}
		}
		return s
	}
	seek, scan := mk(), mk()
	for _, st := range []struct{ path, seek, scan string }{
		{"seek", "UPDATE t SET bal = bal + 1 WHERE id = 7", "UPDATE t SET bal = bal + 1 WHERE id >= 7 AND id <= 7"},
		{"seek", "UPDATE t SET bal = bal + 1 WHERE t.id = 7", "UPDATE t SET bal = bal + 1 WHERE t.id + 0 = 7"},
		{"seek", "UPDATE t SET bal = 0 WHERE 9 = id AND name = 'n2'", "UPDATE t SET bal = 0 WHERE id < 10 AND id > 8 AND name = 'n2'"},
		{"seek", "UPDATE t SET bal = 1 WHERE id = 9 AND name = 'other'", "UPDATE t SET bal = 1 WHERE id + 0 = 9 AND name = 'other'"},
		{"seek", "UPDATE t SET bal = 2 WHERE id = 11.0", "UPDATE t SET bal = 2 WHERE id + 0 = 11"},
		{"seek", "UPDATE t SET bal = 3 WHERE id = 11.5", "UPDATE t SET bal = 3 WHERE id + 0 = 11.5"},
		{"seek", "UPDATE t SET bal = 4 WHERE id = 12 AND id = 13", "UPDATE t SET bal = 4 WHERE id + 0 = 12 AND id + 0 = 13"},
		{"seek", "UPDATE t SET id = 100 WHERE id = 14", "UPDATE t SET id = 100 WHERE id BETWEEN 14 AND 14"},
		{"seek", "UPDATE t SET bal = 5 WHERE id = 999", "UPDATE t SET bal = 5 WHERE id + 0 = 999"},
		{"seek", "UPDATE t SET bal = 6 WHERE id = 9007199254740992", "UPDATE t SET bal = 6 WHERE id + 0 = 9007199254740992"},
		{"seek", "UPDATE t SET bal = 7 WHERE id = 9007199254740993", "UPDATE t SET bal = 7 WHERE id + 0 = 9007199254740993"},
		{"seek", "UPDATE t SET bal = 8 WHERE id = 9007199254740992.0", "UPDATE t SET bal = 8 WHERE id + 0 = 9007199254740992.0"},
		{"seek", "UPDATE t SET bal = 9 WHERE id = 9007199254740993.0", "UPDATE t SET bal = 9 WHERE id + 0 = 9007199254740993.0"},
		{"seek", "UPDATE t SET bal = 10 WHERE id = -0.0", "UPDATE t SET bal = 10 WHERE id + 0 = -0.0"},
		{"seek", "UPDATE li SET q = 0 WHERE o = 5 AND n = 2", "UPDATE li SET q = 0 WHERE o + 0 = 5 AND n = 2"},
		{"seek", "UPDATE s SET v = 10 WHERE k = ''", "UPDATE s SET v = 10 WHERE k <= ''"},
		{"seek", "UPDATE s SET v = 11 WHERE k = 'ABC'", "UPDATE s SET v = 11 WHERE k >= 'ABC' AND k <= 'ABC'"},
		{"seek", "UPDATE s SET v = 12 WHERE k = 'aBC'", "UPDATE s SET v = 12 WHERE k >= 'aBC' AND k <= 'aBC'"},
		{"seek", "UPDATE s SET v = 13 WHERE k = '" + long + "'", "UPDATE s SET v = 13 WHERE k >= '" + long + "' AND k < '" + long + "x'"},
		{"seek", "DELETE FROM li WHERE n = 3 AND o = 8", "DELETE FROM li WHERE n + 0 = 3 AND o = 8"},
		{"seek", "DELETE FROM t WHERE id = 20", "DELETE FROM t WHERE id + 0 = 20"},
		{"seek", "DELETE FROM t WHERE id = 20", "DELETE FROM t WHERE id + 0 = 20"}, // already gone
		{"seek", "DELETE FROM t WHERE id = 21 AND bal > 1000", "DELETE FROM t WHERE id + 0 = 21 AND bal > 1000"},
		{"seek", "DELETE FROM s WHERE k = 'Abc'", "DELETE FROM s WHERE k >= 'Abc' AND k <= 'Abc'"},
		{"scan", "UPDATE li SET q = 1 WHERE o = 6", "UPDATE li SET q = 1 WHERE o + 0 = 6"}, // half a key
		{"scan", "UPDATE t SET bal = 11 WHERE id = NULL", "UPDATE t SET bal = 11 WHERE id + 0 = NULL"},
		{"scan", "UPDATE t SET bal = 12 WHERE id = 7 OR id = 8", "UPDATE t SET bal = 12 WHERE id + 0 = 7 OR id + 0 = 8"},
		{"bind", "UPDATE t SET bal = 13 WHERE id = 'x'", "UPDATE t SET bal = 13 WHERE id + 0 = 'x'"},
		{"error", "UPDATE t SET bal = 14 WHERE bal / 0 = 1 AND id = 999", "UPDATE t SET bal = 14 WHERE bal / 0 = 1 AND id + 0 = 999"},
		{"error", "DELETE FROM t WHERE bal / 0 = 1 AND id = 999", "DELETE FROM t WHERE bal / 0 = 1 AND id + 0 = 999"},
	} {
		if got := seeks(t, seek, st.seek); got != (st.path == "seek") {
			t.Errorf("%s: seeks %v, want path %s", st.seek, got, st.path)
		}
		a, errA := seek.Exec(st.seek)
		b, errB := scan.Exec(st.scan)
		if a != b || (errA == nil) != (errB == nil) || (errA != nil) != (st.path == "error" || st.path == "bind") {
			t.Fatalf("%s: %d rows, %v; scanning twin %d rows, %v", st.seek, a, errA, b, errB)
		}
		if st.path == "bind" && errA.Error() != errB.Error() {
			t.Fatalf("%s: %v; scanning twin %v: want one bind error", st.seek, errA, errB)
		}
	}
	la, lb := seek.Log().Since(0), scan.Log().Since(0)
	if len(la) != len(lb) {
		t.Fatalf("commit logs differ in length: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if len(la[i].Changes) != len(lb[i].Changes) {
			t.Fatalf("record %d: %d changes vs %d", i, len(la[i].Changes), len(lb[i].Changes))
		}
		for j, ca := range la[i].Changes {
			cb := lb[i].Changes[j]
			if ca.Table != cb.Table || !ca.Old.Equal(cb.Old) || !ca.New.Equal(cb.New) {
				t.Fatalf("record %d change %d: %+v vs %+v", i, j, ca, cb)
			}
		}
	}
}

// seeks reports whether matchRows fetches the rows of an UPDATE or DELETE by
// its primary key: a statement that fails to compile reaches no path.
func seeks(t *testing.T, s *Server, sql string) bool {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.compile(stmt)
	return err == nil && d.key != nil
}

// TestDMLByKeyAllocationCeiling: an UPDATE and a DELETE that pin the whole
// key of a 150,000-row table fetch their row without walking the table; a
// scan would add its window buffer and a copy of the matched row. Each text
// after the first of its shape runs from the shape's template, neither parsed
// nor compiled (42, 29 and 23 allocations while every text was), and the row
// changes with its key encoded on the stack (8, 6 and 6 while the UPDATE and
// the DELETE built a key row).
func TestDMLByKeyAllocationCeiling(t *testing.T) {
	if info, _ := debug.ReadBuildInfo(); info != nil && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("the race detector allocates on its own")
	}
	s := loadOrders(t)
	for _, c := range []struct {
		what string
		max  float64
		sql  func(i int) string
	}{
		{"UPDATE", 6, func(i int) string { return "UPDATE o SET p = p + 1 WHERE c = 7 AND k = 75" }},
		{"DELETE", 5, func(i int) string { return fmt.Sprintf("DELETE FROM o WHERE c = %d AND k = %d", i/10, i) }},
		{"INSERT", 6, func(i int) string { return fmt.Sprintf("INSERT INTO o VALUES (%d, %d, %d.5)", 200000+i/10, i, i) }},
	} {
		const runs = 50
		sqls := make([]string, runs+1)
		for i := range sqls {
			sqls[i] = c.sql(i)
		}
		i := 0
		got := testing.AllocsPerRun(runs, func() {
			if n, err := s.Exec(sqls[i]); err != nil || n != 1 {
				t.Fatalf("%s: %d, %v", sqls[i], n, err)
			}
			i++
		})
		if got > c.max {
			t.Errorf("by-key %s: %.0f allocs, ceiling %.0f", c.what, got, c.max)
		}
	}
}

// loadOrders makes a server whose table o (c, k, p), keyed (c, k), holds
// 150,000 rows: k from 0, ten to each c.
func loadOrders(tb testing.TB) *Server {
	s := New(vclock.NewVirtual())
	if _, err := s.Exec(`CREATE TABLE o (c BIGINT NOT NULL, k BIGINT NOT NULL, p DOUBLE, PRIMARY KEY (c, k))`); err != nil {
		tb.Fatal(err)
	}
	rows := make([]sqltypes.Row, 150000)
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i / 10)), sqltypes.NewInt(int64(i)), sqltypes.NewFloat(float64(i))}
	}
	if err := s.LoadRows("o", rows); err != nil {
		tb.Fatal(err)
	}
	return s
}

func mustExec(t *testing.T, s *Server, sql string) {
	t.Helper()
	if _, err := s.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// TestDMLMatchesAcrossWindows: matchRows walks a table a leaf window at a
// time; rows on both sides of every window edge, a statement without WHERE
// and a predicate that fails part-way must behave as over one scan.
func TestDMLMatchesAcrossWindows(t *testing.T) {
	s, _ := newServer(t)
	const win = 255 // the rows of a clustered leaf, when inserted in key order
	const n = 3*win + 7
	for i := 1; i <= n; i++ {
		mustExec(t, s, "INSERT INTO t VALUES ("+itoa(i)+", 'r', "+itoa(i)+")")
	}
	edges := 0
	for w := win; w < n; w += win {
		edges += 2
		mustExec(t, s, "UPDATE t SET name = 'edge' WHERE id = "+itoa(w)+" OR id = "+itoa(w+1))
	}
	if got, err := s.Exec("UPDATE t SET bal = bal + 1 WHERE name = 'edge'"); err != nil || got != edges {
		t.Fatalf("rows at window edges: %d, %v; want %d", got, err, edges)
	}
	if got, err := s.Exec("DELETE FROM t WHERE id = " + itoa(n)); err != nil || got != 1 {
		t.Fatalf("last row: %d, %v", got, err)
	}
	seq := s.Log().LastSeq()
	if _, err := s.Exec("UPDATE t SET bal = 0 WHERE 1 / (id - " + itoa(2*win+3) + ") >= 0"); err == nil {
		t.Fatal("division by zero in the third window went unreported")
	}
	if s.Log().LastSeq() != seq {
		t.Fatal("failed statement wrote the log")
	}
	if got, err := s.Exec("DELETE FROM t"); err != nil || got != n-1 {
		t.Fatalf("DELETE without WHERE: %d, %v; want %d", got, err, n-1)
	}
}

// BenchmarkDMLMatch times a DELETE that matches nothing over 150,000 rows.
// warm and cold give it a predicate that must scan — the whole statement is
// matchRows — with the table left in cache by the previous iteration and
// after a 256 MB sweep has pushed it out. The two should stay close: what a
// statement costs must not hang on what ran before it. (The same statement
// over the end-to-end benchmark's Orders table, on a quiet host: 4.5 ms warm
// and 5.9 ms cold; row at a time, 4.0 and 8.7 ms.) by-key pins the whole key,
// so it seeks the one row and needs no sweep.
func BenchmarkDMLMatch(b *testing.B) {
	s := loadOrders(b)
	sweep := make([]int64, 256<<20/8)
	for _, c := range []struct{ name, where string }{
		{"warm", "c + 0 = -1 AND k = -1"},
		{"cold", "c + 0 = -1 AND k = -1"},
		{"by-key", "c = -1 AND k = -1"},
	} {
		sql := "DELETE FROM o WHERE " + c.where
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if c.name == "cold" {
					b.StopTimer()
					for j := 0; j < len(sweep); j += 8 {
						sweep[j]++
					}
					b.StartTimer()
				}
				if n, err := s.Exec(sql); err != nil || n != 0 {
					b.Fatalf("%d, %v", n, err)
				}
			}
		})
	}
}

// loadItems creates and fills a small table with a non-key column to index.
func loadItems(t *testing.T, s *Server, n int) {
	t.Helper()
	if _, err := s.Exec(`CREATE TABLE item (id BIGINT NOT NULL PRIMARY KEY, cat BIGINT NOT NULL, price DOUBLE NOT NULL)`); err != nil {
		t.Fatal(err)
	}
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 10)), sqltypes.NewFloat(float64(i) / 2)}
	}
	if err := s.LoadRows("item", rows); err != nil {
		t.Fatal(err)
	}
	s.AnalyzeAll()
}

// knowsShape reports whether the server would answer sql from a template,
// without planning.
func knowsShape(s *Server, sql string) bool {
	skel, vals, ok := sqlparser.Scan(sql, nil, nil)
	s.stmtMu.Lock()
	defer s.stmtMu.Unlock()
	return ok && s.shapes.Find(skel, vals) != nil
}

// TestQueryAnswersShippedShapesFromTemplates: Server.Query plans a shape
// once and answers its other literals — keys with no row, negatives, another
// numeric kind — like QuerySelect, which plans every statement; DDL, new
// statistics, a bulk load and a new region drop what it kept.
func TestQueryAnswersShippedShapesFromTemplates(t *testing.T) {
	s, _ := newServer(t)
	loadItems(t, s, 500)
	shape := func(id, cat string) string {
		return "SELECT item.id, item.price FROM item WHERE ((item.id = " + id + ") AND (item.cat <> " + cat + "))"
	}
	for i, lits := range [][2]string{{"7", "3"}, {"8", "3"}, {"8", "8"}, {"499", "0"}, {"100000", "1"}, {"-7", "2"}, {"7.0", "2"}, {"7.5", "2"}, {"7", "-0.5"}} {
		sql := shape(lits[0], lits[1])
		known := knowsShape(s, sql)
		got, err := s.Query(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.QuerySelect(sel)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(want.Rows) || len(got.Rows) == 1 && !got.Rows[0].Equal(want.Rows[0]) {
			t.Fatalf("%q: %v, planned for itself %v", sql, got.Rows, want.Rows)
		}
		// 1–4 repeat the first statement's shape, 7 (7.5) that of 6 (7.0);
		// a folded minus and the other numeric kind are skeletons of their own.
		if wantKnown := i > 0 && i < 5 || i == 7; known != wantKnown {
			t.Fatalf("%q: shape known before the query: %v, want %v", sql, known, wantKnown)
		}
	}
	sql := shape("9", "9")
	for _, inv := range []struct {
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
		name, invalidate := inv.name, inv.invalidate
		if _, err := s.Query(sql); err != nil || !knowsShape(s, sql) {
			t.Fatalf("before %s: %v, shape known %v", name, err, knowsShape(s, sql))
		}
		if err := invalidate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if knowsShape(s, sql) {
			t.Fatalf("%s left the server's templates in place", name)
		}
	}
	// A statement that errors is not cached as anything, and says why each time.
	for i := 0; i < 2; i++ {
		if _, err := s.Query("SELECT nope FROM item WHERE id = 1"); err == nil || !strings.Contains(err.Error(), "nope") {
			t.Fatalf("unknown column: %v", err)
		}
		if _, err := s.Query("SELECT id FROM item WHERE id = 99999999999999999999"); err == nil {
			t.Fatal("an integer no int64 holds was accepted")
		}
	}
}

// TestQueryKeepsAPlanMadeAcrossAnInvalidationPrivate: the templates are
// dropped while a statement is being planned (here from inside the planner's
// storage lookup, as a concurrent CREATE INDEX or AnalyzeAll would between
// Query's plan and its filing). The plan may predate the change, so it answers
// its own statement and is not filed; the next planning of the shape is.
func TestQueryKeepsAPlanMadeAcrossAnInvalidationPrivate(t *testing.T) {
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
		sql := fmt.Sprintf("SELECT id FROM item WHERE id = %d", 7+i)
		res, err := s.Query(sql)
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != int64(7+i) {
			t.Fatalf("%q: %v, %v", sql, res, err)
		}
		if known := knowsShape(s, sql); known != wantKnown {
			t.Fatalf("after query %d the shape is filed: %v, want %v", i, known, wantKnown)
		}
	}
}

// TestQuerySharesShapesUnderRace: four goroutines query one shape with their
// own literals beside one that analyzes and creates indexes, which drops the
// templates mid-flight. Run under -race; every answer is checked. The indexes
// go on another table than the one queried: CREATE INDEX appends to the
// definition's index list, which plans and index scans of that table read
// unlocked (as they did before templates; ROADMAP item 5).
func TestQuerySharesShapesUnderRace(t *testing.T) {
	s, _ := newServer(t)
	loadItems(t, s, 400)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				id := (i*13 + w*97) % 450 // some past the last row
				res, err := s.Query(fmt.Sprintf("SELECT id, price FROM item WHERE id = %d AND cat = %d", id, id%10))
				wantRows := 0
				if id < 400 {
					wantRows = 1
				}
				if err != nil || len(res.Rows) != wantRows || wantRows == 1 && (res.Rows[0][0].Int() != int64(id) || res.Rows[0][1].Float() != float64(id)/2) {
					t.Errorf("id %d: %v, %v", id, res, err)
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
}

// TestBigintKeysPast2To53StayApart: BIGINT values a float64 cannot tell
// apart (2^53 and 2^53+1) are distinct keys. Both inserts succeed, each point
// read returns its own row, a range starting between them reads one, and a
// join and a GROUP BY on the two keys keep them apart. A hundred small keys
// beside them make the reads seek the primary key.
func TestBigintKeysPast2To53StayApart(t *testing.T) {
	s := New(vclock.NewVirtual())
	for _, sql := range []string{
		`CREATE TABLE B (id BIGINT NOT NULL PRIMARY KEY, v BIGINT)`,
		`INSERT INTO B VALUES (9007199254740992, 1)`,
		`INSERT INTO B VALUES (9007199254740993, 2)`,
		`CREATE TABLE R (k BIGINT NOT NULL PRIMARY KEY, g BIGINT)`,
		`INSERT INTO R VALUES (1, 9007199254740993), (2, 9007199254740992), (3, 9007199254740993)`,
	} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	for i := 1; i <= 100; i++ {
		if _, err := s.Exec("INSERT INTO B VALUES (" + itoa(i) + ", 0)"); err != nil {
			t.Fatal(err)
		}
	}
	s.AnalyzeAll()
	query := func(sql string) []sqltypes.Row {
		t.Helper()
		res, err := s.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res.Rows
	}
	for id, want := range map[string]int64{"9007199254740992": 1, "9007199254740993": 2} {
		rows := query("SELECT v FROM B WHERE id = " + id)
		if len(rows) != 1 || rows[0][0].Int() != want {
			t.Errorf("point read of id %s = %v, want v %d", id, rows, want)
		}
	}
	if rows := query("SELECT id FROM B WHERE id > 9007199254740992"); len(rows) != 1 || rows[0][0].Int() != 1<<53+1 {
		t.Errorf("range past 2^53 = %v, want only 2^53+1", rows)
	}
	if rows := query("SELECT id FROM B WHERE id <= 9007199254740992"); len(rows) != 101 {
		t.Errorf("range through 2^53 read %d rows, want 101", len(rows))
	}
	// R.g holds both keys, 2^53+1 twice: the join pairs each R row with its
	// own B row, and the grouping counts the two keys apart.
	got := map[int64]int64{}
	for _, r := range query("SELECT R.k, B.v FROM R, B WHERE R.g = B.id") {
		got[r[0].Int()] = r[1].Int()
	}
	if want := map[int64]int64{1: 2, 2: 1, 3: 2}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("join on the big keys = %v, want %v", got, want)
	}
	groups := map[int64]int64{}
	for _, r := range query("SELECT g, COUNT(*) FROM R GROUP BY g") {
		groups[r[0].Int()] = r[1].Int()
	}
	if want := map[int64]int64{1 << 53: 1, 1<<53 + 1: 2}; fmt.Sprint(groups) != fmt.Sprint(want) {
		t.Errorf("GROUP BY the big keys = %v, want %v", groups, want)
	}
}

// TestRepliesToOneTemplateShareNoRows: each Query answer is a reply of its
// own, its row in the reply's room or, past it, in storage of its own; two
// answers run through one template's tree (one idle tree, checked out and
// in again) share no row or value, and the first is unchanged by the second.
func TestRepliesToOneTemplateShareNoRows(t *testing.T) {
	s, _ := newServer(t)
	loadItems(t, s, 50)
	for _, tc := range []struct {
		shape        string
		rows7, rows8 int
	}{
		{"SELECT id, cat, price FROM item WHERE id = %d", 1, 1},  // one row of three: the room
		{"SELECT id, cat, price FROM item WHERE cat = %d", 5, 5}, // a row list and arena
	} {
		first, err := s.Query(fmt.Sprintf(tc.shape, 7))
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprint(first.Rows)
		second, err := s.Query(fmt.Sprintf(tc.shape, 8))
		if err != nil {
			t.Fatal(err)
		}
		if !knowsShape(s, fmt.Sprintf(tc.shape, 7)) || !knowsShape(s, fmt.Sprintf(tc.shape, 9)) {
			t.Fatalf("%q: the shape has no template", tc.shape)
		}
		if len(first.Rows) != tc.rows7 || len(second.Rows) != tc.rows8 || second.Rows[0][0].Int() != 8 {
			t.Fatalf("%q: answers %v and %v", tc.shape, first.Rows, second.Rows)
		}
		if got := fmt.Sprint(first.Rows); got != want {
			t.Errorf("%q: the first answer became %s after the second, was %s", tc.shape, got, want)
		}
		for i := range first.Rows {
			if &first.Rows[i][0] == &second.Rows[i][0] {
				t.Errorf("%q: both answers hold row %d in one place", tc.shape, i)
			}
		}
	}
}
