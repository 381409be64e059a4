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
	res, _ := s.Query("SELECT id FROM t WHERE id = 5")
	if len(res.Rows) != 0 {
		t.Fatal("failed statement left partial changes")
	}
	if s.Log().LastSeq() != seq {
		t.Fatal("failed statement appended to the log")
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
	if recs[0].Changes[0].Op.String() != "INSERT" || recs[1].Changes[0].Op.String() != "UPDATE" {
		t.Fatal("ops")
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

// TestDMLByKeyWritesTheLogOfItsScanningTwin: an UPDATE or DELETE whose WHERE
// pins the whole primary key with literals and a twin server given the same
// predicate in a form no key lookup could serve must write the same commit
// log. Both scan today (matchRows); this is the differential a primary-key
// seek has to pass when it lands (ROADMAP item 3).
func TestDMLByKeyWritesTheLogOfItsScanningTwin(t *testing.T) {
	mk := func() *Server {
		s := New(vclock.NewVirtual())
		for _, ddl := range []string{
			`CREATE TABLE t (id BIGINT NOT NULL PRIMARY KEY, name VARCHAR(20), bal DOUBLE)`,
			`CREATE TABLE li (o BIGINT NOT NULL, n BIGINT NOT NULL, q DOUBLE, PRIMARY KEY (o, n))`,
		} {
			if _, err := s.Exec(ddl); err != nil {
				t.Fatal(err)
			}
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
	for _, st := range []struct{ seek, scan string }{
		{"UPDATE t SET bal = bal + 1 WHERE id = 7", "UPDATE t SET bal = bal + 1 WHERE id >= 7 AND id <= 7"},
		{"UPDATE t SET bal = 0 WHERE 9 = id AND name = 'n2'", "UPDATE t SET bal = 0 WHERE id < 10 AND id > 8 AND name = 'n2'"},
		{"UPDATE t SET bal = 1 WHERE id = 9 AND name = 'other'", "UPDATE t SET bal = 1 WHERE id + 0 = 9 AND name = 'other'"},
		{"UPDATE t SET bal = 2 WHERE id = 11.0", "UPDATE t SET bal = 2 WHERE id + 0 = 11"},
		{"UPDATE t SET bal = 3 WHERE id = 11.5", "UPDATE t SET bal = 3 WHERE id + 0 = 11.5"},
		{"UPDATE t SET bal = 4 WHERE id = 12 AND id = 13", "UPDATE t SET bal = 4 WHERE id + 0 = 12 AND id + 0 = 13"},
		{"UPDATE t SET id = 100 WHERE id = 14", "UPDATE t SET id = 100 WHERE id BETWEEN 14 AND 14"},
		{"UPDATE t SET bal = 5 WHERE id = 999", "UPDATE t SET bal = 5 WHERE id + 0 = 999"},
		{"UPDATE li SET q = 0 WHERE o = 5 AND n = 2", "UPDATE li SET q = 0 WHERE o + 0 = 5 AND n = 2"},
		{"UPDATE li SET q = 1 WHERE o = 6", "UPDATE li SET q = 1 WHERE o + 0 = 6"}, // half a key
		{"DELETE FROM li WHERE n = 3 AND o = 8", "DELETE FROM li WHERE n + 0 = 3 AND o = 8"},
		{"DELETE FROM t WHERE id = 20", "DELETE FROM t WHERE id + 0 = 20"},
		{"DELETE FROM t WHERE id = 20", "DELETE FROM t WHERE id + 0 = 20"}, // already gone
		{"DELETE FROM t WHERE id = 21 AND bal > 1000", "DELETE FROM t WHERE id + 0 = 21 AND bal > 1000"},
	} {
		a, errA := seek.Exec(st.seek)
		b, errB := scan.Exec(st.scan)
		if a != b || (errA == nil) != (errB == nil) {
			t.Fatalf("%s: %d rows, %v; scanning twin %d rows, %v", st.seek, a, errA, b, errB)
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
			if ca.Table != cb.Table || ca.Op != cb.Op || !ca.Old.Equal(cb.Old) || !ca.New.Equal(cb.New) {
				t.Fatalf("record %d change %d: %+v vs %+v", i, j, ca, cb)
			}
		}
	}
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

// BenchmarkDMLMatch times a DELETE that matches nothing over 150,000 rows —
// the whole statement is matchRows — with the table left in cache by the
// previous iteration and after a 256 MB sweep has pushed it out. The two
// should stay close: what a statement costs must not hang on what ran before
// it. (The same statement over the end-to-end benchmark's Orders table, on a
// quiet host: 4.5 ms warm and 5.9 ms cold; row at a time, 4.0 and 8.7 ms.)
func BenchmarkDMLMatch(b *testing.B) {
	s := New(vclock.NewVirtual())
	if _, err := s.Exec(`CREATE TABLE o (c BIGINT NOT NULL, k BIGINT NOT NULL, p DOUBLE, PRIMARY KEY (c, k))`); err != nil {
		b.Fatal(err)
	}
	rows := make([]sqltypes.Row, 150000)
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i / 10)), sqltypes.NewInt(int64(i)), sqltypes.NewFloat(float64(i))}
	}
	if err := s.LoadRows("o", rows); err != nil {
		b.Fatal(err)
	}
	sweep := make([]int64, 256<<20/8)
	for _, cold := range []bool{false, true} {
		name := "warm"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if cold {
					b.StopTimer()
					for j := 0; j < len(sweep); j += 8 {
						sweep[j]++
					}
					b.StartTimer()
				}
				if n, err := s.Exec("DELETE FROM o WHERE c = -1 AND k = -1"); err != nil || n != 0 {
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
