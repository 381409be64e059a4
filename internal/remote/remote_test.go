package remote

import (
	"strings"
	"testing"

	"relaxedcc/internal/backend"
	"relaxedcc/internal/vclock"
)

func newLink(t *testing.T) *Client {
	t.Helper()
	clock := vclock.NewVirtual()
	b := backend.New(clock)
	if _, err := b.Exec("CREATE TABLE t (id BIGINT NOT NULL PRIMARY KEY, name VARCHAR(10))"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exec("INSERT INTO t VALUES (1, 'aaaa'), (2, 'bb')"); err != nil {
		t.Fatal(err)
	}
	return NewClient(b, clock, clock.Advance)
}

func TestQueryShipsRows(t *testing.T) {
	c := newLink(t)
	rows, err := c.Query("SELECT id, name FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	st := c.Stats()
	if st.Queries != 1 || st.Rows != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Bytes: (8 + len+2) per row = (8+6) + (8+4) = 26.
	if st.Bytes != 26 {
		t.Fatalf("bytes = %d", st.Bytes)
	}
}

func TestQueryErrorsPropagate(t *testing.T) {
	c := newLink(t)
	if _, err := c.Query("SELECT * FROM missing"); err == nil {
		t.Fatal("missing table accepted")
	}
	st := c.Stats()
	if st.Rows != 0 {
		t.Fatal("failed query counted rows")
	}
}

func TestFailureInjection(t *testing.T) {
	c := newLink(t)
	c.SetDown(true)
	_, err := c.Query("SELECT id FROM t")
	if err == nil || !strings.Contains(err.Error(), "down") {
		t.Fatalf("err = %v", err)
	}
	c.SetDown(false)
	if _, err := c.Query("SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
}

func TestResetStats(t *testing.T) {
	c := newLink(t)
	c.Query("SELECT id FROM t")
	c.ResetStats()
	if st := c.Stats(); st.Queries != 0 || st.Rows != 0 || st.Bytes != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
}

func TestQueryResultIncludesSchema(t *testing.T) {
	c := newLink(t)
	res, err := c.QueryResult("SELECT name FROM t WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schema.Cols) != 1 || res.Schema.Cols[0].Name != "name" {
		t.Fatalf("schema = %v", res.Schema)
	}
}
