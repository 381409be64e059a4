package exec

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
)

// version is the row a writer commits as version v of key id: every column
// says which key and version it belongs to, so a row assembled from two
// versions — torn — does not check out.
func version(id, v int64) sqltypes.Row {
	return sqltypes.Row{intv(id), strv(fmt.Sprintf("%d/%d", id, v)), floatv(float64(id*1_000_000 + v))}
}

// committed reports whether row (id, name, bal) is some version of its key.
func committed(row sqltypes.Row) bool {
	id, name := row[0].Int(), row[1].Str()
	k, v, ok := strings.Cut(name, "/")
	ver, err := strconv.ParseInt(v, 10, 64)
	return ok && err == nil && k == fmt.Sprint(id) && row[2].Float() == float64(id*1_000_000+ver)
}

// TestReadersNeverSeeATornRow runs a clustered Scan, an inline and a
// parallel ParallelScan and an index nested-loop join over a table while a
// writer updates rows in place, inserts rows that split leaves and deletes
// rows: every row a reader returns is a committed version of its key. Under
// -race it also checks that readers copy what they keep under the latch
// and touch no leaf after it.
func TestReadersNeverSeeATornRow(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	tbl := parallelTable(t, 0)
	const keys = 6000
	for id := int64(2); id <= keys; id += 2 { // the odd keys are for inserts
		if err := tbl.Insert(version(id, 0)); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var writes atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for v := int64(1); !stop.Load(); v++ {
			id := 1 + rng.Int63n(keys)
			switch rng.Intn(4) {
			case 0, 1:
				tbl.Update(version(id, v)) // in place; fails when the key is absent
			case 2:
				tbl.Insert(version(id, v)) // fails when the key is present
			default:
				tbl.Delete(sqltypes.Row{intv(id)})
			}
			writes.Add(1)
		}
	}()

	s := testSchema("t")
	outer := make([]sqltypes.Row, 0, keys/10)
	for id := int64(1); id <= keys; id += 10 {
		outer = append(outer, sqltypes.Row{intv(id)})
	}
	outerSch := NewSchema(Col{Binding: "o", Name: "id", Kind: sqltypes.KindInt})
	readers := map[string]func() Operator{
		"scan": func() Operator { return NewScan(tbl, s) },
		"range scan": func() Operator {
			sc := NewScan(tbl, s)
			sc.Index = "pk_t"
			sc.Lo = storage.Bound{Vals: sqltypes.Row{intv(100)}, Inclusive: true}
			sc.Hi = storage.Bound{Vals: sqltypes.Row{intv(5000)}}
			return sc
		},
		"inline parallel scan": func() Operator {
			ps := NewParallelScan(tbl, s)
			ps.DOP = 1
			return ps
		},
		"parallel scan": func() Operator {
			ps := NewParallelScan(tbl, s)
			ps.DOP = 4
			return ps
		},
		"index join": func() Operator {
			key := func(_ *EvalContext, r sqltypes.Row) (sqltypes.Value, error) { return r[0], nil }
			return NewIndexLoopJoin(NewValues(outerSch, outer), tbl, "pk_t", s, []Compiled{key}, nil, JoinInner)
		},
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for runs := 0; runs < 3 || time.Now().Before(deadline); runs++ {
		for name, build := range readers {
			res, err := Run(build(), &EvalContext{Now: testNow, BatchSize: 1 + runs%300}, 0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, row := range res.Rows {
				if row = row[len(row)-3:]; !committed(row) {
					t.Fatalf("%s returned %v, no committed version of key %v", name, row, row[0])
				}
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if writes.Load() == 0 {
		t.Fatal("the writer never ran beside the readers")
	}
}
