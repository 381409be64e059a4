package sqltypes

import (
	"math/rand"
	"testing"
	"time"
)

var laneKinds = []Kind{KindInt, KindString, KindFloat, KindTime, KindBool}

// laneRow draws a row for laneKinds: mostly of the declared kinds, with
// NULLs, and now and then a value of another kind (an INT where a DOUBLE is
// declared, as `UPDATE t SET bal = 0` stores).
func laneRow(rng *rand.Rand) Row {
	at := time.Unix(int64(rng.Intn(1000)), 0)
	row := Row{NewInt(rng.Int63n(100)), NewString(string(rune('a' + rng.Intn(26)))), NewFloat(rng.Float64()), NewTime(at), NewBool(rng.Intn(2) == 0)}
	for c := range row {
		switch rng.Intn(12) {
		case 0:
			row[c] = Null
		case 1:
			row[c] = NewInt(rng.Int63n(7))
		}
	}
	return row
}

// sameValue is exact equality: the kind and the value as written.
func sameValue(a, b Value) bool { return a == b }

func checkLanes(t *testing.T, what string, l *Lanes, want []Row) {
	t.Helper()
	if l.Len() != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, l.Len(), len(want))
	}
	for i, w := range want {
		got := l.AppendRow(nil, i)
		for c := range w {
			if !sameValue(got[c], w[c]) {
				t.Fatalf("%s: row %d col %d = %v (%v), want %v (%v)", what, i, c, got[c], got[c].Kind(), w[c], w[c].Kind())
			}
		}
	}
	for c := range l.cols {
		v := &l.cols[c]
		if v.n != l.n || v.Null != nil && len(v.Null) != v.n {
			t.Fatalf("%s: column %d holds %d values and %d null bits for %d rows", what, c, v.n, len(v.Null), l.n)
		}
	}
}

// TestLanesKeepEveryValueAsWritten runs random Open/Put, Remove and Move
// against a row model: every value comes back with its own kind, across
// NULLs and the Any fallback a lane takes on for a value of a second kind.
func TestLanesKeepEveryValueAsWritten(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		a, b := MakeLanes(laneKinds), MakeLanes(laneKinds)
		var ma, mb []Row
		for op := 0; op < 80; op++ {
			switch rng.Intn(5) {
			case 0, 1:
				i, row := rng.Intn(len(ma)+1), laneRow(rng)
				a.Open(i)
				a.Put(i, row)
				ma = append(ma[:i], append([]Row{row}, ma[i:]...)...)
			case 2:
				if len(ma) > 0 {
					i := rng.Intn(len(ma))
					row := laneRow(rng)
					a.Put(i, row)
					ma[i] = row
				}
			case 3:
				if len(ma) > 0 {
					i := rng.Intn(len(ma))
					j := i + rng.Intn(len(ma)-i+1)
					a.Remove(i, j)
					ma = append(ma[:i], ma[j:]...)
				}
			case 4:
				if len(ma) > 0 {
					i := rng.Intn(len(ma))
					j := i + rng.Intn(len(ma)-i+1)
					at := rng.Intn(len(mb) + 1)
					b.Move(at, &a, i, j)
					mb = append(mb[:at], append(append([]Row(nil), ma[i:j]...), mb[at:]...)...)
				}
			}
			checkLanes(t, "a", &a, ma)
			checkLanes(t, "b", &b, mb)
		}
	}
}

// TestLanesMoveIntoEmptyTakesTheKinds: lanes with no columns yet — an
// operator's scratch — take the declared kinds of what is moved into them,
// and Reset returns every lane to them.
func TestLanesMoveIntoEmptyTakesTheKinds(t *testing.T) {
	src := MakeLanes(laneKinds)
	row := Row{NewInt(1), NewString("x"), NewFloat(2.5), NewTime(time.Unix(3, 0)), NewBool(true)}
	src.Open(0)
	src.Put(0, row)
	var dst Lanes
	dst.Move(0, &src, 0, 1)
	dst.Move(1, &src, 0, 1)
	checkLanes(t, "moved", &dst, []Row{row, row})
	dst.Put(0, Row{NewInt(1), NewString("x"), NewInt(2), Null, NewBool(true)})
	if dst.Col(2).Kind != KindNull {
		t.Fatalf("an INT in a DOUBLE lane left it %v, want the Any fallback", dst.Col(2).Kind)
	}
	dst.Reset()
	for c, k := range laneKinds {
		if dst.Col(c).Kind != k || dst.Col(c).Len() != 0 || dst.Col(c).Null != nil {
			t.Fatalf("reset lane %d: kind %v, %d values, nulls %v", c, dst.Col(c).Kind, dst.Col(c).Len(), dst.Col(c).Null)
		}
	}
}

// TestColBatchViewsLanes reads lanes through a batch view: columns, rows,
// the copy of selected rows into an owned batch (all columns or some), and
// the rows materialized at the result boundary — then reuses the batch as an
// owned one and checks the lanes it viewed were never written.
func TestColBatchViewsLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := MakeLanes(laneKinds)
	var model []Row
	for i := 0; i < 40; i++ {
		row := laneRow(rng)
		l.Open(i)
		l.Put(i, row)
		model = append(model, row)
	}
	var view ColBatch
	view.ResetLanes(&l, 10, 30)
	view.Sel = []int32{0, 3, 4, 19}
	for k, i := range view.Sel {
		row := view.Row(int(i))
		for c := range row {
			if !sameValue(row[c], model[10+int(i)][c]) || !sameValue(view.Col(c).Value(int(i)), row[c]) {
				t.Fatalf("view row %d col %d = %v, want %v", k, c, row[c], model[10+int(i)][c])
			}
		}
	}
	got, _ := view.AppendRows(nil, nil)
	var owned ColBatch
	owned.ResetCols(len(laneKinds), 0)
	owned.Append(&view, 3, nil)
	var some ColBatch
	some.ResetCols(len(laneKinds), 0)
	some.Append(&view, 4, func(j int) bool { return j == 4 || j == 0 })
	for k, i := range view.Sel {
		want := model[10+int(i)]
		for c := range want {
			if !sameValue(got[k][c], want[c]) {
				t.Fatalf("AppendRows row %d col %d = %v, want %v", k, c, got[k][c], want[c])
			}
			if k < 3 && !sameValue(owned.Col(c).Value(k), want[c]) {
				t.Fatalf("Append row %d col %d = %v, want %v", k, c, owned.Col(c).Value(k), want[c])
			}
		}
		if !sameValue(some.Col(4).Value(k), want[4]) || !sameValue(some.Col(0).Value(k), want[0]) {
			t.Fatalf("Append of columns 4 and 0, row %d = %v %v", k, some.Col(4).Value(k), some.Col(0).Value(k))
		}
	}
	// The views must not be written through once the batch is owned again.
	view.ResetCols(len(laneKinds), 0)
	for c := range laneKinds {
		v := view.BuildCol(c)
		for i := 0; i < 20; i++ {
			v.Append(NewString("overwrite"))
		}
	}
	checkLanes(t, "after reuse", &l, model)
}

// TestLanesRowsOverwriteTheWindowBuffer: Rows lays a window out row by row
// in a reused buffer, NULL slots included, whatever it held before.
func TestLanesRowsOverwriteTheWindowBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := MakeLanes(laneKinds)
	var model []Row
	for i := 0; i < 30; i++ {
		row := laneRow(rng)
		l.Open(i)
		l.Put(i, row)
		model = append(model, row)
	}
	buf := make([]Value, 0, 200)
	for i := range buf[:cap(buf)] {
		buf[:cap(buf)][i] = NewString("stale")
	}
	w := len(laneKinds)
	for _, win := range [][2]int{{0, 30}, {5, 9}, {29, 30}, {12, 12}} {
		buf = l.Rows(buf, win[0], win[1])
		if len(buf) != w*(win[1]-win[0]) {
			t.Fatalf("window %v: %d values", win, len(buf))
		}
		for r := win[0]; r < win[1]; r++ {
			for c := 0; c < w; c++ {
				if got := buf[(r-win[0])*w+c]; !sameValue(got, model[r][c]) {
					t.Fatalf("window %v row %d col %d = %v, want %v", win, r, c, got, model[r][c])
				}
			}
		}
	}
}
