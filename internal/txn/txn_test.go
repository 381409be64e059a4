package txn

import (
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"relaxedcc/internal/sqltypes"
)

var t0 = time.Date(2004, 6, 13, 0, 0, 0, 0, time.UTC)

func chg(table string) []Change {
	return []Change{{Table: table, New: sqltypes.Row{sqltypes.NewInt(1)}}}
}

func TestAppendAssignsIncreasingSeqs(t *testing.T) {
	l := NewLog()
	ts1 := l.Append(t0, chg("a"))
	ts2 := l.Append(t0.Add(time.Second), chg("b"))
	if ts1.Seq != 1 || ts2.Seq != 2 {
		t.Fatalf("seqs = %d, %d", ts1.Seq, ts2.Seq)
	}
	if l.LastSeq() != 2 {
		t.Fatalf("LastSeq = %d", l.LastSeq())
	}
}

func TestEmptyLog(t *testing.T) {
	l := NewLog()
	if l.LastSeq() != 0 {
		t.Fatal("LastSeq on empty log")
	}
	if got := l.Since(0); got != nil {
		t.Fatal("Since(0) on empty log")
	}
}

func TestSince(t *testing.T) {
	l := NewLog()
	for i := 0; i < 5; i++ {
		l.Append(t0.Add(time.Duration(i)*time.Second), chg("t"))
	}
	if got := len(l.Since(0)); got != 5 {
		t.Fatalf("Since(0) = %d records", got)
	}
	recs := l.Since(3)
	if len(recs) != 2 || recs[0].TS.Seq != 4 {
		t.Fatalf("Since(3) = %+v", recs)
	}
	if got := l.Since(5); got != nil {
		t.Fatal("Since(last) should be empty")
	}
	if got := l.Since(-7); len(got) != 5 {
		t.Fatal("Since(negative) should return all")
	}
}

func TestSinceUntil(t *testing.T) {
	l := NewLog()
	for i := 0; i < 5; i++ {
		l.Append(t0.Add(time.Duration(i)*time.Second), chg("t"))
	}
	// Agent wakes at +2.5s having applied through seq 1: sees seqs 2,3.
	recs := l.SinceUntil(1, t0.Add(2500*time.Millisecond))
	if len(recs) != 2 || recs[0].TS.Seq != 2 || recs[1].TS.Seq != 3 {
		t.Fatalf("SinceUntil = %+v", recs)
	}
	// Cutoff before everything remaining.
	if got := l.SinceUntil(4, t0); len(got) != 0 {
		t.Fatalf("SinceUntil past cutoff = %d", len(got))
	}
	// Cutoff exactly at a commit time is inclusive.
	recs = l.SinceUntil(0, t0)
	if len(recs) != 1 {
		t.Fatalf("inclusive cutoff = %d records", len(recs))
	}
}

func TestConcurrentAppend(t *testing.T) {
	l := NewLog()
	var wg sync.WaitGroup
	const writers, per = 8, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Append(t0, chg("t"))
			}
		}()
	}
	wg.Wait()
	if l.LastSeq() != writers*per {
		t.Fatalf("LastSeq = %d", l.LastSeq())
	}
	recs := l.Since(0)
	for i, r := range recs {
		if r.TS.Seq != int64(i)+1 {
			t.Fatalf("record %d has seq %d", i, r.TS.Seq)
		}
	}
}

func TestWritesIndexesEachCommitOncePerTable(t *testing.T) {
	l := NewLog()
	row := sqltypes.Row{sqltypes.NewInt(1)}
	l.Append(t0, chg("a"))
	l.Append(t0, []Change{{Table: "a", New: row}, {Table: "b", Old: row}, {Table: "a", Old: row, New: row}})
	l.Append(t0, chg("b"))
	l.Append(t0, nil)
	l.Append(t0, []Change{{Table: "b", Old: row}, {Table: "a", Old: row}})
	for table, want := range map[string][]int64{"a": {1, 2, 5}, "b": {2, 3, 5}, "c": nil} {
		if got := l.Writes(table); !slices.Equal(got, want) {
			t.Errorf("Writes(%q) = %v, want %v", table, got, want)
		}
	}
}

// TestWritesBesideAppend: a reader searches the index while a writer
// appends; run with -race. Table a is written by the odd commits, so the kth
// entry of every list the reader takes is 2k+1, and the last one is already
// in the records.
func TestWritesBesideAppend(t *testing.T) {
	l := NewLog()
	const commits = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < commits; i++ {
			l.Append(t0, chg([]string{"a", "b"}[i%2]))
		}
	}()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		w := l.Writes("a")
		if len(w) == 0 {
			continue
		}
		k := len(w) / 2
		if i, ok := slices.BinarySearch(w, int64(2*k+1)); !ok || i != k {
			t.Fatalf("searching %d in Writes(a) found index %d (%v), want %d", 2*k+1, i, ok, k)
		}
		if last := w[len(w)-1]; last > l.LastSeq() {
			t.Fatalf("Writes(a) names commit %d past the last one, %d", last, l.LastSeq())
		}
	}
	if got := len(l.Writes("a")); got != commits/2 {
		t.Fatalf("Writes(a) has %d commits, want %d", got, commits/2)
	}
}

// digestOf sums the deltas of every change in recs: what Digest must say
// while nothing is released.
func digestOf(recs []CommitRecord) map[string]uint64 {
	out := map[string]uint64{}
	for _, r := range recs {
		for _, ch := range r.Changes {
			out[ch.Table] += ch.New.Hash() - ch.Old.Hash()
		}
	}
	return out
}

// TestReleaseWaitsForTheSlowestReader: a commit's rows go only once every
// reader has applied it, and the release moves neither a table's digest nor
// a commit's time or Writes entries.
func TestReleaseWaitsForTheSlowestReader(t *testing.T) {
	l := NewLog()
	row := func(k int64, v string) sqltypes.Row { return sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewString(v)} }
	l.Append(t0, []Change{{Table: "a", New: row(1, "x")}, {Table: "b", New: row(1, "y")}})
	l.Append(t0.Add(time.Second), []Change{{Table: "a", Old: row(1, "x"), New: row(1, "z")}})
	l.Append(t0.Add(2*time.Second), []Change{{Table: "b", Old: row(1, "y")}})
	l.Append(t0.Add(3*time.Second), []Change{{Table: "a", New: row(2, "w")}})
	want := digestOf(l.Since(0))
	if !maps.Equal(l.Digest(), want) {
		t.Fatalf("Digest() = %v, want %v", l.Digest(), want)
	}
	fast, slow := l.Reader(), l.Reader()
	rows := func() (n []int) {
		for _, r := range l.Since(0) {
			n = append(n, len(r.Changes))
		}
		return n
	}
	for _, step := range []struct {
		reader *Reader
		seq    int64
		rows   []int
	}{
		{fast, 3, []int{2, 1, 1, 1}}, // the slow reader has applied nothing
		{slow, 1, []int{0, 1, 1, 1}},
		{slow, 4, []int{0, 0, 0, 1}}, // the fast reader is at 3
		{fast, 4, []int{0, 0, 0, 0}},
	} {
		step.reader.Applied(step.seq)
		if got := rows(); !slices.Equal(got, step.rows) {
			t.Fatalf("after a reader applied %d: changes per record %v, want %v", step.seq, got, step.rows)
		}
		if got := l.Digest(); !maps.Equal(got, want) {
			t.Fatalf("after a reader applied %d: Digest() = %v, want %v", step.seq, got, want)
		}
	}
	for i, r := range l.Since(0) {
		if r.TS.Seq != int64(i)+1 || !r.TS.At.Equal(t0.Add(time.Duration(i)*time.Second)) {
			t.Fatalf("record %d's timestamp is %+v", i, r.TS)
		}
	}
	if !slices.Equal(l.Writes("a"), []int64{1, 2, 4}) || !slices.Equal(l.Writes("b"), []int64{1, 3}) {
		t.Fatalf("Writes: a %v, b %v", l.Writes("a"), l.Writes("b"))
	}
}

// TestAppliedBesideAppend: two readers report what they applied while a
// writer appends and other goroutines take Since and Writes; run with
// -race. Each reader reads a record's Changes only past its own cursor, as
// an agent does.
func TestAppliedBesideAppend(t *testing.T) {
	l := NewLog()
	const commits = 2000
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < commits; i++ {
			l.Append(t0.Add(time.Duration(i)), chg("a"))
		}
	}()
	for range 2 {
		r := l.Reader()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seq int64
			for seq < commits {
				for _, rec := range l.Since(seq) {
					if len(rec.Changes) != 1 {
						t.Errorf("record %d past the reader's cursor %d has %d changes", rec.TS.Seq, seq, len(rec.Changes))
						return
					}
					seq = rec.TS.Seq
				}
				r.Applied(seq)
			}
		}()
	}
	for _, read := range []func(){
		func() {
			recs := l.Since(0)
			for i := range recs {
				if recs[i].TS.Seq != int64(i)+1 {
					t.Errorf("record %d has seq %d", i, recs[i].TS.Seq)
				}
			}
		},
		func() {
			if w := l.Writes("a"); len(w) > 0 && w[len(w)-1] != int64(len(w)) {
				t.Errorf("Writes(a) ends at %d after %d entries", w[len(w)-1], len(w))
			}
		},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					read()
				}
			}
		}()
	}
	wg.Wait()
	for _, r := range l.Since(0) {
		if r.Changes != nil {
			t.Fatalf("record %d keeps its rows after both readers applied every commit", r.TS.Seq)
		}
	}
	if got, want := l.Digest()["a"], uint64(commits)*chg("a")[0].New.Hash(); got != want {
		t.Fatalf("Digest()[a] = %#x, want %#x", got, want)
	}
}
