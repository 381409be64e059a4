package txn

import (
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
