package storage

import (
	"testing"
	"time"
)

// TestWordNamesTheAppliedState: the version is 2·seq at rest and odd while a
// record applies; a record taken back returns to the state before it with the
// word still moved, and so does a heartbeat written out of band.
func TestWordNamesTheAppliedState(t *testing.T) {
	var w Word
	if v := w.Load(); v != 0 || Seq(v) != 0 {
		t.Fatalf("a new word loads %d", v)
	}
	w.Begin(1)
	if v := w.w.Load(); v&1 == 0 {
		t.Fatalf("applying seq 1, the word is %d, want odd", v)
	}
	w.End(1)
	one := w.Load()
	if Seq(one) != 1 || !w.Moved(0) {
		t.Fatalf("after seq 1 the word is %d (seq %d)", one, Seq(one))
	}
	w.Begin(2)
	w.End(1) // seq 2 failed and was taken back
	back := w.Load()
	if Seq(back) != 1 || back == one {
		t.Fatalf("after a failed seq 2 the word is %d (seq %d), want seq 1 and a value other than %d", back, Seq(back), one)
	}
	w.Touch()
	if Seq(w.Load()) != 1 || !w.Moved(back) {
		t.Fatal("a heartbeat out of band must move the word and keep its seq")
	}
	var none *Word
	if none.Load() != 0 || none.Moved(0) {
		t.Fatal("a nil word loads zero and never moves")
	}
}

// TestWordLoadWaitsOutAnApply: Load returns only an even version, so a reader
// that starts inside an apply gets the state after it.
func TestWordLoadWaitsOutAnApply(t *testing.T) {
	var w Word
	w.Begin(1)
	got := make(chan uint64)
	go func() { got <- w.Load() }()
	select {
	case v := <-got:
		t.Fatalf("Load returned %d while seq 1 applied", v)
	case <-time.After(20 * time.Millisecond):
	}
	w.End(1)
	if v := <-got; Seq(v) != 1 {
		t.Fatalf("Load returned %d (seq %d), want the state after seq 1", v, Seq(v))
	}
}
