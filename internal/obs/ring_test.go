package obs

import (
	"slices"
	"sync"
	"testing"
)

// TestRing is the one table for the repo's one bounded history (the query
// records, the auditor's three event rings and the tuner's decision timeline
// all sit on Ring): capacity is exact, a full ring overwrites its oldest
// value and says so, and reads come back oldest first with publish sequences.
func TestRing(t *testing.T) {
	for _, c := range []struct {
		name         string
		size, pushes int
		want         []int // retained values, oldest first
		dropped      uint64
	}{
		{"empty", 4, 0, []int{}, 0},
		{"partly filled", 4, 3, []int{0, 1, 2}, 0},
		{"exactly full", 4, 4, []int{0, 1, 2, 3}, 0},
		{"wrapped once", 4, 7, []int{3, 4, 5, 6}, 3},
		{"wrapped many times, capacity not a power of two", 3, 20, []int{17, 18, 19}, 17},
		{"non-positive size holds one value", 0, 5, []int{4}, 4},
		{"audit-sized ring with a few drops", 16, 20, []int{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := NewRing[int](c.size)
			for i := 0; i < c.pushes; i++ {
				if over, want := r.Push(i), i >= max(c.size, 1); over != want {
					t.Fatalf("push %d reported overwrite=%v, want %v", i, over, want)
				}
			}
			if got := r.Snapshot(); !slices.Equal(got, c.want) {
				t.Fatalf("snapshot = %v, want %v", got, c.want)
			}
			if r.Pushed() != uint64(c.pushes) || r.Dropped() != c.dropped {
				t.Fatalf("pushed/dropped = %d/%d, want %d/%d", r.Pushed(), r.Dropped(), c.pushes, c.dropped)
			}
			// A value pushed as v carries publish sequence v+1.
			r.Each(func(seq uint64, v int) {
				if seq != uint64(v)+1 {
					t.Fatalf("value %d has sequence %d", v, seq)
				}
			})
		})
	}
}

// TestRingHammer pushes from four goroutines while a fifth snapshots; under
// -race this pins the lock-free publication protocol. No push is lost from
// the count, no value is seen torn, and every snapshot is ordered.
func TestRingHammer(t *testing.T) {
	type pair struct{ a, b int }
	const pushers, each = 4, 2000
	r := NewRing[pair](64)
	var wg sync.WaitGroup
	for w := 0; w < pushers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Push(pair{i, -i})
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		last := uint64(0)
		r.Each(func(seq uint64, p pair) {
			if p.a != -p.b {
				t.Errorf("torn value %+v", p)
			}
			if seq <= last {
				t.Errorf("sequence %d after %d", seq, last)
			}
			last = seq
		})
	}
	if got := r.Pushed(); got != pushers*each {
		t.Fatalf("Pushed = %d, want %d", got, pushers*each)
	}
	if got := r.Dropped() + uint64(len(r.Snapshot())); got != pushers*each {
		t.Fatalf("dropped + retained = %d, want %d", got, pushers*each)
	}
}

func TestHashSQLStable(t *testing.T) {
	if HashSQL("SELECT 1") != HashSQL("SELECT 1") {
		t.Fatal("hash not stable")
	}
	if HashSQL("SELECT 1") == HashSQL("SELECT 2") {
		t.Fatal("hash does not discriminate")
	}
	if HashSQL("") != fnvOffset {
		t.Fatal("empty hash must be the FNV offset basis")
	}
}
