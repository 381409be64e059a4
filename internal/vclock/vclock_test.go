package vclock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestVirtualNowStartsAtEpoch(t *testing.T) {
	v := NewVirtual()
	if !v.Now().Equal(Epoch) {
		t.Fatalf("Now = %v, want %v", v.Now(), Epoch)
	}
}

func TestVirtualAdvance(t *testing.T) {
	v := NewVirtual()
	v.Advance(5 * time.Second)
	if got := v.Now().Sub(Epoch); got != 5*time.Second {
		t.Fatalf("advanced %v, want 5s", got)
	}
	v.Reach(Epoch.Add(10 * time.Second))
	if got := v.Now().Sub(Epoch); got != 10*time.Second {
		t.Fatalf("Reach landed at +%v", got)
	}
	v.Reach(Epoch) // the past: the clock stays
	if got := v.Now().Sub(Epoch); got != 10*time.Second {
		t.Fatalf("Reach into the past moved the clock to +%v", got)
	}
}

func TestVirtualAdvanceNegativePanics(t *testing.T) {
	v := NewVirtual()
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance did not panic")
		}
	}()
	v.Advance(-time.Second)
}

func TestWallClock(t *testing.T) {
	var c Clock = Wall{}
	before := time.Now()
	got := c.Now()
	if got.Before(before.Add(-time.Minute)) {
		t.Fatal("Wall.Now is implausible")
	}
	select {
	case <-Wall{}.After(time.Millisecond):
	case <-time.After(5 * time.Second):
		t.Fatal("Wall.After never fired")
	}
}

// TestConcurrentReachNeverOvershoots: goroutines advance one clock to
// interleaved targets while another reads it. The clock ends at the largest
// target and never reads above it; a target another goroutine has already
// passed leaves the clock where it is.
func TestConcurrentReachNeverOvershoots(t *testing.T) {
	const goroutines, steps = 4, 2000
	v := NewVirtual()
	last := Epoch.Add(goroutines * steps * time.Microsecond)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= steps; i++ {
				v.Reach(Epoch.Add(time.Duration((i-1)*goroutines+g+1) * time.Microsecond))
			}
		}()
	}
	var stop atomic.Bool
	over := make(chan time.Time, 1)
	go func() {
		for !stop.Load() {
			if now := v.Now(); now.After(last) {
				over <- now
				return
			}
		}
		over <- time.Time{}
	}()
	wg.Wait()
	stop.Store(true)
	if o := <-over; !o.IsZero() {
		t.Errorf("the clock read %v, past the largest target %v", o, last)
	}
	if now := v.Now(); !now.Equal(last) {
		t.Errorf("the clock ended at %v, want the largest target %v", now, last)
	}
}
