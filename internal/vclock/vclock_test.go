package vclock

import (
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
	v.AdvanceTo(Epoch.Add(10 * time.Second))
	if got := v.Now().Sub(Epoch); got != 10*time.Second {
		t.Fatalf("AdvanceTo landed at +%v", got)
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

func TestVirtualAdvanceToPastPanics(t *testing.T) {
	v := NewVirtual()
	v.Advance(time.Minute)
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo the past did not panic")
		}
	}()
	v.AdvanceTo(Epoch)
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
