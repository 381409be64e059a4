// Package vclock provides an injectable clock abstraction.
//
// The paper's evaluation (Section 4) depends on the relationships among the
// heartbeat interval, the replication propagation interval f, the propagation
// delay d, and the query start time. Reproducing those relationships with
// wall-clock sleeps would be slow and flaky, so all components in this
// repository take a Clock. Tests and benchmarks use Virtual, a manually
// advanced clock that the replication coordinator moves; demos may use Wall.
package vclock

import (
	"sync/atomic"
	"time"
)

// Clock is the time source used by every component in the system. It only
// tells time: simulated time passes when the replication coordinator
// advances a Virtual clock, so every wait goes through the coordinator.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
}

// Wall is a Clock backed by the operating system clock.
type Wall struct{}

// Now implements Clock.
func (Wall) Now() time.Time { return time.Now() }

// After returns a channel that receives the time once d of real time has
// elapsed: real-time pacing for demo runs, never simulated time.
func (Wall) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Virtual is a deterministic, manually advanced Clock.
//
// The zero value is not ready to use; call NewVirtual. Virtual is safe for
// concurrent use: its instant is one atomic word, so Now takes no lock and
// readers on different cores share nothing but that word.
type Virtual struct {
	ns atomic.Int64 // nanoseconds since the Unix epoch, UTC
}

// Epoch is the default start time for virtual clocks: an arbitrary fixed
// instant so that test output is reproducible.
var Epoch = time.Date(2004, time.June, 13, 0, 0, 0, 0, time.UTC)

// NewVirtual returns a Virtual clock starting at Epoch.
func NewVirtual() *Virtual {
	v := new(Virtual)
	v.ns.Store(Epoch.UnixNano())
	return v
}

// Now implements Clock.
func (v *Virtual) Now() time.Time { return time.Unix(0, v.ns.Load()).UTC() }

// Advance moves the clock forward by d.
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		panic("vclock: Advance with negative duration")
	}
	v.ns.Add(int64(d))
}

// Reach moves the clock forward to t unless it already reads t or later,
// where an advance on another goroutine may have taken it, and never past t.
func (v *Virtual) Reach(t time.Time) {
	to, now := t.UnixNano(), v.ns.Load()
	for now < to && !v.ns.CompareAndSwap(now, to) {
		now = v.ns.Load()
	}
}
