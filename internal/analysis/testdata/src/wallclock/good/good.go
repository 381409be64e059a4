// Package good shows the sanctioned shapes: time through an injected
// vclock.Clock, randomness from an explicitly seeded source, and a
// justified wall-clock site suppressed with a reason.
package good

import (
	"math/rand"
	"time"

	"relaxedcc/internal/vclock"
)

type Sweeper struct {
	Clock vclock.Clock
	Bound time.Duration
}

// Fresh takes the currency decision from the injected clock, so replay
// under vclock.Virtual is byte-identical across runs.
func (s *Sweeper) Fresh(stamp time.Time) bool {
	return s.Clock.Now().Sub(stamp) < s.Bound
}

// Pause waits real time through the sanctioned wrapper: a call into vclock
// never taints its caller.
func (s *Sweeper) Pause(d time.Duration) {
	<-vclock.Wall{}.After(d)
}

// Jitter is fine: the caller owns the seed, so the draw sequence replays.
func Jitter(seed int64, n int) int {
	return rand.New(rand.NewSource(seed)).Intn(n)
}

// WallStamp is an ops-surface timestamp, intentionally wall-bound and
// excluded from replay; the directive records the justification.
func WallStamp() int64 {
	//rcclint:ignore wallclock ops-surface timestamp, excluded from replay
	return time.Now().UnixNano()
}
