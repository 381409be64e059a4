package obs

import (
	"cmp"
	"slices"
	"sync/atomic"
)

// Ring is the repo's one bounded history: a lock-free ring of the most
// recent values pushed — sampled query records, audit events, tuner
// decisions. Push is wait-free (one atomic add, one atomic pointer store of a
// freshly stamped slot); a slot is immutable once stored, so a reader never
// sees a half-written value, only values from slightly different instants.
// When the ring wraps the oldest value is overwritten and counted as dropped.
type Ring[T any] struct {
	pos   atomic.Uint64
	slots []atomic.Pointer[ringSlot[T]]
}

// ringSlot is one published value with its publish sequence (1 for the first
// value ever pushed).
type ringSlot[T any] struct {
	seq uint64
	v   T
}

// NewRing creates a ring that retains the most recent size values (at least
// one).
func NewRing[T any](size int) *Ring[T] {
	return &Ring[T]{slots: make([]atomic.Pointer[ringSlot[T]], max(size, 1))}
}

// Push publishes v and reports whether it overwrote an older value.
func (r *Ring[T]) Push(v T) bool {
	seq, n := r.pos.Add(1), uint64(len(r.slots))
	r.slots[(seq-1)%n].Store(&ringSlot[T]{seq: seq, v: v})
	return seq > n
}

// Pushed returns how many values were ever pushed.
func (r *Ring[T]) Pushed() uint64 { return r.pos.Load() }

// Dropped returns how many values the ring has overwritten.
func (r *Ring[T]) Dropped() uint64 {
	if p, n := r.pos.Load(), uint64(len(r.slots)); p > n {
		return p - n
	}
	return 0
}

// held returns the retained slots, oldest first.
func (r *Ring[T]) held() []*ringSlot[T] {
	held := make([]*ringSlot[T], 0, len(r.slots))
	for i := range r.slots {
		if s := r.slots[i].Load(); s != nil {
			held = append(held, s)
		}
	}
	// The layout has one wrap discontinuity at most, but concurrent pushes
	// interleave, so order by sequence.
	slices.SortFunc(held, func(a, b *ringSlot[T]) int { return cmp.Compare(a.seq, b.seq) })
	return held
}

// Each calls fn for every retained value, oldest first, with its publish
// sequence.
func (r *Ring[T]) Each(fn func(seq uint64, v T)) {
	for _, s := range r.held() {
		fn(s.seq, s.v)
	}
}

// Snapshot copies the retained values, oldest first.
func (r *Ring[T]) Snapshot() []T {
	held := r.held()
	out := make([]T, len(held))
	for i, s := range held {
		out[i] = s.v
	}
	return out
}
