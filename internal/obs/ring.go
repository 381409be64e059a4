package obs

import "sync"

// Ring is the repo's one bounded history: a fixed slab of the most recent
// values pushed — sampled query records, audit events, tuner decisions —
// under one mutex. Push copies the value into its slot and allocates
// nothing; readers copy out under the same lock, so a reader never sees a
// half-written value. When the ring wraps the oldest value is overwritten
// and counted as dropped. The value pushed n-th (from 1) has publish
// sequence n and sits in slot (n-1) mod size.
type Ring[T any] struct {
	mu    sync.Mutex
	pos   uint64 // values ever pushed
	slots []T
}

// NewRing creates a ring that retains the most recent size values (at least
// one).
func NewRing[T any](size int) *Ring[T] {
	return &Ring[T]{slots: make([]T, max(size, 1))}
}

// Push copies vs in, at consecutive sequences, and returns the sequence of
// the last one; past the ring's size, each value overwrites the oldest.
func (r *Ring[T]) Push(vs ...T) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := r.pos % uint64(len(r.slots)); len(vs) > 0; i = 0 {
		k := copy(r.slots[i:], vs)
		vs = vs[k:]
		r.pos += uint64(k)
	}
	return r.pos
}

// Cap returns how many values the ring retains.
func (r *Ring[T]) Cap() int { return len(r.slots) }

// Pushed returns how many values were ever pushed.
func (r *Ring[T]) Pushed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pos
}

// Dropped returns how many values the ring has overwritten.
func (r *Ring[T]) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := uint64(len(r.slots)); r.pos > n {
		return r.pos - n
	}
	return 0
}

// Since appends to dst the retained values published after sequence seq,
// oldest first, and returns it with the sequence of its first value (seq+1
// unless the ring overwrote some of those since).
func (r *Ring[T]) Since(seq uint64, dst []T) ([]T, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.slots))
	from := max(seq, r.pos-min(r.pos, n))
	// At most two runs of the slab: up to its end, then from its start.
	for s := from; s < r.pos; {
		i := s % n
		end := min(n, i+(r.pos-s))
		dst = append(dst, r.slots[i:end]...)
		s += end - i
	}
	return dst, from + 1
}

// Each calls fn for every retained value, oldest first, with its publish
// sequence; fn runs under the ring's lock and must not push to it.
func (r *Ring[T]) Each(fn func(seq uint64, v T)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.slots))
	for s := r.pos - min(r.pos, n); s < r.pos; s++ {
		fn(s+1, r.slots[s%n])
	}
}

// Snapshot copies the retained values, oldest first.
func (r *Ring[T]) Snapshot() []T {
	out, _ := r.Since(0, nil)
	if out == nil {
		out = []T{}
	}
	return out
}
