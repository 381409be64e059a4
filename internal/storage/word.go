package storage

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Word is a currency region's published state word: the one thing a reader
// of the region's tables compares to know that what it read is one committed
// state. Its low versionBits are the version, 2·seq once the record with
// commit sequence seq is fully applied to the region's views and heartbeat
// (Synced), and 2·seq − 1 while the region's one writer, its distribution
// agent, applies that record. The high bits count the moves that apply no
// record — a record whose apply failed and was taken back, a heartbeat written
// out of band — so the word never returns to a value a reader has seen.
//
// A reader loads the word before it reads (Load waits out an odd version) and
// loads it again after its last row: an unchanged word means no write to the
// region's tables or heartbeat overlapped the read. Readers write nothing
// here; the writer serializes its own calls (the agent's mutex).
type Word struct {
	w  atomic.Uint64
	hb atomic.Int64 // the heartbeat in Unix nanoseconds, 0 before the first
}

const (
	versionBits = 48
	versionMask = 1<<versionBits - 1
	otherMove   = 1 << versionBits
)

// Seq is the commit sequence a word's value names: its version halved, the
// last record fully applied.
func Seq(w uint64) int64 { return int64(w&versionMask) / 2 }

// Load returns the word's value once its version is even: a state no apply is
// writing. It spins, yielding, while the writer is inside an apply; it takes
// no lock. A nil word never moves and loads as zero.
func (w *Word) Load() uint64 {
	if w == nil {
		return 0
	}
	for {
		if v := w.w.Load(); v&1 == 0 {
			return v
		}
		runtime.Gosched()
	}
}

// Moved reports whether the word is no longer v, a value Load returned.
func (w *Word) Moved(v uint64) bool { return w != nil && w.w.Load() != v }

// Begin marks the record with commit sequence seq as being applied: the
// version goes odd, 2·seq − 1.
func (w *Word) Begin(seq int64) { w.w.Store(w.w.Load()&^versionMask | uint64(2*seq-1)) }

// End closes the apply Begin opened: the version becomes 2·seq, the state
// after the record with commit sequence seq. A seq before the one Begin named
// (the record failed and was taken back) also steps the moves counter.
func (w *Word) End(seq int64) {
	v := w.w.Load()
	if uint64(2*seq) < v&versionMask {
		v += otherMove
	}
	w.w.Store(v&^versionMask | uint64(2*seq))
}

// Touch moves the word without a record: a write to the region's tables
// that changes no commit sequence (a heartbeat written out of band).
func (w *Word) Touch() { w.w.Add(otherMove) }

// Heartbeat publishes ts as the region's heartbeat unless a later one is.
func (w *Word) Heartbeat(ts time.Time) { w.hb.Store(max(w.hb.Load(), ts.UnixNano())) }

// Synced returns the region's heartbeat, false when none was published.
func (w *Word) Synced() (time.Time, bool) {
	if w != nil {
		if n := w.hb.Load(); n != 0 {
			return time.Unix(0, n).UTC(), true
		}
	}
	return time.Time{}, false
}
