// Package txn provides the back-end commit path: monotonically increasing
// commit timestamps and the commit log that feeds transactional replication.
//
// Following the paper's model (Appendix 8.1), update transactions run only
// against the master database and are assigned integer ids — timestamps — in
// increasing order as they commit; the history H_n is the sequence of
// committed transactions. The Log below *is* that history: each CommitRecord
// carries the transaction's sequence number, its commit time on the master
// clock, and the row-level changes it made. Distribution agents read the log
// in order and apply records one transaction at a time, which is what makes
// all views maintained by one agent mutually snapshot-consistent. The rows
// matter only until every agent has applied them: then the log folds them
// into per-table digests and lets them go, keeping each commit's time and
// the tables it wrote, which is all the history's checkers read.
package txn

import (
	"maps"
	"slices"
	"sync"
	"time"

	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
)

// Change is one row modification: Old is the row before it, New the row
// after. An INSERT has no Old and a DELETE no New; storage.Table.Replace
// applies a change as it is written, and undoes it swapped.
type Change struct {
	Table string
	Old   sqltypes.Row
	New   sqltypes.Row
}

// Apply makes n changes as one unit, the ith tbl.Replace(old, new) with the
// arguments change(i) returns, and on the first that fails takes back the
// ones before it, last first, each swapped: it returns that failure with every
// table as it was before the unit. The undo calls change again, which must
// return the same change. A back-end statement or heartbeat, and each record
// an agent applies to its views, is one unit.
func Apply(n int, change func(i int) (tbl *storage.Table, old, new sqltypes.Row)) error {
	for i := 0; i < n; i++ {
		tbl, old, new := change(i)
		if err := tbl.Replace(old, new); err != nil {
			for k := i - 1; k >= 0; k-- {
				tbl, old, new := change(k)
				_ = tbl.Replace(new, old) // the swap of an applied change cannot fail
			}
			return err
		}
	}
	return nil
}

// Timestamp identifies a committed transaction: its position in the master
// history (Seq, the paper's integer transaction id) and its commit time.
type Timestamp struct {
	Seq int64
	At  time.Time
}

// CommitRecord is one committed transaction in the log.
type CommitRecord struct {
	TS      Timestamp
	Changes []Change
}

// delta is how much the change moves its table's digest (Log.Digest).
func (ch Change) delta() uint64 { return ch.New.Hash() - ch.Old.Hash() }

// Log is the master commit history, and its only copy: distribution agents
// read it to propagate, and the delivered-guarantee auditor reads it to find
// each served copy's stale point. It is append-only and safe for concurrent
// use; Append does nothing under its lock but the append and its index, the
// commits that changed each table. Sequence numbers start at 1; Seq 0 means
// "the initial (empty) snapshot".
//
// Each registered reader (Reader) reports what it has applied. Once every
// one has applied a commit, the log releases its rows: each change is folded
// into its table's digest and the record's Changes go, while its TS and its
// Writes entries stay. A log with no reader releases nothing.
type Log struct {
	mu      sync.RWMutex
	records []CommitRecord
	writes  map[string][]int64
	// cursors holds each reader's applied sequence; records[:released],
	// those at or below the least cursor, hold no rows.
	cursors  []int64
	released int64
	// digest holds, per table, the sum of the released changes' deltas.
	digest map[string]uint64
}

// NewLog returns an empty commit log.
func NewLog() *Log { return &Log{writes: map[string][]int64{}, digest: map[string]uint64{}} }

// Reader is one reader's cursor in a log.
type Reader struct {
	log *Log
	i   int
}

// Reader registers a reader that has applied nothing yet: no record past
// what is released already loses its rows until this reader has applied it.
func (l *Log) Reader() *Reader {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cursors = append(l.cursors, 0)
	return &Reader{log: l, i: len(l.cursors) - 1}
}

// Applied reports that the reader has applied every commit up to seq and
// reads none of them again. The log then releases the rows of every commit
// all its readers have applied.
func (r *Reader) Applied(seq int64) {
	l := r.log
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cursors[r.i] = seq
	for w := min(slices.Min(l.cursors), int64(len(l.records))); l.released < w; l.released++ {
		rec := &l.records[l.released]
		for _, ch := range rec.Changes {
			l.digest[ch.Table] += ch.delta()
		}
		rec.Changes = nil
	}
}

// Digest returns what the log says each table it wrote holds: the sum of
// the table's rows' hashes (sqltypes.Row.Hash), from the released changes'
// digest plus the deltas of every change since. Replaying the log from empty
// tables leaves a table whose rows sum to its digest.
func (l *Log) Digest() map[string]uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := maps.Clone(l.digest)
	for _, rec := range l.records[l.released:] {
		for _, ch := range rec.Changes {
			out[ch.Table] += ch.delta()
		}
	}
	return out
}

// Append atomically appends a transaction's changes, assigning the next
// sequence number, records the commit once under each table it changed, and
// returns the commit timestamp.
func (l *Log) Append(at time.Time, changes []Change) Timestamp {
	l.mu.Lock()
	defer l.mu.Unlock()
	ts := Timestamp{Seq: int64(len(l.records)) + 1, At: at}
	l.records = append(l.records, CommitRecord{TS: ts, Changes: changes})
	for _, ch := range changes {
		if w := l.writes[ch.Table]; len(w) == 0 || w[len(w)-1] != ts.Seq {
			l.writes[ch.Table] = append(w, ts.Seq)
		}
	}
	return ts
}

// Writes returns the sequences of the commits that changed table, ascending.
// The slice aliases the log's index, which only grows: callers must treat it
// as read-only, and a record it names is in every Since taken after it.
func (l *Log) Writes(table string) []int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.writes[table]
}

// Since returns all records with sequence numbers strictly greater than seq,
// in commit order. The returned slice aliases the log's storage; callers
// must treat it as read-only. A record every reader has applied keeps its
// TS but not its Changes, which the release clears under the log's lock: a
// caller reads the Changes only of records past its own cursor, or of
// records no reader can apply meanwhile.
func (l *Log) Since(seq int64) []CommitRecord {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if seq < 0 {
		seq = 0
	}
	if int(seq) >= len(l.records) {
		return nil
	}
	return l.records[seq:]
}

// SinceUntil returns records with seq < record.Seq and record.At <= cutoff —
// i.e. the transactions a distribution agent propagates when it wakes up at
// time cutoff having already applied everything up to seq.
func (l *Log) SinceUntil(seq int64, cutoff time.Time) []CommitRecord {
	recs := l.Since(seq)
	for i, r := range recs {
		if r.TS.At.After(cutoff) {
			return recs[:i]
		}
	}
	return recs
}

// LastSeq returns the sequence number of the most recent commit (0 if none).
func (l *Log) LastSeq() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return int64(len(l.records))
}
