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
// all views maintained by one agent mutually snapshot-consistent.
package txn

import (
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

// Log is the master commit history, and its only copy: distribution agents
// read it to propagate, and the delivered-guarantee auditor reads it to find
// each served copy's stale point. It is append-only and safe for concurrent
// use; Append does nothing under its lock but the append. Sequence numbers
// start at 1; Seq 0 means "the initial (empty) snapshot".
type Log struct {
	mu      sync.RWMutex
	records []CommitRecord
}

// NewLog returns an empty commit log.
func NewLog() *Log { return &Log{} }

// Append atomically appends a transaction's changes, assigning the next
// sequence number, and returns the commit timestamp.
func (l *Log) Append(at time.Time, changes []Change) Timestamp {
	l.mu.Lock()
	defer l.mu.Unlock()
	ts := Timestamp{Seq: int64(len(l.records)) + 1, At: at}
	l.records = append(l.records, CommitRecord{TS: ts, Changes: changes})
	return ts
}

// Since returns all records with sequence numbers strictly greater than seq,
// in commit order. The returned slice aliases the log's storage; callers
// must treat it as read-only.
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
