package audit

import (
	"math/rand"
	"testing"
	"time"

	"relaxedcc/internal/obs"
	"relaxedcc/internal/semantics"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/txn"
)

// TestCheckerAgreesWithModel holds the checker, which reads the commit log
// and its per-table write index, to internal/semantics, the independent
// rendering of Appendix 8: on seeded logs of commits over three tables and a
// heartbeat-only table (one to three tables per commit, some changes
// delete-only), every stale point the checker finds is the model's
// StaleSince, seq and time, and every Θ it computes for a set of copies is
// the model's ConsistencyBound.
func TestCheckerAgreesWithModel(t *testing.T) {
	tables := []string{"A", "B", "C"}
	const hb = "HB"
	row := sqltypes.Row{sqltypes.NewInt(1)}
	staleFound, thetaAbove0 := 0, 0
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		log := txn.NewLog()
		h := semantics.NewHistory()
		at := t0
		for i := 0; i < 200; i++ {
			// Commit times rise by 0–2s, so some commits share a time.
			at = at.Add(time.Duration(rng.Intn(3)) * time.Second)
			var changes []txn.Change
			if rng.Intn(4) == 0 {
				changes = []txn.Change{{Table: hb, Old: row, New: row}}
			} else {
				for _, k := range rng.Perm(len(tables))[:1+rng.Intn(len(tables))] {
					for n := 1 + rng.Intn(2); n > 0; n-- {
						ch := txn.Change{Table: tables[k], New: row}
						if rng.Intn(3) == 0 {
							ch = txn.Change{Table: tables[k], Old: row} // delete-only
						}
						changes = append(changes, ch)
					}
				}
			}
			seq := log.Append(at, changes).Seq

			// The model's mirror: a heartbeat-only commit is an empty one
			// (the model's objects are the audited tables), a commit that
			// only deletes from one table a deletion version, any other a
			// new version of every table it changed.
			writes := map[semantics.ObjectID]string{}
			deletes := true
			for _, ch := range changes {
				if ch.Table != hb {
					writes[semantics.ObjectID(ch.Table)] = "v"
					deletes = deletes && ch.New == nil
				}
			}
			var err error
			switch {
			case len(writes) == 1 && deletes:
				err = h.Delete(seq, at, semantics.ObjectID(changes[0].Table))
			case len(writes) == 0:
				err = h.Commit(seq, at, nil)
			default:
				err = h.Commit(seq, at, writes)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		recs := log.Since(0)
		n := int64(len(recs))

		for q := 0; q < 500; q++ {
			table := tables[rng.Intn(len(tables))]
			sync, asOf := rng.Int63n(n+1), rng.Int63n(n+1)
			stale := (&object{writes: log.Writes(table)}).stalePoint(sync)
			ok := stale > 0 && stale <= asOf
			want, wantOK := h.StaleSince(semantics.Copy{ID: semantics.ObjectID(table), SyncXTime: sync}, asOf)
			if ok != wantOK || ok && (stale != want.XTime || !recs[stale-1].TS.At.Equal(want.At)) {
				t.Fatalf("seed %d: stale point of %s synced at %d as of %d = %d (%v), model %+v (%v)",
					seed, table, sync, asOf, stale, ok, want, wantOK)
			}
			if ok {
				staleFound++
			}
		}

		for q := 0; q < 200; q++ {
			// Each copy in a region of its own, so the checker's Θ check
			// runs; bounds of 0 make it report every Θ above 0.
			c := newChecker()
			asOf := rng.Int63n(n + 1)
			var locals []localServe
			var copies []semantics.Copy
			for r, k := 1, 2+rng.Intn(3); r <= k; r++ {
				table, sync := tables[rng.Intn(len(tables))], rng.Int63n(n+1)
				c.registerObject(r, table, 0)
				locals = append(locals, localServe{ev: ReadEvent{GuardEvent: obs.GuardEvent{Region: r}, SyncSeq: sync}, asOf: asOf})
				copies = append(copies, semantics.Copy{ID: semantics.ObjectID(table), SyncXTime: sync})
			}
			v, _ := c.thetaLocked(c.load(log), 1, locals)
			if want := int64(h.ConsistencyBound(copies, asOf)); v.DeliveredNS != want {
				t.Fatalf("seed %d: Θ of %+v as of %d = %v, model %v",
					seed, copies, asOf, time.Duration(v.DeliveredNS), time.Duration(want))
			}
			if v.DeliveredNS > 0 {
				thetaAbove0++
			}
		}
	}
	// Both comparisons must have had something to disagree on.
	if staleFound < 500 || thetaAbove0 < 200 {
		t.Fatalf("weak inputs: %d stale points of 2500, %d Θ above 0 of 1000", staleFound, thetaAbove0)
	}
}

// staleSince is the reference the write index is held to: the first commit
// in (sync, asOf] with a change to table — inserts, updates and deletes
// alike — found by scanning every change of every commit; ok is false when
// the copy is current as of asOf.
func staleSince(recs []txn.CommitRecord, table string, sync, asOf int64) (txn.Timestamp, bool) {
	if sync >= asOf {
		return txn.Timestamp{}, false
	}
	for _, rec := range recs[sync:asOf] {
		for _, ch := range rec.Changes {
			if ch.Table == table {
				return rec.TS, true
			}
		}
	}
	return txn.Timestamp{}, false
}

// TestServeStalenessMatchesStaleSince: a read's check finds its copies'
// stale points by searching the write lists a fold takes from the log, not
// by scanning the commits, and counts a stale point when it committed at or
// before the serve, with no search for the serve's position in the history.
// On seeded logs whose commits touch one to three tables (a table sometimes
// twice, sometimes only by deletes), whose commit times repeat and which grow
// between folds, every read's delivered staleness and worst copy is what
// scanning with staleSince, as of the position asOf finds, gives. The reads
// come in random order of sync points, so the last answer a table keeps
// must be checked before it is used.
func TestServeStalenessMatchesStaleSince(t *testing.T) {
	tables := []string{"A", "B", "HB"}
	row := sqltypes.Row{sqltypes.NewInt(1)}
	stale := 0
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		log := txn.NewLog()
		c := newChecker()
		c.registerObject(1, "A", 0)
		c.registerObject(1, "B", 0)
		at := t0
		for grow := 0; grow < 4; grow++ {
			for i := 0; i < 50; i++ {
				at = at.Add(time.Duration(rng.Intn(3)) * time.Second)
				var changes []txn.Change
				for _, k := range rng.Perm(len(tables))[:1+rng.Intn(len(tables))] {
					for n := 1 + rng.Intn(2); n > 0; n-- {
						ch := txn.Change{Table: tables[k], New: row}
						if rng.Intn(3) == 0 {
							ch = txn.Change{Table: tables[k], Old: row}
						}
						changes = append(changes, ch)
					}
				}
				log.Append(at, changes)
			}
			recs := c.load(log)
			n := int64(len(recs))
			for q := 0; q < 200; q++ {
				ev := ReadEvent{SyncSeq: rng.Int63n(n + 1),
					ServeTSNS: t0.Add(time.Duration(rng.Int63n(int64(at.Sub(t0)) + 1))).UnixNano()}
				wantDelivered, wantWorst := int64(0), ""
				for _, table := range []string{"A", "B"} {
					ts, ok := staleSince(recs, table, ev.SyncSeq, asOf(recs, ev.ServeTSNS))
					if d := ev.ServeTSNS - ts.At.UnixNano(); ok && d > wantDelivered {
						wantDelivered, wantWorst = d, table
					}
				}
				delivered, worst := checkLocal(recs, &ev, c.objects[1])
				gotWorst := ""
				if worst != nil {
					gotWorst = worst.table
					stale++
				}
				if delivered != wantDelivered || gotWorst != wantWorst {
					t.Fatalf("seed %d: sync %d, serve %d: delivered %v from %q, staleSince gives %v from %q",
						seed, ev.SyncSeq, ev.ServeTSNS, time.Duration(delivered), gotWorst,
						time.Duration(wantDelivered), wantWorst)
				}
			}
		}
	}
	if stale < 1000 {
		t.Fatalf("weak inputs: %d of 4000 reads found a stale copy", stale)
	}
}
