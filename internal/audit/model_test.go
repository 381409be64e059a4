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

// TestCheckerAgreesWithModel holds the checker, which reads the commit log,
// to internal/semantics, the independent rendering of Appendix 8: on seeded
// logs of commits over three tables and a heartbeat-only table (one to three
// tables per commit, some changes delete-only), every stale point the checker
// finds is the model's StaleSince, seq and time, and every Θ it computes for a
// set of copies is the model's ConsistencyBound.
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
			got, ok := staleSince(recs, table, sync, asOf)
			want, wantOK := h.StaleSince(semantics.Copy{ID: semantics.ObjectID(table), SyncXTime: sync}, asOf)
			if ok != wantOK || ok && (got.Seq != want.XTime || !got.At.Equal(want.At)) {
				t.Fatalf("seed %d: stale point of %s synced at %d as of %d = %+v (%v), model %+v (%v)",
					seed, table, sync, asOf, got, ok, want, wantOK)
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
			v, _ := c.thetaLocked(recs, 1, locals)
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

// TestServeStalenessMatchesStaleSince: a read's check finds its copy's stale
// point without searching for the serve's position in the history — the
// first commit after the sync point that changed the table counts when it
// committed at or before the serve. On seeded logs whose commit times repeat,
// that is staleSince as of the position asOf finds, for reads asked in any
// order of sync points, and for a log that grows between folds.
func TestServeStalenessMatchesStaleSince(t *testing.T) {
	row := sqltypes.Row{sqltypes.NewInt(1)}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		log := txn.NewLog()
		obj := object{table: "A"}
		at := t0
		for grow := 0; grow < 4; grow++ {
			for i := 0; i < 50; i++ {
				at = at.Add(time.Duration(rng.Intn(3)) * time.Second)
				table := []string{"A", "B", "HB"}[rng.Intn(3)]
				log.Append(at, []txn.Change{{Table: table, New: row}})
			}
			recs := log.Since(0)
			n := int64(len(recs))
			for q := 0; q < 200; q++ {
				sync := rng.Int63n(n + 1)
				serveNS := t0.Add(time.Duration(rng.Int63n(int64(at.Sub(t0)) + 1))).UnixNano()
				want, wantOK := staleSince(recs, "A", sync, asOf(recs, serveNS))
				stale, staleNS := obj.staleAfter(recs, sync)
				if ok := stale > 0 && staleNS <= serveNS; ok != wantOK || ok && (stale != want.Seq || staleNS != want.At.UnixNano()) {
					t.Fatalf("seed %d: sync %d, serve %d: stale point %d at %d (counted %v), staleSince %+v (%v)",
						seed, sync, serveNS, stale, staleNS, ok, want, wantOK)
				}
			}
		}
	}
}
