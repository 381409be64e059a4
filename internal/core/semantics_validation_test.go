package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/core"
	"relaxedcc/internal/semantics"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
)

// TestSystemSatisfiesFormalSemantics checks the running system against the
// paper's formal model (Appendix 8), implemented independently in
// internal/semantics:
//
//  1. build the formal master history H_n from the back end's commit log;
//  2. view every cached row as a formal Copy synchronized at the agent's
//     applied snapshot;
//  3. assert the region's cache is *snapshot consistent* (Appendix 8.5) and
//     has Θ-consistency bound 0 — the property the paper derives from
//     agents applying transactions one at a time in commit order;
//  4. assert each copy's formal currency is within the region's staleness
//     bound now - LastSync (what the heartbeat guard relies on).
func TestSystemSatisfiesFormalSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(2004))
	sys := core.NewSystem()
	sys.MustExec("CREATE TABLE obj (id BIGINT NOT NULL PRIMARY KEY, val VARCHAR(20) NOT NULL)")
	const keys = 10
	for k := 1; k <= keys; k++ {
		sys.MustExec(fmt.Sprintf("INSERT INTO obj VALUES (%d, 'v0')", k))
	}
	sys.Analyze()
	if err := sys.AddRegion(&catalog.Region{
		ID: 1, Name: "R", UpdateInterval: 7 * time.Second, UpdateDelay: 2 * time.Second,
		HeartbeatInterval: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateView(&catalog.View{
		Name: "obj_all", BaseTable: "obj", Columns: []string{"id", "val"}, RegionID: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// A random update stream across 2 minutes of virtual time.
	for i := 0; i < 100; i++ {
		if err := sys.Run(time.Duration(200+rng.Intn(1500)) * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(keys)
		if _, err := sys.Exec(fmt.Sprintf("UPDATE obj SET val = 'v%d' WHERE id = %d", i+1, k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}

	// 1. Formal history from the commit log (updates to obj only).
	h := semantics.NewHistory()
	for _, rec := range sys.Backend.Log().Since(0) {
		writes := map[semantics.ObjectID]string{}
		for _, ch := range rec.Changes {
			if ch.Table != "obj" || ch.New == nil {
				continue
			}
			writes[objectID(ch.New[0].Int())] = ch.New[1].Str()
		}
		if len(writes) > 0 {
			if err := h.Commit(rec.TS.Seq, rec.TS.At, writes); err != nil {
				t.Fatal(err)
			}
		} else {
			// Heartbeat or other-table transaction: advance the history's
			// timeline with an empty commit so xtimes stay aligned with
			// log sequence numbers.
			if err := h.Commit(rec.TS.Seq, rec.TS.At, nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	// 2. The region's applied snapshot.
	agent := sys.Cache.Agent(1)
	applied := storage.Seq(agent.Word().Load())
	if applied == 0 {
		t.Fatal("agent never applied anything")
	}
	var copies []semantics.Copy
	sys.Cache.ViewData("obj_all").Scan(func(r sqltypes.Row) bool {
		copies = append(copies, semantics.Copy{
			ID:        objectID(r[0].Int()),
			SyncXTime: applied,
			Value:     r[1].Str(),
			Present:   true,
		})
		return true
	})
	if len(copies) != keys {
		t.Fatalf("copies = %d", len(copies))
	}

	// 3. Snapshot consistency at exactly the applied snapshot, and a
	// Θ-consistency bound of zero.
	for _, c := range copies {
		if !h.SnapshotConsistentAt(c, applied) {
			want, _ := h.Return(c.ID, applied)
			t.Fatalf("copy %s=%q not snapshot consistent at %d (master has %q)",
				c.ID, c.Value, applied, want)
		}
	}
	if m, ok := h.SnapshotConsistent(copies, h.LastXTime()); !ok {
		t.Fatal("cache is not snapshot consistent w.r.t. any snapshot")
	} else if m < applied {
		t.Fatalf("witness snapshot %d older than applied %d", m, applied)
	}
	if bound := h.ConsistencyBound(copies, h.LastXTime()); bound != 0 {
		t.Fatalf("Θ-consistency bound = %v, want 0 within one region", bound)
	}

	// 4. Formal currency of each copy is within the heartbeat staleness the
	// guard uses.
	sync, ok := sys.Cache.LastSync(1)
	if !ok {
		t.Fatal("no heartbeat")
	}
	staleness := sys.Clock.Now().Sub(sync)
	for _, c := range copies {
		if cur := h.Currency(c, h.LastXTime()); cur > staleness {
			t.Fatalf("copy %s formal currency %v exceeds heartbeat staleness %v",
				c.ID, cur, staleness)
		}
	}
}

func objectID(id int64) semantics.ObjectID {
	return semantics.ObjectID(fmt.Sprintf("obj/%d", id))
}
