package repl

import (
	"sync"
	"testing"
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/sqltypes"
	"relaxedcc/internal/storage"
	"relaxedcc/internal/txn"
	"relaxedcc/internal/vclock"
)

var t0 = vclock.Epoch

// fixture: base table T(id, grp, val); view projects (id, val) with
// selection grp >= 10.
type fixture struct {
	base    *catalog.Table
	baseTbl *storage.Table
	view    *catalog.View
	viewTbl *storage.Table
	log     *txn.Log
	agent   *Agent
	sub     *Subscription
	syncs   map[int]time.Time
}

func (f *fixture) SetLastSync(regionID int, ts time.Time) { f.syncs[regionID] = ts }

func newFixture(t *testing.T, preds []catalog.SimplePred) *fixture {
	t.Helper()
	f := &fixture{log: txn.NewLog(), syncs: map[int]time.Time{}}
	cat := catalog.New()
	f.base = &catalog.Table{
		Name: "T",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.KindInt, NotNull: true},
			{Name: "grp", Type: sqltypes.KindInt},
			{Name: "val", Type: sqltypes.KindString},
		},
		PrimaryKey: []string{"id"},
	}
	if err := cat.AddTable(f.base); err != nil {
		t.Fatal(err)
	}
	f.baseTbl = storage.NewTable(f.base)
	f.view = &catalog.View{Name: "v", BaseTable: "T", Columns: []string{"id", "val"}, Preds: preds, RegionID: 1}
	viewDef := &catalog.Table{
		Name: "v",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.KindInt, NotNull: true},
			{Name: "val", Type: sqltypes.KindString},
		},
		PrimaryKey: []string{"id"},
	}
	if err := catalog.New().AddTable(viewDef); err != nil {
		t.Fatal(err)
	}
	f.viewTbl = storage.NewTable(viewDef)
	region := &catalog.Region{ID: 1, UpdateInterval: 10 * time.Second, UpdateDelay: 2 * time.Second}
	f.agent = NewAgent(region, f.log, "HB", f)
	sub, err := NewSubscription(f.view, f.base, f.viewTbl)
	if err != nil {
		t.Fatal(err)
	}
	f.sub = sub
	f.agent.Subscribe(sub)
	if err := f.agent.InitialSync(sub, f.baseTbl); err != nil {
		t.Fatal(err)
	}
	return f
}

func baseRow(id, grp int64, val string) sqltypes.Row {
	return sqltypes.Row{sqltypes.NewInt(id), sqltypes.NewInt(grp), sqltypes.NewString(val)}
}

// commit applies changes to the base table and appends them to the log.
func (f *fixture) commit(t *testing.T, at time.Time, changes ...txn.Change) {
	t.Helper()
	for _, ch := range changes {
		switch ch.Op {
		case txn.OpInsert:
			if err := f.baseTbl.Insert(ch.New); err != nil {
				t.Fatal(err)
			}
		case txn.OpDelete:
			f.baseTbl.Delete(sqltypes.Row{ch.Old[0]})
		case txn.OpUpdate:
			if err := f.baseTbl.Update(ch.New); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.log.Append(at, changes)
}

func TestInitialSyncPopulatesView(t *testing.T) {
	f := newFixture(t, nil)
	if f.viewTbl.Len() != 0 {
		t.Fatal("empty base should give empty view")
	}
	// Load data then re-sync.
	f.baseTbl.Insert(baseRow(1, 5, "a"))
	f.baseTbl.Insert(baseRow(2, 15, "b"))
	if err := f.agent.InitialSync(f.sub, f.baseTbl); err != nil {
		t.Fatal(err)
	}
	if f.viewTbl.Len() != 2 {
		t.Fatalf("view rows = %d", f.viewTbl.Len())
	}
	row, ok := f.viewTbl.Get(sqltypes.Row{sqltypes.NewInt(2)})
	if !ok || row[1].Str() != "b" {
		t.Fatalf("projected row = %v", row)
	}
}

func TestInitialSyncAppliesSelection(t *testing.T) {
	f := newFixture(t, []catalog.SimplePred{{Column: "grp", Op: catalog.OpGE, Value: sqltypes.NewInt(10)}})
	f.baseTbl.Insert(baseRow(1, 5, "out"))
	f.baseTbl.Insert(baseRow(2, 15, "in"))
	if err := f.agent.InitialSync(f.sub, f.baseTbl); err != nil {
		t.Fatal(err)
	}
	if f.viewTbl.Len() != 1 {
		t.Fatalf("selected rows = %d", f.viewTbl.Len())
	}
}

func TestStepAppliesCommittedChangesInOrder(t *testing.T) {
	f := newFixture(t, nil)
	f.commit(t, t0.Add(1*time.Second), txn.Change{Table: "T", Op: txn.OpInsert, New: baseRow(1, 1, "a")})
	f.commit(t, t0.Add(2*time.Second), txn.Change{Table: "T", Op: txn.OpUpdate,
		Old: baseRow(1, 1, "a"), New: baseRow(1, 1, "a2")})
	// Step at t=5 with delay 2: both commits (<=3s) apply.
	if err := f.agent.Step(t0.Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	row, ok := f.viewTbl.Get(sqltypes.Row{sqltypes.NewInt(1)})
	if !ok || row[1].Str() != "a2" {
		t.Fatalf("view row = %v, %v", row, ok)
	}
	if f.agent.LastSeq() != 2 || f.agent.TransactionsApplied() != 2 {
		t.Fatalf("seq=%d applied=%d", f.agent.LastSeq(), f.agent.TransactionsApplied())
	}
}

func TestStepHonorsPropagationDelay(t *testing.T) {
	f := newFixture(t, nil)
	f.commit(t, t0.Add(4*time.Second), txn.Change{Table: "T", Op: txn.OpInsert, New: baseRow(1, 1, "a")})
	// At t=5 with delay 2, cutoff is t=3: nothing applies.
	if err := f.agent.Step(t0.Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if f.viewTbl.Len() != 0 {
		t.Fatal("commit inside the delay window must not propagate yet")
	}
	if err := f.agent.Step(t0.Add(7 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if f.viewTbl.Len() != 1 {
		t.Fatal("commit must propagate once past the delay")
	}
}

func TestSelectionTransitions(t *testing.T) {
	f := newFixture(t, []catalog.SimplePred{{Column: "grp", Op: catalog.OpGE, Value: sqltypes.NewInt(10)}})
	// Insert outside selection: filtered.
	f.commit(t, t0.Add(time.Second), txn.Change{Table: "T", Op: txn.OpInsert, New: baseRow(1, 5, "a")})
	// Update moves it inside: view insert.
	f.commit(t, t0.Add(2*time.Second), txn.Change{Table: "T", Op: txn.OpUpdate,
		Old: baseRow(1, 5, "a"), New: baseRow(1, 20, "a")})
	if err := f.agent.Step(t0.Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if f.viewTbl.Len() != 1 {
		t.Fatalf("rows after move-in = %d", f.viewTbl.Len())
	}
	// Update moves it outside: view delete.
	f.commit(t, t0.Add(11*time.Second), txn.Change{Table: "T", Op: txn.OpUpdate,
		Old: baseRow(1, 20, "a"), New: baseRow(1, 3, "a")})
	if err := f.agent.Step(t0.Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if f.viewTbl.Len() != 0 {
		t.Fatal("row should have left the view")
	}
	// Delete of an out-of-view row is a no-op.
	f.commit(t, t0.Add(21*time.Second), txn.Change{Table: "T", Op: txn.OpDelete, Old: baseRow(1, 3, "a")})
	if err := f.agent.Step(t0.Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if f.viewTbl.Len() != 0 {
		t.Fatal("view should stay empty")
	}
}

func TestHeartbeatRouting(t *testing.T) {
	f := newFixture(t, nil)
	hb := func(cid int64, at time.Time) txn.Change {
		return txn.Change{Table: "HB", Op: txn.OpUpdate,
			New: sqltypes.Row{sqltypes.NewInt(cid), sqltypes.NewTime(at)}}
	}
	f.log.Append(t0.Add(1*time.Second), []txn.Change{hb(1, t0.Add(1*time.Second))})
	f.log.Append(t0.Add(2*time.Second), []txn.Change{hb(2, t0.Add(2*time.Second))}) // other region
	f.log.Append(t0.Add(3*time.Second), []txn.Change{hb(1, t0.Add(3*time.Second))})
	if err := f.agent.Step(t0.Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := f.syncs[1]; !got.Equal(t0.Add(3 * time.Second)) {
		t.Fatalf("region 1 sync = %v", got)
	}
	if _, ok := f.syncs[2]; ok {
		t.Fatal("agent must ignore other regions' heartbeats")
	}
}

func TestStartSeqSkipsSnapshottedTransactions(t *testing.T) {
	f := newFixture(t, nil)
	// Commit before the (second) initial sync; snapshot includes it.
	f.commit(t, t0.Add(time.Second), txn.Change{Table: "T", Op: txn.OpInsert, New: baseRow(1, 1, "a")})
	if err := f.agent.InitialSync(f.sub, f.baseTbl); err != nil {
		t.Fatal(err)
	}
	if f.viewTbl.Len() != 1 {
		t.Fatal("snapshot should include the row")
	}
	// Stepping must not re-apply the insert (would be a duplicate PK).
	if err := f.agent.Step(t0.Add(time.Minute)); err != nil {
		t.Fatalf("replay over snapshot: %v", err)
	}
	if f.viewTbl.Len() != 1 {
		t.Fatalf("rows = %d", f.viewTbl.Len())
	}
}

// every is a constant cadence for the coordinator's interval functions.
func every(d time.Duration) func() time.Duration {
	return func() time.Duration { return d }
}

func TestCoordinatorOrdering(t *testing.T) {
	clock := vclock.NewVirtual()
	coord := NewCoordinator(clock)
	var events []string
	coord.AddHeartbeat(1, every(2*time.Second), func(int) error {
		events = append(events, "beat@"+clock.Now().Sub(t0).String())
		return nil
	})
	coord.AddPeriodic(every(3*time.Second), func(now time.Time) error {
		events = append(events, "tick@"+now.Sub(t0).String())
		return nil
	})
	if err := coord.Advance(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := []string{"beat@2s", "tick@3s", "beat@4s", "beat@6s", "tick@6s"}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
	if !clock.Now().Equal(t0.Add(6 * time.Second)) {
		t.Fatalf("clock = %v", clock.Now())
	}
}

func TestCoordinatorAgentAfterHeartbeatAtSameInstant(t *testing.T) {
	clock := vclock.NewVirtual()
	coord := NewCoordinator(clock)
	var order []string
	region := &catalog.Region{ID: 1, UpdateInterval: 2 * time.Second, UpdateDelay: 0}
	agent := NewAgent(region, txn.NewLog(), "HB", nil)
	coord.AddHeartbeat(1, every(2*time.Second), func(int) error {
		order = append(order, "beat")
		return nil
	})
	coord.AddAgent(agent)
	// Wrap the agent in a periodic to observe ordering at the shared instant.
	coord.AddPeriodic(every(2*time.Second), func(time.Time) error {
		order = append(order, "other")
		return nil
	})
	if err := coord.Advance(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if order[0] != "beat" {
		t.Fatalf("heartbeat must fire before same-instant events: %v", order)
	}
}

// TestCoordinatorsAreIndependent: event numbering belongs to a coordinator,
// so systems built at the same time share nothing (run under -race), and
// same-kind events due at one instant fire in registration order.
func TestCoordinatorsAreIndependent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			coord := NewCoordinator(vclock.NewVirtual())
			var order []int
			for i := 0; i < 8; i++ {
				i := i
				coord.AddPeriodic(every(time.Second), func(time.Time) error {
					order = append(order, i)
					return nil
				})
			}
			if err := coord.Advance(time.Second); err != nil {
				t.Error(err)
			}
			for i, got := range order {
				if got != i {
					t.Errorf("tied events fired as %v, want registration order", order)
					break
				}
			}
		}()
	}
	wg.Wait()
}

func TestCoordinatorPropagatesErrors(t *testing.T) {
	clock := vclock.NewVirtual()
	coord := NewCoordinator(clock)
	coord.AddPeriodic(every(time.Second), func(time.Time) error {
		return errTest
	})
	if err := coord.Advance(2 * time.Second); err == nil {
		t.Fatal("expected error")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "boom" }
