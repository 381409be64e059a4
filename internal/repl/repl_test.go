package repl

import (
	"strings"
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
}

func newFixture(t *testing.T, preds []catalog.SimplePred) *fixture {
	t.Helper()
	f := &fixture{log: txn.NewLog()}
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
	f.agent = NewAgent(region, f.log, "HB")
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

// viewRows renders a view's rows in key order.
func viewRows(v *storage.Table) string {
	var b strings.Builder
	v.Scan(func(r sqltypes.Row) bool {
		b.WriteString(r.String())
		return true
	})
	return b.String()
}

func baseRow(id, grp int64, val string) sqltypes.Row {
	return sqltypes.Row{sqltypes.NewInt(id), sqltypes.NewInt(grp), sqltypes.NewString(val)}
}

// commit applies changes to the base table, those that are its, and appends
// them to the log.
func (f *fixture) commit(t *testing.T, at time.Time, changes ...txn.Change) {
	t.Helper()
	for _, ch := range changes {
		if ch.Table != f.base.Name {
			continue
		}
		if err := f.baseTbl.Replace(ch.Old, ch.New); err != nil {
			t.Fatal(err)
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
	f.baseTbl.Replace(nil, baseRow(1, 5, "a"))
	f.baseTbl.Replace(nil, baseRow(2, 15, "b"))
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
	f.baseTbl.Replace(nil, baseRow(1, 5, "out"))
	f.baseTbl.Replace(nil, baseRow(2, 15, "in"))
	if err := f.agent.InitialSync(f.sub, f.baseTbl); err != nil {
		t.Fatal(err)
	}
	if f.viewTbl.Len() != 1 {
		t.Fatalf("selected rows = %d", f.viewTbl.Len())
	}
}

func TestStepAppliesCommittedChangesInOrder(t *testing.T) {
	f := newFixture(t, nil)
	f.commit(t, t0.Add(1*time.Second), txn.Change{Table: "T", New: baseRow(1, 1, "a")})
	f.commit(t, t0.Add(2*time.Second), txn.Change{Table: "T", Old: baseRow(1, 1, "a"), New: baseRow(1, 1, "a2")})
	// Step at t=5 with delay 2: both commits (<=3s) apply.
	if err := f.agent.Step(t0.Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	row, ok := f.viewTbl.Get(sqltypes.Row{sqltypes.NewInt(1)})
	if !ok || row[1].Str() != "a2" {
		t.Fatalf("view row = %v, %v", row, ok)
	}
	if storage.Seq(f.agent.Word().Load()) != 2 || f.agent.TransactionsApplied() != 2 {
		t.Fatalf("seq=%d applied=%d", storage.Seq(f.agent.Word().Load()), f.agent.TransactionsApplied())
	}
}

func TestStepHonorsPropagationDelay(t *testing.T) {
	f := newFixture(t, nil)
	f.commit(t, t0.Add(4*time.Second), txn.Change{Table: "T", New: baseRow(1, 1, "a")})
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

// TestSelectionTransitions: a change reaches the view as the images of its
// sides the selection covers, one Replace. A key-moving update moves the
// view's row within the selection, inserts it moving in and deletes it moving
// out. A view that has diverged from its base — holding the key a row moves
// onto, or lacking the row a delete takes — fails the step and keeps the view.
func TestSelectionTransitions(t *testing.T) {
	for _, c := range []struct {
		what      string
		base      sqltypes.Row // committed and applied before ch
		put, take sqltypes.Row // view rows put in or taken out before ch
		ch        txn.Change
		view      string // the view after ch
		err       string // the step's error, if it fails
	}{
		{what: "insert outside", ch: txn.Change{Table: "T", New: baseRow(1, 5, "a")}},
		{what: "update moves in", base: baseRow(1, 5, "a"),
			ch: txn.Change{Table: "T", Old: baseRow(1, 5, "a"), New: baseRow(1, 20, "a")}, view: "(1, 'a')"},
		{what: "update moves out", base: baseRow(1, 20, "a"),
			ch: txn.Change{Table: "T", Old: baseRow(1, 20, "a"), New: baseRow(1, 3, "a")}},
		{what: "delete outside", base: baseRow(1, 3, "a"),
			ch: txn.Change{Table: "T", Old: baseRow(1, 3, "a")}},
		{what: "key move within", base: baseRow(1, 20, "a"),
			ch: txn.Change{Table: "T", Old: baseRow(1, 20, "a"), New: baseRow(2, 30, "b")}, view: "(2, 'b')"},
		{what: "key move in", base: baseRow(1, 5, "a"),
			ch: txn.Change{Table: "T", Old: baseRow(1, 5, "a"), New: baseRow(2, 20, "a")}, view: "(2, 'a')"},
		{what: "key move out", base: baseRow(1, 20, "a"),
			ch: txn.Change{Table: "T", Old: baseRow(1, 20, "a"), New: baseRow(2, 5, "a")}},
		{what: "key move onto a key the view holds", base: baseRow(1, 20, "a"), put: sqltypes.Row{sqltypes.NewInt(2), sqltypes.NewString("x")},
			ch: txn.Change{Table: "T", Old: baseRow(1, 20, "a"), New: baseRow(2, 20, "b")}, view: "(1, 'a')(2, 'x')",
			err: "repl: region 1 applying seq 2: storage: v: duplicate primary key (2)"},
		{what: "delete of a row the view lacks", base: baseRow(1, 20, "a"), take: sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewString("a")},
			ch:  txn.Change{Table: "T", Old: baseRow(1, 20, "a")},
			err: "repl: region 1 applying seq 2: storage: v: no row with primary key (1)"},
	} {
		f := newFixture(t, []catalog.SimplePred{{Column: "grp", Op: catalog.OpGE, Value: sqltypes.NewInt(10)}})
		if c.base != nil {
			f.commit(t, t0.Add(time.Second), txn.Change{Table: "T", New: c.base})
		} else {
			f.log.Append(t0.Add(time.Second), nil)
		}
		if err := f.agent.Step(t0.Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if err := f.viewTbl.Replace(c.take, c.put); err != nil {
			t.Fatal(err)
		}
		f.commit(t, t0.Add(11*time.Second), c.ch)
		got, seq := "", int64(2)
		if err := f.agent.Step(t0.Add(20 * time.Second)); err != nil {
			got, seq = err.Error(), 1
		}
		if got != c.err || storage.Seq(f.agent.Word().Load()) != seq {
			t.Errorf("%s: step: %q, word seq %d; want %q", c.what, got, storage.Seq(f.agent.Word().Load()), c.err)
		}
		if got := viewRows(f.viewTbl); got != c.view {
			t.Errorf("%s: view %s, want %s", c.what, got, c.view)
		}
	}
}

// TestFailedStepLeavesNoPartOfItsRecord: a record whose last change fails to
// apply (the view already holds its key) takes back the changes before it. The
// view is as it was before the record, and neither the word's seq nor the
// heartbeat it publishes moves when the record carries the region's
// heartbeat, so the next step fails the same way instead of tripping over the
// record's own first change.
func TestFailedStepLeavesNoPartOfItsRecord(t *testing.T) {
	beat := func(at time.Time) txn.Change {
		return txn.Change{Table: "HB", New: sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewTime(at)}}
	}
	for _, c := range []struct {
		name  string
		first []txn.Change // the failing record's changes before the one that fails
	}{
		{"a view change", []txn.Change{{Table: "T", New: baseRow(1, 20, "a")}}},
		{"the heartbeat and a view change", []txn.Change{beat(t0.Add(2 * time.Second)), {Table: "T", New: baseRow(1, 20, "a")}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newFixture(t, []catalog.SimplePred{{Column: "grp", Op: catalog.OpGE, Value: sqltypes.NewInt(10)}})
			f.commit(t, t0.Add(time.Second), txn.Change{Table: "T", New: baseRow(5, 50, "e")}, beat(t0.Add(time.Second)))
			if err := f.viewTbl.Replace(nil, sqltypes.Row{sqltypes.NewInt(2), sqltypes.NewString("x")}); err != nil {
				t.Fatal(err)
			}
			f.commit(t, t0.Add(2*time.Second), append(c.first, txn.Change{Table: "T", New: baseRow(2, 20, "b")})...)
			const want = "repl: region 1 applying seq 2: storage: v: duplicate primary key (2)"
			for step := 1; step <= 2; step++ {
				err := f.agent.Step(t0.Add(time.Duration(10*step) * time.Second))
				if err == nil || err.Error() != want {
					t.Fatalf("step %d: %v, want %s", step, err, want)
				}
				if got := viewRows(f.viewTbl); got != "(2, 'x')(5, 'e')" || storage.Seq(f.agent.Word().Load()) != 1 {
					t.Fatalf("step %d: view %s, word seq %d", step, got, storage.Seq(f.agent.Word().Load()))
				}
				if got, _ := f.agent.Word().Synced(); !got.Equal(t0.Add(time.Second)) {
					t.Fatalf("step %d: heartbeat %v, want the first record's %v", step, got, t0.Add(time.Second))
				}
			}
		})
	}
}

func TestHeartbeatRouting(t *testing.T) {
	f := newFixture(t, nil)
	hb := func(cid int64, at time.Time) txn.Change {
		return txn.Change{Table: "HB", New: sqltypes.Row{sqltypes.NewInt(cid), sqltypes.NewTime(at)}}
	}
	f.log.Append(t0.Add(1*time.Second), []txn.Change{hb(1, t0.Add(1*time.Second))})
	f.log.Append(t0.Add(3*time.Second), []txn.Change{hb(1, t0.Add(3*time.Second))})
	f.log.Append(t0.Add(4*time.Second), []txn.Change{hb(2, t0.Add(4*time.Second))}) // other region, the latest
	if err := f.agent.Step(t0.Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if got, _ := f.agent.Word().Synced(); !got.Equal(t0.Add(3 * time.Second)) {
		t.Fatalf("region 1 sync = %v; the agent must ignore other regions' heartbeats", got)
	}
}

func TestStartSeqSkipsSnapshottedTransactions(t *testing.T) {
	f := newFixture(t, nil)
	// Commit before the (second) initial sync; snapshot includes it.
	f.commit(t, t0.Add(time.Second), txn.Change{Table: "T", New: baseRow(1, 1, "a")})
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
	agent := NewAgent(region, txn.NewLog(), "HB")
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
