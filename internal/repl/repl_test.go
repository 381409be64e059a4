package repl

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/obs"
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
	reg     *obs.Registry
}

func newFixture(t *testing.T, preds []catalog.SimplePred) *fixture {
	t.Helper()
	f := &fixture{log: txn.NewLog(), reg: obs.NewRegistry()}
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
	f.agent = NewAgent(region, f.log, "HB", f.reg, obs.NewTracer(f.reg, 1, 1))
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
// record's own first change. The record before it stays applied and counted:
// repl_txns_applied_total and repl_rows_applied_total hold its one commit and
// its one view row.
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
				c := f.reg.Snapshot().Counters
				if txns, rows := c[`repl_txns_applied_total{region="1"}`], c[`repl_rows_applied_total{region="1"}`]; txns != 1 || rows != 1 || f.agent.TransactionsApplied() != 1 {
					t.Fatalf("step %d: counted %d commits and %d rows (TransactionsApplied %d), want the first record's 1 and 1", step, txns, rows, f.agent.TransactionsApplied())
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
	reg := obs.NewRegistry()
	agent := NewAgent(region, txn.NewLog(), "HB", reg, obs.NewTracer(reg, 1, 1))
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

// TestLogReleasesWhatEveryAgentApplied: two agents on one log apply 10⁵
// commits at their own paces, the fixture's 2 s behind the other's. After
// every tenth step of each, each record at or below the
// slower agent's applied sequence has let go of its rows and each record
// past it keeps them; at the end both views hold every key's last value, and
// the live heap grew by at most 128 bytes a commit, what a record's
// timestamp and its Writes entry keep.
func TestLogReleasesWhatEveryAgentApplied(t *testing.T) {
	const commits, keys = 100_000, 10
	f := newFixture(t, nil)
	second := storage.NewTable(f.viewTbl.Def())
	agents := []*Agent{f.agent, NewAgent(&catalog.Region{ID: 2}, f.log, "HB", f.reg, obs.NewTracer(f.reg, 1, 1))}
	sub, err := NewSubscription(f.view, f.base, second)
	if err != nil {
		t.Fatal(err)
	}
	agents[1].Subscribe(sub)
	if err := agents[1].InitialSync(sub, f.baseTbl); err != nil {
		t.Fatal(err)
	}
	check := func() {
		w := min(agents[0].lastSeq, agents[1].lastSeq)
		for _, rec := range f.log.Since(0) {
			if kept := rec.Changes != nil; kept != (rec.TS.Seq > w) {
				t.Fatalf("record %d keeps its rows: %v, with the slower agent at %d", rec.TS.Seq, kept, w)
			}
		}
	}
	at := func(seq int) time.Time { return t0.Add(time.Duration(seq) * time.Millisecond) }
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	last := map[int64]string{}
	for seq := 1; seq <= commits; seq++ {
		k, v := int64(seq%keys), strconv.Itoa(seq)
		var old sqltypes.Row
		if prev, ok := last[k]; ok {
			old = baseRow(k, 20, prev)
		}
		f.log.Append(at(seq), []txn.Change{{Table: "T", Old: old, New: baseRow(k, 20, v)}})
		last[k] = v
		for i, every := range []int{700, 1100} {
			if seq%every == 0 {
				if err := agents[i].Step(at(seq)); err != nil {
					t.Fatal(err)
				}
				if seq%(every*10) == 0 {
					check()
				}
			}
		}
	}
	for _, a := range agents {
		if err := a.Step(at(commits).Add(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	check()
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / commits
	if per > 128 {
		t.Errorf("live heap grew %d bytes a commit, want at most 128", per)
	}
	t.Logf("live heap grew %d bytes a commit", per)
	for _, tbl := range []*storage.Table{f.viewTbl, second} {
		for k, v := range last {
			if row, ok := tbl.Get(sqltypes.Row{sqltypes.NewInt(k)}); !ok || row[1].Str() != v {
				t.Fatalf("view %p: key %d is %v, want %s", tbl, k, row, v)
			}
		}
	}
}
