package core

import (
	"sync"
	"testing"
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/fault"
	"relaxedcc/internal/mtcache"
	"relaxedcc/internal/sqltypes"
)

// The tests here hold the paper's premise for currency regions (DESIGN §2):
// one agent applies whole transactions, so every local answer a region gives
// reflects one committed state, on every goroutine. A reader that overlaps an
// agent's apply must not see part of a record.

// acctRows is the size of the account table: an UPDATE of every row is one
// record of this many changes, long enough for a reader to land inside its
// apply.
const acctRows = 3000

// acctSystem builds a back end with acct(id, bal), rows 1..acctRows with
// bal(id), and region 1 (50ms cadence) holding the given views of it.
func acctSystem(t *testing.T, bal func(id int64) int64, views ...*catalog.View) *System {
	t.Helper()
	sys := NewSystem()
	sys.MustExec("CREATE TABLE acct (id BIGINT NOT NULL PRIMARY KEY, bal BIGINT NOT NULL)")
	rows := make([]sqltypes.Row, acctRows)
	for i := range rows {
		id := int64(i + 1)
		rows[i] = sqltypes.Row{sqltypes.NewInt(id), sqltypes.NewInt(bal(id))}
	}
	if err := sys.Backend.LoadRows("acct", rows); err != nil {
		t.Fatal(err)
	}
	if err := sys.Analyze(); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddRegion(&catalog.Region{
		ID: 1, Name: "R", UpdateInterval: 50 * time.Millisecond, HeartbeatInterval: 50 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		if err := sys.CreateView(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	return sys
}

// acctHalves are two views of acct in region 1, split at the middle id.
func acctHalves() []*catalog.View {
	half := sqltypes.NewInt(acctRows / 2)
	return []*catalog.View{
		{Name: "acct_lo", BaseTable: "acct", Columns: []string{"id", "bal"}, RegionID: 1,
			Preds: []catalog.SimplePred{{Column: "id", Op: catalog.OpLE, Value: half}}},
		{Name: "acct_hi", BaseTable: "acct", Columns: []string{"id", "bal"}, RegionID: 1,
			Preds: []catalog.SimplePred{{Column: "id", Op: catalog.OpGT, Value: half}}},
	}
}

// driveUpdates runs update and then 100ms of simulated time, updates times,
// on its own goroutine, the way a replication driver beside readers does; it
// stops early once stop is closed. The returned channel closes when it ends.
func driveUpdates(t *testing.T, sys *System, update string, updates int, stop <-chan struct{}) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < updates; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := sys.Exec(update); err != nil {
				t.Error(err)
				return
			}
			if err := sys.Run(100 * time.Millisecond); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	return done
}

// readBeside asks query on the main goroutine while the driver runs, at least
// reads times, and hands every answer a guard served locally to check, which
// reports whether the answer is a committed state. It fails the test on every
// answer that is not, and when no answer was local.
func readBeside(t *testing.T, sys *System, query string, reads int, driver <-chan struct{}, stop chan<- struct{}, check func(sqltypes.Row) bool) {
	t.Helper()
	defer func() { close(stop); <-driver }()
	sess := sys.Cache.NewSession()
	local, torn := 0, 0
	for n := 0; ; n++ {
		select {
		case <-driver:
			if n >= reads {
				if torn > 0 {
					t.Errorf("%d of %d local answers were no committed state", torn, local)
				}
				if local == 0 {
					t.Errorf("none of %d answers was local", n)
				}
				return
			}
		default:
		}
		res, err := sess.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.LocalViews) == 0 {
			continue
		}
		local++
		if len(res.Rows) != 1 || !check(res.Rows[0]) {
			torn++
		}
	}
}

// TestOneViewIsOneCommittedState: every committed state of acct has one
// balance in every row, so a local MIN(bal) differs from MAX(bal) only if the
// read saw part of an UPDATE's record.
func TestOneViewIsOneCommittedState(t *testing.T) {
	sys := acctSystem(t, func(int64) int64 { return 0 },
		&catalog.View{Name: "acct_prj", BaseTable: "acct", Columns: []string{"id", "bal"}, RegionID: 1})
	stop := make(chan struct{})
	driver := driveUpdates(t, sys, "UPDATE acct SET bal = bal + 1 WHERE bal >= 0", 50, stop)
	readBeside(t, sys, "SELECT MIN(bal), MAX(bal) FROM acct CURRENCY 600 ON (acct)", 3000, driver, stop,
		func(r sqltypes.Row) bool { return r[0].Compare(r[1]) == 0 })
}

// swapHalves turns every balance b of acct into 3 - b: a transfer that keeps
// each pair of one row from either half summing to 3 in every committed
// state.
const swapHalves = "UPDATE acct SET bal = 3 - bal WHERE bal >= 0"

// sumOfHalves reads one row of each half of acct, each through its own view
// of region 1, and adds their balances. The two reads are two consistency
// classes, each under a guard of its own (as one class the planner ships the
// join remote): the query asks nothing of them together, but one agent keeps
// both views, so they are one state of the region all the same (DESIGN §2).
const sumOfHalves = "SELECT lo.bal + hi.bal FROM acct lo, acct hi WHERE lo.id = 1 AND hi.id = 3000 CURRENCY 600 ON (lo), 600 ON (hi)"

// halvesBal gives the low half balance 1 and the high half 2.
func halvesBal(id int64) int64 {
	if id <= acctRows/2 {
		return 1
	}
	return 2
}

// TestTwoViewsOfOneRegionAreOneState: two views of one region answer one
// query as of one committed state, so the transfer between the halves is
// conserved in every local answer.
func TestTwoViewsOfOneRegionAreOneState(t *testing.T) {
	sys := acctSystem(t, halvesBal, acctHalves()...)
	stop := make(chan struct{})
	driver := driveUpdates(t, sys, swapHalves, 50, stop)
	readBeside(t, sys, sumOfHalves, 1000, driver, stop,
		func(r sqltypes.Row) bool { return r[0].Compare(sqltypes.NewInt(3)) == 0 })
}

// TestAWaitInsideAQueryDoesNotSplitItsRegion is the one-goroutine case: a
// query that also reads a table with no view ships a remote query, and
// injected link latency passes simulated time through the coordinator, which
// runs the region's agent. A transfer committed just before each query
// applies during it. The planner builds the hash join's right side first, so
// one guarded view is read before the remote fetch and the other after it:
// without a check after the run, the answer joins two states of the region.
// Every answer, local or not, must be one committed state.
func TestAWaitInsideAQueryDoesNotSplitItsRegion(t *testing.T) {
	sys := acctSystem(t, halvesBal, acctHalves()...)
	sys.MustExec("CREATE TABLE other (id BIGINT NOT NULL PRIMARY KEY, v BIGINT NOT NULL)")
	sys.MustExec("INSERT INTO other VALUES (1, 0)")
	if err := sys.Analyze(); err != nil {
		t.Fatal(err)
	}
	inj := fault.New(1)
	inj.SetLatency(200*time.Millisecond, 0)
	sys.InjectFaults(inj)
	// Half the table's rows in the answer make shipping the whole join dearer
	// than the one remote query for other beside two guarded views.
	const query = "SELECT lo.bal + hi.bal + o.v FROM acct lo, other o, acct hi WHERE lo.id = 1 AND o.id = 1 AND hi.id > 1500 CURRENCY 600 ON (lo), 600 ON (hi)"
	sess := sys.Cache.NewSession()
	local := 0
	for i := 0; i < 20; i++ {
		if err := sys.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		sys.MustExec(swapHalves)
		before := sys.Cache.Agent(1).TransactionsApplied()
		res, err := sess.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		if sys.Cache.Agent(1).TransactionsApplied() == before {
			t.Fatalf("query %d: the agent applied nothing while it ran", i)
		}
		if len(res.LocalViews) > 0 {
			local++
		}
		for _, r := range res.Rows {
			if r[0].Compare(sqltypes.NewInt(3)) != 0 {
				t.Fatalf("query %d: answer %v from local views %v is no committed state (plan %s)", i, r, res.LocalViews, res.Plan)
			}
		}
	}
	t.Logf("%d of 20 answers were local", local)
}

// TestCoordinatorBesideABlockingSession: a replication driver drains the
// coordinator on one goroutine while a blocking session's guard waits pass
// simulated time through the same coordinator on another: the region's
// staleness runs from 2s to 12s, so the 5s guard often fails and waits. Run
// under -race.
func TestCoordinatorBesideABlockingSession(t *testing.T) {
	sys := regionSystem(t)
	if err := sys.Run(14 * time.Second); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := sys.Run(100 * time.Millisecond); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	sess := sys.Cache.NewSession()
	sess.Action = mtcache.ActionBlock
	for i := 0; i < 50; i++ {
		if _, err := sess.Query(guardedQuery); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
