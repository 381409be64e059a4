package core_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/core"
	"relaxedcc/internal/tpcd"
)

// TestAnalyzeFromTwoGoroutines runs ANALYZE from two goroutines at once. Each
// call publishes fresh back-end statistics and copies them into the cache's
// shadow catalog and its views; under -race, a copy that reads a
// TableStats's column map outside its lock is reported.
func TestAnalyzeFromTwoGoroutines(t *testing.T) {
	sys, err := tpcd.NewLoadedSystem(tpcd.Config{ScaleFactor: 0.002, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { auditClean(t, sys) })
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 40 {
				if err := sys.Analyze(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentQueriesUpdatesAndReplication hammers the system from
// multiple goroutines — readers with mixed bounds, writers, and a
// replication driver advancing virtual time — to exercise the locking in
// storage, catalogs, the heartbeat table and the remote link. Run under
// -race this validates the concurrency claims of the storage and cache
// layers.
func TestConcurrentQueriesUpdatesAndReplication(t *testing.T) {
	sys := core.NewSystem()
	t.Cleanup(func() { auditClean(t, sys) })
	sys.MustExec("CREATE TABLE acct (id BIGINT NOT NULL PRIMARY KEY, bal BIGINT NOT NULL)")
	for i := 1; i <= 50; i++ {
		sys.MustExec(fmt.Sprintf("INSERT INTO acct VALUES (%d, %d)", i, i))
	}
	sys.Analyze()
	if err := sys.AddRegion(&catalog.Region{
		ID: 1, Name: "R", UpdateInterval: 2 * time.Second, UpdateDelay: 500 * time.Millisecond,
		HeartbeatInterval: 500 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateView(&catalog.View{
		Name: "acct_prj", BaseTable: "acct", Columns: []string{"id", "bal"}, RegionID: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}

	const readers = 4
	const writers = 2
	const opsPerWorker = 150
	var wg sync.WaitGroup
	var failures atomic.Int64
	var localAnswers atomic.Int64
	stopDriver := make(chan struct{})
	driverDone := make(chan struct{})

	// Replication driver: advances virtual time continuously.
	go func() {
		defer close(driverDone)
		for {
			select {
			case <-stopDriver:
				return
			default:
			}
			if err := sys.Run(100 * time.Millisecond); err != nil {
				failures.Add(1)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			sess := sys.Cache.NewSession()
			for i := 0; i < opsPerWorker; i++ {
				id := 1 + rng.Intn(50)
				clause := ""
				if rng.Intn(2) == 0 {
					clause = fmt.Sprintf(" CURRENCY %d MS ON (acct)", 500+rng.Intn(10000))
				}
				res, err := sess.Query(fmt.Sprintf("SELECT bal FROM acct WHERE id = %d%s", id, clause))
				if err != nil {
					t.Errorf("reader: %v", err)
					failures.Add(1)
					return
				}
				if len(res.Rows) != 1 {
					t.Errorf("reader: %d rows for id %d", len(res.Rows), id)
					failures.Add(1)
					return
				}
				if len(res.LocalViews) > 0 {
					localAnswers.Add(1)
				}
			}
		}(int64(r + 1))
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerWorker; i++ {
				id := 1 + rng.Intn(50)
				if _, err := sys.Exec(fmt.Sprintf("UPDATE acct SET bal = bal + 1 WHERE id = %d", id)); err != nil {
					t.Errorf("writer: %v", err)
					failures.Add(1)
					return
				}
			}
		}(int64(100 + w))
	}
	wg.Wait()
	close(stopDriver)
	<-driverDone
	if failures.Load() > 0 {
		t.Fatalf("%d failures", failures.Load())
	}
	if localAnswers.Load() == 0 {
		t.Log("note: no query was answered locally this run")
	}
	// After quiescing, the view converges to the master.
	if err := sys.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	back, err := sys.QueryBackend("SELECT id, bal FROM acct")
	if err != nil {
		t.Fatal(err)
	}
	view := sys.Cache.ViewData("acct_prj")
	if view.Len() != len(back.Rows) {
		t.Fatalf("view rows %d vs master %d", view.Len(), len(back.Rows))
	}
}
