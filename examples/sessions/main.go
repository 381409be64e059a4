// Sessions: timeline consistency (the paper's BEGIN/END TIMEORDERED,
// Section 2.3) and violation actions when the back end is unreachable.
//
// Without timeline consistency a user may not see their own committed
// change: a later relaxed query can legally read an older replica. Inside a
// TIMEORDERED bracket, time always moves forward — later statements never
// use data older than what earlier statements observed.
//
//	go run ./examples/sessions
package main

import (
	"fmt"
	"log"
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/core"
	"relaxedcc/internal/fault"
	"relaxedcc/internal/mtcache"
)

func main() {
	sys := core.NewSystem()
	sys.MustExec(`CREATE TABLE Accounts (
		a_id BIGINT NOT NULL PRIMARY KEY,
		a_owner VARCHAR(30) NOT NULL,
		a_balance DOUBLE NOT NULL)`)
	sys.MustExec("INSERT INTO Accounts VALUES (1, 'alice', 100.0), (2, 'bob', 250.0)")
	sys.Analyze()
	if err := sys.AddRegion(&catalog.Region{
		ID: 1, Name: "accounts-region",
		UpdateInterval:    20 * time.Second,
		UpdateDelay:       2 * time.Second,
		HeartbeatInterval: time.Second,
	}); err != nil {
		log.Fatal(err)
	}
	if err := sys.CreateView(&catalog.View{
		Name: "accounts_prj", BaseTable: "Accounts",
		Columns: []string{"a_id", "a_owner", "a_balance"}, RegionID: 1,
	}); err != nil {
		log.Fatal(err)
	}
	if err := sys.Run(25 * time.Second); err != nil {
		log.Fatal(err)
	}

	sess := sys.Cache.NewSession()
	run := func(sql string) *mtcache.QueryResult {
		res, err := sess.Execute(sql)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	balanceQuery := "SELECT a_balance FROM Accounts WHERE a_id = 1 CURRENCY 300 ON (Accounts)"

	fmt.Println("== Without TIMEORDERED: a relaxed read may miss your own write ==")
	run("UPDATE Accounts SET a_balance = 500.0 WHERE a_id = 1")
	res := run(balanceQuery)
	fmt.Printf("relaxed read after commit: balance = %v (from %s)\n",
		res.Rows[0][0], source(res))

	fmt.Println("\n== Inside TIMEORDERED: time moves forward ==")
	run("BEGIN TIMEORDERED")
	// A current read (no clause) raises the session's floor to 'now'.
	res = run("SELECT a_balance FROM Accounts WHERE a_id = 1")
	fmt.Printf("current read: balance = %v (floor raised to query time)\n", res.Rows[0][0])
	// The same relaxed query can no longer use the older replica.
	res = run(balanceQuery)
	fmt.Printf("relaxed read under the bracket: balance = %v (from %s)\n",
		res.Rows[0][0], source(res))
	run("END TIMEORDERED")

	fmt.Println("\n== After replication catches up, relaxed reads return to the cache ==")
	if err := sys.Run(25 * time.Second); err != nil {
		log.Fatal(err)
	}
	res = run(balanceQuery)
	fmt.Printf("relaxed read: balance = %v (from %s)\n", res.Rows[0][0], source(res))

	fmt.Println("\n== Violation actions: the back end goes down ==")
	inj := fault.New(1)
	sys.InjectFaults(inj)
	inj.SetPartitioned(true)
	strict := "SELECT a_balance FROM Accounts WHERE a_id = 1"
	if _, err := sess.Execute(strict); err != nil {
		fmt.Printf("default action (error): %v\n", err)
	}
	sess.Action = mtcache.ActionServeStale
	res = run(strict)
	fmt.Printf("serve-stale action: balance = %v (served stale: %v)\n",
		res.Rows[0][0], res.ServedStale)
}

func source(res *mtcache.QueryResult) string {
	if len(res.LocalViews) > 0 {
		return "local view"
	}
	return "back end"
}
