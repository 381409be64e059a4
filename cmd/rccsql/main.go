// Command rccsql is a small interactive SQL shell against a loaded
// back-end + MTCache pair. Statements execute at the cache with full C&C
// enforcement; DML forwards to the back end.
//
//	go run ./cmd/rccsql [-sf 0.005]
//
// Meta commands:
//
//	\run <duration>   advance simulated time (heartbeats + replication)
//	\regions          show currency regions and their staleness
//	\stats            show remote-link traffic counters
//	\metrics          dump the cache's metrics registry
//	\trace            show the newest retained EXPLAIN ANALYZE trace
//	\tuner            show the autotuner's decision timeline (-autotune)
//	\plan <query>     show the chosen plan without executing
//	\q                quit
//
// EXPLAIN <query> prints the chosen plan; EXPLAIN ANALYZE <query> executes
// it and prints the annotated trace tree (per-node time and rows, guard
// verdicts, region staleness at decision time). With -obs ADDR the shell
// also serves the full ops surface over HTTP: /metrics, /queries/recent,
// /queries/{id}, /slo, /regions, /audit, /tuner and /debug/pprof/. With -autotune
// the closed-loop currency autotuner runs during \run advances, retuning
// refresh intervals from the observed workload.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"relaxedcc/internal/harness"
	"relaxedcc/internal/obs"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/tuner"
)

func main() {
	sf := flag.Float64("sf", 0.005, "physical TPC-D scale factor")
	obsAddr := flag.String("obs", "",
		"serve the ops HTTP surface (/metrics /queries/... /slo /regions /audit /tuner /debug/pprof/) on this address, with no auth: bind loopback (e.g. 127.0.0.1:8080)")
	autotune := flag.Bool("autotune", false,
		"enable the closed-loop currency autotuner; inspect it with \\tuner or /tuner")
	flag.Parse()

	fmt.Printf("loading TPC-D at scale %.3f (%d customers, %d orders)...\n",
		*sf, int(150000**sf), int(1500000**sf))
	sys, err := harness.NewSystem(harness.Config{ScaleFactor: *sf, Seed: 2004, ScaleStatsToPaper: false})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sess := sys.Cache.NewSession()
	epoch := sys.Clock.Now()
	if *autotune {
		sys.EnableAutotune(tuner.DefaultCadence)
		fmt.Println("closed-loop autotuning enabled; inspect with \\tuner")
	}
	if *obsAddr != "" {
		_, addr, err := obs.Serve(*obsAddr, sys.ObsHandler())
		if err != nil {
			fmt.Fprintln(os.Stderr, "obs:", err)
			os.Exit(1)
		}
		fmt.Printf("serving ops endpoints on http://%s/metrics (/queries/recent, /queries/{id}, /slo, /regions, /audit, /tuner, /debug/pprof/)\n", addr)
	}
	fmt.Println(`ready. tables: Customer, Orders; views: cust_prj (CR1), orders_prj (CR2).`)
	fmt.Println(`try: SELECT c_name FROM Customer WHERE c_custkey = 17 CURRENCY 60 ON (Customer)`)
	fmt.Println(`     EXPLAIN ANALYZE SELECT c_name FROM Customer WHERE c_custkey = 17 CURRENCY 60 ON (Customer)`)

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("rcc> ")
		if !scanner.Scan() {
			break
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		switch {
		case line == `\q` || line == "exit" || line == "quit":
			return
		case strings.HasPrefix(line, `\run `):
			d, err := time.ParseDuration(strings.TrimSpace(strings.TrimPrefix(line, `\run `)))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if err := sys.Run(d); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("advanced to t=%v\n", sys.Clock.Now().Format("15:04:05"))
		case line == `\regions`:
			now := sys.Clock.Now()
			for _, r := range sys.Cache.Catalog().Regions() {
				ts, ok := sys.Cache.LastSync(r.ID)
				stale := "never synced"
				if ok {
					stale = fmt.Sprintf("%v stale", now.Sub(ts))
				}
				interval := r.UpdateInterval
				if a := sys.Cache.Agent(r.ID); a != nil && a.Interval() != interval {
					// A live retune overrides the configured cadence.
					fmt.Printf("  CR%d %-16s interval=%v (configured %v) delay=%v  %s\n",
						r.ID, r.Name, a.Interval(), interval, r.UpdateDelay, stale)
					continue
				}
				fmt.Printf("  CR%d %-16s interval=%v delay=%v  %s\n",
					r.ID, r.Name, interval, r.UpdateDelay, stale)
			}
		case line == `\stats`:
			st := sys.Cache.Link().Stats()
			fmt.Printf("  remote queries=%d rows=%d bytes=%d\n", st.Queries, st.Rows, st.Bytes)
		case line == `\metrics`:
			sys.Cache.RefreshMetrics()
			sys.Cache.Obs().Snapshot().WriteText(os.Stdout)
		case line == `\trace`:
			recs := sys.Cache.Tracer().Recent()
			i := slices.IndexFunc(recs, func(r obs.QueryRecord) bool { return r.Trace != nil })
			if i < 0 {
				fmt.Println("  no trace retained; run EXPLAIN ANALYZE <query>")
				continue
			}
			rec := recs[i]
			fmt.Printf("-- query %d: %s\n", rec.QueryID, rec.SQL)
			rec.Trace.Render(os.Stdout)
		case line == `\tuner`:
			loop := sys.Tuner()
			if loop == nil {
				fmt.Println("  autotuning is off; restart with -autotune")
				continue
			}
			harness.RenderTuner(os.Stdout, loop.Snapshot(), epoch)
		case strings.HasPrefix(line, `\plan `):
			sql := strings.TrimPrefix(line, `\plan `)
			sel, err := sqlparser.ParseSelect(sql)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			plan, q, err := sys.Cache.Plan(sel, opt.Options{})
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("  constraint: %v\n  plan:       %s\n  est. cost:  %.3f ms\n  class:      %s\n",
				q.Constraint, plan.Shape, plan.Cost, harness.PlanLabel(plan))
		case strings.HasPrefix(line, `\`):
			fmt.Println("unknown meta command; try \\run 30s, \\regions, \\stats, \\metrics, \\trace, \\tuner, \\plan <q>, \\q")
		default:
			res, err := sess.Execute(line)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if res.Trace != nil {
				res.Trace.Render(os.Stdout)
				continue
			}
			if res.Explained {
				fmt.Printf("  plan: %s  (est. cost %.3f ms)\n", res.Plan.Shape, res.Plan.Cost)
				continue
			}
			if res.Plan != nil {
				src := "back end"
				if len(res.LocalViews) > 0 && res.RemoteQueries == 0 {
					src = "local views"
				} else if len(res.LocalViews) > 0 {
					src = "local views + back end"
				}
				fmt.Printf("-- plan: %s  (answered from %s)\n", res.Plan.Shape, src)
			}
			if res.Schema != nil && len(res.Schema.Cols) > 0 {
				fmt.Println("  " + strings.Join(res.Schema.ColumnNames(), " | "))
			}
			for i, row := range res.Rows {
				if i == 25 {
					fmt.Printf("  ... (%d rows)\n", len(res.Rows))
					break
				}
				vals := make([]string, len(row))
				for j, v := range row {
					vals[j] = v.Display()
				}
				fmt.Println("  " + strings.Join(vals, " | "))
			}
			if res.ServedStale {
				fmt.Println("  (warning: served stale local data)")
			}
		}
	}
}
