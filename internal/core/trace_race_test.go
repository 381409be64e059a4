package core_test

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"relaxedcc/internal/audit"
	"relaxedcc/internal/catalog"
	"relaxedcc/internal/core"
	"relaxedcc/internal/obs"
)

// TestTraceEndpointsUnderQueryMix hammers the ops HTTP surface — above all
// /queries/recent and /queries/{id}, whose records carry EXPLAIN ANALYZE
// trees — while sessions run an EXPLAIN ANALYZE / query mix and replication
// advances. Run under -race this pins the copy-on-finish publication
// contract: readers must never observe a trace node the executor is still
// mutating, nor a read event the auditor is folding.
func TestTraceEndpointsUnderQueryMix(t *testing.T) {
	sys := core.NewSystem()
	sys.MustExec("CREATE TABLE acct (id BIGINT NOT NULL PRIMARY KEY, bal BIGINT NOT NULL)")
	for i := 1; i <= 40; i++ {
		sys.MustExec(fmt.Sprintf("INSERT INTO acct VALUES (%d, %d)", i, i))
	}
	sys.Analyze()
	if err := sys.AddRegion(&catalog.Region{
		ID: 1, Name: "R", UpdateInterval: time.Second, UpdateDelay: 200 * time.Millisecond,
		HeartbeatInterval: 500 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateView(&catalog.View{
		Name: "acct_prj", BaseTable: "acct", Columns: []string{"id", "bal"}, RegionID: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	handler := sys.ObsHandler()
	urls := []string{"/queries/recent?limit=8", "/metrics", "/slo", "/regions"}

	const queriers = 3
	const scrapers = 3
	const opsPerWorker = 60
	var qwg, swg sync.WaitGroup
	looked, lookedOnce := make(chan struct{}), sync.Once{}
	stop := make(chan struct{})

	for q := 0; q < queriers; q++ {
		qwg.Add(1)
		go func(worker int) {
			defer qwg.Done()
			sess := sys.Cache.NewSession()
			for i := 0; i < opsPerWorker; i++ {
				id := 1 + (worker*opsPerWorker+i)%40
				sql := fmt.Sprintf("SELECT bal FROM acct WHERE id = %d CURRENCY 30000 MS ON (acct)", id)
				var err error
				if i%2 == 0 {
					_, err = sess.ExplainAnalyze(sql)
				} else {
					_, err = sess.Query(sql)
				}
				if err != nil {
					t.Errorf("querier %d: %v", worker, err)
					return
				}
			}
		}(q)
	}
	for s := 0; s < scrapers; s++ {
		swg.Add(1)
		go func(worker int) {
			defer swg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				url := urls[(worker+i)%len(urls)]
				rr := httptest.NewRecorder()
				handler.ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
				if rr.Code != 200 {
					t.Errorf("GET %s = %d: %s", url, rr.Code, rr.Body.String())
					return
				}
				if url != urls[0] {
					continue
				}
				// Every retained record is found by its id, its trace and
				// its reads with it.
				var recent struct{ Queries []obs.QueryRecord }
				if err := json.Unmarshal(rr.Body.Bytes(), &recent); err != nil {
					t.Errorf("GET %s: %v", url, err)
					return
				}
				for _, rec := range recent.Queries {
					url := fmt.Sprintf("/queries/%d", rec.QueryID)
					rr := httptest.NewRecorder()
					handler.ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
					var one struct {
						Record *obs.QueryRecord
						Reads  *audit.QueryAudit
					}
					if err := json.Unmarshal(rr.Body.Bytes(), &one); rr.Code != 200 || err != nil ||
						one.Record == nil || one.Record.QueryID != rec.QueryID || one.Reads == nil || len(one.Reads.Events) != 1 {
						t.Errorf("GET %s = %d (%v): %s", url, rr.Code, err, rr.Body.String())
						return
					}
					lookedOnce.Do(func() { close(looked) })
				}
			}
		}(s)
	}
	// Replication driver alongside the mix.
	swg.Add(1)
	go func() {
		defer swg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := sys.Run(50 * time.Millisecond); err != nil {
				return
			}
		}
	}()

	qwg.Wait()
	// The queries can end before a scraper's first /queries/recent: scrape
	// on until one record has been looked up by its id.
	select {
	case <-looked:
	case <-time.After(10 * time.Second):
		t.Error("no record was looked up by its id")
	}
	close(stop)
	swg.Wait()
}
