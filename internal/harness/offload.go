package harness

import (
	"fmt"
	"io"
	"time"

	"relaxedcc/internal/core"
	"relaxedcc/internal/tpcd"
)

// OffloadPoint is one row of the back-end offload experiment.
type OffloadPoint struct {
	Bound time.Duration
	// LocalFraction of queries answered without touching the back end.
	LocalFraction float64
	// BackendQueries actually shipped across the link.
	BackendQueries int64
	// BytesShipped across the link.
	BytesShipped int64
}

// MeasureOffload quantifies the paper's motivation — "to reduce the query
// load, we replicate part of the database to other database servers that
// act as caches" — by running the same point-lookup workload at increasing
// currency bounds and recording how much traffic still reaches the back
// end. Queries are spread across the CR1 propagation cycle.
func MeasureOffload(sys *core.System, bounds []time.Duration, queriesPerBound int) ([]OffloadPoint, error) {
	region := sys.Cache.Catalog().Region(tpcd.RegionCR1)
	if region == nil {
		return nil, fmt.Errorf("harness: system lacks the standard CR1 region")
	}
	sess := sys.Cache.NewSession()
	var out []OffloadPoint
	for _, b := range bounds {
		sys.Cache.Link().ResetStats()
		local := 0
		r := runner{sys: sys, arrivals: oncePerCycle(queriesPerBound, region.UpdateInterval),
			ask: func(k int) ask {
				return ask{Session: sess, SQL: tpcd.Query(tpcd.KindPoint, int64(1+k%100), b), Bound: b}
			},
			observe: func(s *serve) error {
				if !s.Remote {
					local++
				}
				return s.Err
			}}
		if err := r.run(); err != nil {
			return nil, err
		}
		st := sys.Cache.Link().Stats()
		out = append(out, OffloadPoint{
			Bound:          b,
			LocalFraction:  float64(local) / float64(queriesPerBound),
			BackendQueries: st.Queries,
			BytesShipped:   st.Bytes,
		})
	}
	return out, nil
}

// RunOffload prints the offload experiment.
func RunOffload(w io.Writer, sys *core.System, queriesPerBound int) error {
	section(w, "Back-end offload vs. currency bound (extension; CR1: f=15s, d=5s)")
	bounds := []time.Duration{
		0, 5 * time.Second, 10 * time.Second, 15 * time.Second,
		20 * time.Second, 30 * time.Second, 60 * time.Second,
	}
	pts, err := MeasureOffload(sys, bounds, queriesPerBound)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %10s %16s %14s\n", "bound", "local %", "backend queries", "bytes shipped")
	for _, p := range pts {
		fmt.Fprintf(w, "%-10s %9.1f%% %16d %14d\n",
			p.Bound, p.LocalFraction*100, p.BackendQueries, p.BytesShipped)
	}
	return nil
}
