// Package harness regenerates the paper's evaluation (Section 4): every
// table and figure has a runner that prints the same rows or series the
// paper reports.
//
// Scale note: the paper ran TPC-D scale 1.0 (150,000 customers, 1,500,000
// orders) on a 2004 SQL Server testbed. The harness loads a physically
// smaller database but scales the cache's *shadow statistics* up to the
// paper's cardinalities, so the optimizer faces exactly the paper's
// cost-model decisions while execution stays laptop-sized. Absolute times
// therefore differ; plan choices, crossovers and curve shapes are the
// reproduction targets.
package harness

import (
	"fmt"
	"io"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/core"
	"relaxedcc/internal/opt"
	"relaxedcc/internal/tpcd"
)

// Config tunes experiment scale and effort.
type Config struct {
	// ScaleFactor is the physical TPC-D scale (1.0 = paper size).
	ScaleFactor float64
	// Seed for data generation.
	Seed int64
	// Reps is how many times timed queries are executed per measurement.
	Reps int
	// ScaleStatsToPaper scales shadow statistics to the paper's scale-1.0
	// cardinalities so optimizer decisions match the paper's setting.
	ScaleStatsToPaper bool
	// Extras also runs the extension experiments (offload, region tuning)
	// beyond the paper's tables and figures.
	Extras bool
	// Metrics appends a snapshot of the cache's metrics registry (guard
	// picks, staleness gauges, replication throughput) to the report.
	Metrics bool
}

// DefaultConfig is sized for a laptop run of every experiment.
func DefaultConfig() Config {
	return Config{ScaleFactor: 0.02, Seed: 2004, Reps: 200, ScaleStatsToPaper: true}
}

// NewSystem builds the standard experimental system for the config.
func NewSystem(cfg Config) (*core.System, error) {
	sys, err := tpcd.NewLoadedSystem(tpcd.Config{ScaleFactor: cfg.ScaleFactor, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	if cfg.ScaleStatsToPaper {
		ScaleStatsToPaper(sys, cfg.ScaleFactor)
	}
	return sys, nil
}

// ScaleStatsToPaper multiplies the cache's shadow statistics so the
// optimizer sees the paper's scale-1.0 cardinalities regardless of the
// physically loaded scale.
func ScaleStatsToPaper(sys *core.System, physicalScale float64) {
	if physicalScale <= 0 || physicalScale == 1.0 {
		return
	}
	factor := 1.0 / physicalScale
	cat := sys.Cache.Catalog()
	for _, name := range []string{"Customer", "Orders"} {
		t := cat.Table(name)
		if t == nil {
			continue
		}
		scaleTableStats(t.Stats, factor)
		for _, v := range cat.ViewsOf(name) {
			if vd := sys.Cache.ViewData(v.Name); vd != nil {
				scaleTableStats(vd.Def().Stats, factor)
			}
		}
	}
}

func scaleTableStats(s *catalog.TableStats, factor float64) {
	cp := s.Clone()
	rows := int64(float64(cp.Rows()) * factor)
	for _, cs := range cp.Columns {
		if cs.NDV > 32 { // low-cardinality columns (e.g. nation) do not grow
			cs.NDV = min(int64(float64(cs.NDV)*factor), rows)
		}
		cs.NullCount = int64(float64(cs.NullCount) * factor)
		for i, h := range cs.Histogram {
			cs.Histogram[i] = int64(float64(h) * factor)
		}
	}
	s.Set(rows, cp.RowBytes(), cp.Columns)
}

// PlanNumber classifies a plan into the paper's Figure 4.1 plan numbers:
// 1 = whole query remote; 2 = local join of remote fetches; 4 = mixed
// (some leaves local, some remote); 5 = all leaves local (guarded).
// Single-table guarded-local plans report 5 as well.
func PlanNumber(p *opt.Plan) int {
	switch {
	case p.Shape == "Remote":
		return 1
	case p.LocalLeaves == 0:
		return 2
	case p.RemoteLeaves > 0:
		return 4
	default:
		return 5
	}
}

// PlanLabel renders the paper-style plan description.
func PlanLabel(p *opt.Plan) string {
	return fmt.Sprintf("plan %d: %s", PlanNumber(p), p.Shape)
}

// section prints a table header.
func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
