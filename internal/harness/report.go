package harness

import (
	"fmt"
	"io"
	"time"

	"relaxedcc/internal/core"
	"relaxedcc/internal/tuner"
)

// RunAllOn regenerates every table and figure of the paper's evaluation in
// order against a caller-built system (NewSystem), writing the report to w;
// the caller keeps a handle on the system, e.g. to serve its ops HTTP
// endpoints during and after the run (rccbench -obs / -snapshot).
func RunAllOn(w io.Writer, cfg Config, sys *core.System) error {
	fmt.Fprintf(w, "Relaxed Currency & Consistency — experiment reproduction\n")
	fmt.Fprintf(w, "physical scale factor %.3f (%d customers, %d orders); stats scaled to paper: %v\n",
		cfg.ScaleFactor,
		int(150000*cfg.ScaleFactor), int(1500000*cfg.ScaleFactor),
		cfg.ScaleStatsToPaper)

	RunTable41(w, sys)
	if _, err := RunPlanChoice(w, sys); err != nil {
		return err
	}
	if err := RunWorkloadShift(w, 40); err != nil {
		return err
	}
	measured, err := RunGuardOverhead(w, sys, cfg.Reps)
	if err != nil {
		return err
	}
	RunGuardPhases(w, measured)
	if cfg.Extras {
		// Extension experiments beyond the paper's evaluation.
		if err := RunOffload(w, sys, 30); err != nil {
			return err
		}
		RunTuner(w)
	}
	if cfg.Metrics {
		if err := RunObservability(w, sys); err != nil {
			return err
		}
	}
	return nil
}

// RunTuner prints the region-tuner extension: recommended refresh intervals
// for a few workload shapes against the standard CR1 delay.
func RunTuner(w io.Writer) {
	section(w, "Region tuning from workload bound distributions (extension)")
	d := 5 * time.Second
	cases := []struct {
		name string
		wl   tuner.Workload
	}{
		{"uniform 30s bounds", tuner.Workload{
			QueriesPerSecond: 50,
			Bounds:           []tuner.BoundShare{{Bound: 30 * time.Second, Weight: 1}},
		}},
		{"mixed 10s/10min", tuner.Workload{
			QueriesPerSecond: 50,
			Bounds: []tuner.BoundShare{
				{Bound: 10 * time.Second, Weight: 0.5},
				{Bound: 10 * time.Minute, Weight: 0.5},
			},
		}},
		{"loose hourly reports", tuner.Workload{
			QueriesPerSecond: 2,
			Bounds:           []tuner.BoundShare{{Bound: time.Hour, Weight: 1}},
		}},
	}
	fmt.Fprintf(w, "%-24s %14s %10s %12s\n", "workload", "interval", "local %", "cost rate")
	for _, c := range cases {
		res, err := tuner.Tune(c.wl, tuner.Costs{RefreshCost: 10, RemotePenalty: 1}, d)
		if err != nil {
			fmt.Fprintf(w, "%-24s error: %v\n", c.name, err)
			continue
		}
		fmt.Fprintf(w, "%-24s %14s %9.1f%% %12.3f\n",
			c.name, res.Interval, res.LocalFraction*100, res.CostRate)
	}
}
