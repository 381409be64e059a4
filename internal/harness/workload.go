package harness

import (
	"fmt"
	"io"
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/cc"
	"relaxedcc/internal/core"
	"relaxedcc/internal/sqltypes"
)

// WorkloadPoint is one point of a Figure 4.2 curve.
type WorkloadPoint struct {
	Bound    time.Duration
	Interval time.Duration
	Delay    time.Duration
	Analytic float64 // formula (1) from Section 3.2.4
	Measured float64 // fraction of sampled query starts that run locally
}

// measureStaleness builds a single-region system with the given propagation
// interval f and delay d and samples the region's staleness (now - local
// heartbeat timestamp) at n uniformly spread phases of the propagation
// cycle. The measured local fraction for a bound B is then the fraction of
// samples <= B — exactly the guard's decision rule.
func measureStaleness(f, d time.Duration, n int) ([]time.Duration, error) {
	sys := core.NewSystem()
	sys.MustExec("CREATE TABLE T (id BIGINT NOT NULL PRIMARY KEY, v BIGINT)")
	hb := f / 50
	if hb < 100*time.Millisecond {
		hb = 100 * time.Millisecond
	}
	if err := sys.AddRegion(&catalog.Region{
		ID: 1, Name: "R", UpdateInterval: f, UpdateDelay: d, HeartbeatInterval: hb,
	}); err != nil {
		return nil, err
	}
	if err := sys.CreateView(&catalog.View{
		Name: "t_prj", BaseTable: "T", Columns: []string{"id", "v"}, RegionID: 1,
	}); err != nil {
		return nil, err
	}
	if err := sys.Backend.LoadRows("T", []sqltypes.Row{{sqltypes.NewInt(1), sqltypes.NewInt(1)}}); err != nil {
		return nil, err
	}
	// Warm up: several full cycles (plus the delay) so heartbeats have
	// propagated even when the delay exceeds the interval.
	if err := sys.Run(3*f + 2*d + 2*time.Second); err != nil {
		return nil, err
	}
	start := sys.Clock.Now()
	samples := make([]time.Duration, 0, n)
	for k := 0; k < n; k++ {
		// One sample per cycle, sweeping the phase across the cycle.
		phase := time.Duration((float64(k) + 0.5) / float64(n) * float64(f))
		target := start.Add(time.Duration(k)*f + phase)
		if err := sys.RunTo(target); err != nil {
			return nil, err
		}
		ts, ok := sys.Cache.LastSync(1)
		if !ok {
			return nil, fmt.Errorf("harness: region never synchronized")
		}
		samples = append(samples, sys.Clock.Now().Sub(ts))
	}
	return samples, nil
}

func localFraction(samples []time.Duration, bound time.Duration) float64 {
	n := 0
	for _, s := range samples {
		if s <= bound {
			n++
		}
	}
	return float64(n) / float64(len(samples))
}

// WorkloadVsBound computes Figure 4.2(a): local workload fraction as the
// currency bound grows, for f=100s and each delay.
func WorkloadVsBound(delays []time.Duration, bounds []time.Duration, samples int) (map[time.Duration][]WorkloadPoint, error) {
	const f = 100 * time.Second
	out := map[time.Duration][]WorkloadPoint{}
	for _, d := range delays {
		st, err := measureStaleness(f, d, samples)
		if err != nil {
			return nil, err
		}
		for _, b := range bounds {
			out[d] = append(out[d], WorkloadPoint{
				Bound:    b,
				Interval: f,
				Delay:    d,
				Analytic: cc.LocalProbability(b, d, f),
				Measured: localFraction(st, b),
			})
		}
	}
	return out, nil
}

// WorkloadVsInterval computes Figure 4.2(b): local workload fraction as the
// refresh interval grows, for B=10s and each delay.
func WorkloadVsInterval(delays []time.Duration, intervals []time.Duration, samples int) (map[time.Duration][]WorkloadPoint, error) {
	const b = 10 * time.Second
	out := map[time.Duration][]WorkloadPoint{}
	for _, d := range delays {
		for _, f := range intervals {
			st, err := measureStaleness(f, d, samples)
			if err != nil {
				return nil, err
			}
			out[d] = append(out[d], WorkloadPoint{
				Bound:    b,
				Interval: f,
				Delay:    d,
				Analytic: cc.LocalProbability(b, d, f),
				Measured: localFraction(st, b),
			})
		}
	}
	return out, nil
}

// MeasureWorkloadByExecution cross-validates the staleness-sampling method
// with real query executions: it runs n point queries with the given bound,
// one per propagation cycle at sweeping phases, and counts how many were
// actually answered from the local view (by the currency guard's decision,
// not by staleness arithmetic).
func MeasureWorkloadByExecution(f, d, bound time.Duration, n int) (float64, error) {
	sys := core.NewSystem()
	sys.MustExec("CREATE TABLE T (id BIGINT NOT NULL PRIMARY KEY, v BIGINT)")
	hb := f / 50
	if hb < 100*time.Millisecond {
		hb = 100 * time.Millisecond
	}
	if err := sys.AddRegion(&catalog.Region{
		ID: 1, Name: "R", UpdateInterval: f, UpdateDelay: d, HeartbeatInterval: hb,
	}); err != nil {
		return 0, err
	}
	if err := sys.CreateView(&catalog.View{
		Name: "t_prj", BaseTable: "T", Columns: []string{"id", "v"}, RegionID: 1,
	}); err != nil {
		return 0, err
	}
	if err := sys.Backend.LoadRows("T", []sqltypes.Row{{sqltypes.NewInt(1), sqltypes.NewInt(1)}}); err != nil {
		return 0, err
	}
	if err := sys.Analyze(); err != nil {
		return 0, err
	}
	if err := sys.Run(3*f + 2*d + 2*time.Second); err != nil {
		return 0, err
	}
	q := fmt.Sprintf("SELECT v FROM T WHERE id = 1 CURRENCY %d MS ON (T)", bound.Milliseconds())
	start := sys.Clock.Now()
	local := 0
	for k := 0; k < n; k++ {
		phase := time.Duration((float64(k) + 0.5) / float64(n) * float64(f))
		if err := sys.RunTo(start.Add(time.Duration(k)*f + phase)); err != nil {
			return 0, err
		}
		res, err := sys.Query(q)
		if err != nil {
			return 0, err
		}
		if len(res.LocalViews) > 0 {
			local++
		}
	}
	return float64(local) / float64(n), nil
}

// RunWorkloadShift prints both panels of Figure 4.2.
func RunWorkloadShift(w io.Writer, samples int) error {
	section(w, "Figure 4.2(a): local workload % vs currency bound (f=100s)")
	delays := []time.Duration{1 * time.Second, 5 * time.Second, 10 * time.Second}
	var bounds []time.Duration
	for b := 0; b <= 120; b += 10 {
		bounds = append(bounds, time.Duration(b)*time.Second)
	}
	byBound, err := WorkloadVsBound(delays, bounds, samples)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s", "bound")
	for _, d := range delays {
		fmt.Fprintf(w, "  d=%-3.0fs(ana/meas)", d.Seconds())
	}
	fmt.Fprintln(w)
	for i := range bounds {
		fmt.Fprintf(w, "%-8.0f", bounds[i].Seconds())
		for _, d := range delays {
			p := byBound[d][i]
			fmt.Fprintf(w, "  %5.1f%% / %5.1f%%", p.Analytic*100, p.Measured*100)
		}
		fmt.Fprintln(w)
	}

	section(w, "Figure 4.2(b): local workload % vs refresh interval (B=10s)")
	delaysB := []time.Duration{1 * time.Second, 5 * time.Second, 8 * time.Second}
	var intervals []time.Duration
	for _, f := range []int{2, 5, 10, 20, 40, 60, 80, 100} {
		intervals = append(intervals, time.Duration(f)*time.Second)
	}
	byInterval, err := WorkloadVsInterval(delaysB, intervals, samples)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s", "interval")
	for _, d := range delaysB {
		fmt.Fprintf(w, "  d=%-3.0fs(ana/meas)", d.Seconds())
	}
	fmt.Fprintln(w)
	for i := range intervals {
		fmt.Fprintf(w, "%-10.0f", intervals[i].Seconds())
		for _, d := range delaysB {
			p := byInterval[d][i]
			fmt.Fprintf(w, "  %5.1f%% / %5.1f%%", p.Analytic*100, p.Measured*100)
		}
		fmt.Fprintln(w)
	}
	return nil
}
