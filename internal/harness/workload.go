package harness

import (
	"fmt"
	"io"
	"time"

	"relaxedcc/internal/cc"
)

// WorkloadPoint is one point of a Figure 4.2 curve.
type WorkloadPoint struct {
	Bound    time.Duration
	Interval time.Duration
	Delay    time.Duration
	Analytic float64 // formula (1) from Section 3.2.4
	Measured float64 // fraction of sampled query starts that run locally
}

// sweepCycle builds a single-region system with propagation interval f and
// delay d and asks the point query under bound n times, one arrival per
// propagation cycle at a sweeping phase, handing each serve to observe.
func sweepCycle(f, d, bound time.Duration, n int, observe func(*serve) error) error {
	sys, err := newSingleRegion(f, d, max(f/50, 100*time.Millisecond))
	if err != nil {
		return err
	}
	// Warm up: several full cycles (plus the delay) so heartbeats have
	// propagated even when the delay exceeds the interval.
	if err := sys.Run(3*f + 2*d + 2*time.Second); err != nil {
		return err
	}
	q := ask{Session: sys.Cache.NewSession(), SQL: pointQuery(bound), Bound: bound}
	r := runner{sys: sys, arrivals: oncePerCycle(n, f), ask: func(int) ask { return q }, observe: observe}
	return r.run()
}

// alwaysLocal is a bound no staleness of these experiments reaches: a query
// under it is answered by the view, and its serve reads the region's
// staleness.
const alwaysLocal = 24 * time.Hour

// measureStaleness samples the region's staleness (now - local heartbeat
// timestamp) at n uniformly spread phases of the propagation cycle. The
// measured local fraction for a bound B is then the fraction of samples <= B
// — exactly the guard's decision rule.
func measureStaleness(f, d time.Duration, n int) ([]time.Duration, error) {
	samples := make([]time.Duration, 0, n)
	err := sweepCycle(f, d, alwaysLocal, n, func(s *serve) error {
		if s.Err != nil {
			return s.Err
		}
		if !s.Local {
			return fmt.Errorf("harness: region never synchronized")
		}
		samples = append(samples, s.Staleness)
		return nil
	})
	return samples, err
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

// workloadPoint sets formula (1) beside the measured fraction of staleness
// samples st, taken at interval f and delay d, that fit bound b.
func workloadPoint(b, f, d time.Duration, st []time.Duration) WorkloadPoint {
	return WorkloadPoint{Bound: b, Interval: f, Delay: d,
		Analytic: cc.LocalProbability(b, d, f), Measured: localFraction(st, b)}
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
			out[d] = append(out[d], workloadPoint(b, f, d, st))
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
			out[d] = append(out[d], workloadPoint(b, f, d, st))
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
	local := 0
	err := sweepCycle(f, d, bound, n, func(s *serve) error {
		if s.Local {
			local++
		}
		return s.Err
	})
	return float64(local) / float64(n), err
}

// RunWorkloadShift prints both panels of Figure 4.2.
func RunWorkloadShift(w io.Writer, samples int) error {
	seconds := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Second
		}
		return out
	}
	// panel prints one curve per delay: a row per x, formula / measured.
	panel := func(width int, label string, xs, delays []time.Duration, series map[time.Duration][]WorkloadPoint) {
		fmt.Fprintf(w, "%-*s", width, label)
		for _, d := range delays {
			fmt.Fprintf(w, "  d=%-3.0fs(ana/meas)", d.Seconds())
		}
		fmt.Fprintln(w)
		for i, x := range xs {
			fmt.Fprintf(w, "%-*.0f", width, x.Seconds())
			for _, d := range delays {
				fmt.Fprintf(w, "  %5.1f%% / %5.1f%%", series[d][i].Analytic*100, series[d][i].Measured*100)
			}
			fmt.Fprintln(w)
		}
	}

	section(w, "Figure 4.2(a): local workload % vs currency bound (f=100s)")
	delays, bounds := seconds(1, 5, 10), seconds(0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120)
	byBound, err := WorkloadVsBound(delays, bounds, samples)
	if err != nil {
		return err
	}
	panel(8, "bound", bounds, delays, byBound)

	section(w, "Figure 4.2(b): local workload % vs refresh interval (B=10s)")
	delays, intervals := seconds(1, 5, 8), seconds(2, 5, 10, 20, 40, 60, 80, 100)
	byInterval, err := WorkloadVsInterval(delays, intervals, samples)
	if err != nil {
		return err
	}
	panel(10, "interval", intervals, delays, byInterval)
	return nil
}
