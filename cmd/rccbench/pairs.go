package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// contract is what -pairs reads of BENCHMARK.json: the workloads and the
// end-to-end metrics, each with the direction that is better.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// benchLine is the last line of a single-workload `go run ./bench` run.
type benchLine struct {
	Failed  int `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// foldPairs reads the paired runs scripts/pairs.sh leaves in dir —
// dir/WORKLOAD/base-I.json and dir/WORKLOAD/change-I.json, pair I's result
// line of each side — and prints, per workload of the contract and
// end-to-end metric, both sides' medians, the change as a share of the base
// median, the base runs' interquartile range as the same share, and the
// pairs the change won (strictly better than its pair's base run).
func foldPairs(w io.Writer, dir, contractPath string) error {
	raw, err := os.ReadFile(contractPath)
	if err != nil {
		return err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return fmt.Errorf("%s: %w", contractPath, err)
	}
	fmt.Fprintf(w, "%-11s %-18s %14s %14s %9s %9s %6s\n", "workload", "metric", "base", "change", "change", "base IQR", "wins")
	for _, wl := range c.Workloads {
		var runs [2][]benchLine // base, change: pair i at index i
		for side, name := range []string{"base", "change"} {
			for i := 1; ; i++ {
				raw, err := os.ReadFile(filepath.Join(dir, wl.Name, fmt.Sprintf("%s-%d.json", name, i)))
				if os.IsNotExist(err) {
					break
				}
				var line benchLine
				if err == nil {
					err = json.Unmarshal(raw, &line)
				}
				if err != nil {
					return fmt.Errorf("%s %s run %d: %w", wl.Name, name, i, err)
				}
				runs[side] = append(runs[side], line)
			}
		}
		n := len(runs[0])
		if n == 0 {
			continue
		}
		if len(runs[1]) != n {
			return fmt.Errorf("%s: %d base runs, %d change runs", wl.Name, n, len(runs[1]))
		}
		for _, m := range c.EndToEnd {
			var vals [2][]float64
			wins := 0
			for i := 0; i < n; i++ {
				b, ch := runs[0][i].Metrics[m.Name].Value, runs[1][i].Metrics[m.Name].Value
				vals[0], vals[1] = append(vals[0], b), append(vals[1], ch)
				if (m.Better == "higher" && ch > b) || (m.Better == "lower" && ch < b) {
					wins++
				}
			}
			mb, mc := median(vals[0]), median(vals[1])
			q1, q3 := quartiles(vals[0])
			fmt.Fprintf(w, "%-11s %-18s %14.6g %14.6g %+8.2f%% %8.2f%% %3d/%d\n",
				wl.Name, m.Name, mb, mc, share(mc-mb, mb), share(q3-q1, mb), wins, n)
		}
		for side, name := range []string{"base", "change"} {
			failed := 0
			for _, r := range runs[side] {
				failed += r.Failed
			}
			if failed > 0 {
				fmt.Fprintf(w, "%-11s %s runs failed %d ops\n", wl.Name, name, failed)
			}
		}
	}
	return nil
}

// median of a sample (the mean of the middle two when it is even).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// quartiles are the first and third quartiles by the exclusive method of
// Python's statistics.quantiles(xs, n=4), as `bench -compare` takes them,
// so a spread printed here is the one it prints.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// share is d as a percentage of base's magnitude.
func share(d, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * d / math.Abs(base)
}
