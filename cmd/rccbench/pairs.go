package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"relaxedcc/internal/harness"
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
// end-to-end metric, the columns of pairRow; then those of ns/op and
// allocs/op per benchmark of the paired `go test -bench` transcripts in
// dir/gotest (foldBenchPairs).
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
		runs, err := readPairs(filepath.Join(dir, wl.Name), "json", func(raw []byte) (line benchLine, err error) {
			return line, json.Unmarshal(raw, &line)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		if len(runs[0]) == 0 {
			continue
		}
		for _, m := range c.EndToEnd {
			var vals [2][]float64
			for side := range runs {
				for _, r := range runs[side] {
					vals[side] = append(vals[side], r.Metrics[m.Name].Value)
				}
			}
			pairRow(w, 11, wl.Name, m.Name, vals, m.Better == "higher")
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
	return foldBenchPairs(w, filepath.Join(dir, "gotest"))
}

// foldBenchPairs reads the paired `go test -bench` transcripts in dir
// (base-I.txt, change-I.txt), each with harness.ReadBenchText, and prints
// the columns of pairRow for ns/op and allocs/op of every benchmark both
// sides ran in every pair, lower being better.
func foldBenchPairs(w io.Writer, dir string) error {
	runs, err := readPairs(dir, "txt", func(raw []byte) ([]harness.BenchRow, error) { return harness.ReadBenchText(string(raw)) })
	if err != nil || len(runs[0]) == 0 {
		return err
	}
	fmt.Fprintf(w, "%-44s %-18s %14s %14s %9s %9s %6s\n", "benchmark", "column", "base", "change", "change", "base IQR", "wins")
	for _, r := range runs[1][0] {
		var ns, allocs [2][]float64
		for side := range runs {
			for _, rows := range runs[side] {
				if i := slices.IndexFunc(rows, func(b harness.BenchRow) bool { return b.Name == r.Name }); i >= 0 && rows[i].AllocsOp != nil {
					ns[side], allocs[side] = append(ns[side], rows[i].NsOp), append(allocs[side], *rows[i].AllocsOp)
				}
			}
		}
		if len(ns[0]) == len(runs[0]) && len(ns[1]) == len(runs[1]) {
			pairRow(w, 44, r.Name, "ns_op", ns, false)
			pairRow(w, 44, r.Name, "allocs_op", allocs, false)
		}
	}
	return nil
}

// readPairs parses dir/base-I.ext and dir/change-I.ext for I = 1, 2, ...
// up to the first missing one; both sides must have as many.
func readPairs[T any](dir, ext string, parse func([]byte) (T, error)) ([2][]T, error) {
	var runs [2][]T
	for side, name := range []string{"base", "change"} {
		for i := 1; ; i++ {
			raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s-%d.%s", name, i, ext)))
			if os.IsNotExist(err) {
				break
			}
			var run T
			if err == nil {
				run, err = parse(raw)
			}
			if err != nil {
				return runs, fmt.Errorf("%s run %d: %w", name, i, err)
			}
			runs[side] = append(runs[side], run)
		}
	}
	if len(runs[0]) != len(runs[1]) {
		return runs, fmt.Errorf("%d base runs, %d change runs", len(runs[0]), len(runs[1]))
	}
	return runs, nil
}

// pairRow prints one metric of the pairs (vals[0] the base runs, vals[1]
// the change's, pair by pair) under a name of the given width: both
// medians, the change as a share of the base median, the base runs'
// interquartile range as the same share, and the pairs the change won
// (strictly better than its pair's base run).
func pairRow(w io.Writer, width int, name, metric string, vals [2][]float64, higher bool) {
	wins := 0
	for i, b := range vals[0] {
		if ch := vals[1][i]; (higher && ch > b) || (!higher && ch < b) {
			wins++
		}
	}
	mb, mc := median(vals[0]), median(vals[1])
	q1, q3 := quartiles(vals[0])
	fmt.Fprintf(w, "%-*s %-18s %14.6g %14.6g %+8.2f%% %8.2f%% %3d/%d\n",
		width, name, metric, mb, mc, share(mc-mb, mb), share(q3-q1, mb), wins, len(vals[0]))
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
