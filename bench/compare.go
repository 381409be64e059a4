package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	same       = "same"
	better     = "better"
	worse      = "worse"
	unresolved = "unresolved"
)

// judge compares B's runs with A's for one metric. The medians decide,
// against the metric's bound; when the run-to-run spread (the wider of the
// two interquartile ranges, as a share of A's median) exceeds the bound the
// medians cannot be trusted, and the verdict is unresolved unless every run
// of one side beats every run of the other.
func judge(spec metricSpec, a, b []float64) (verdict string, spread float64) {
	ma, mb := median(a), median(b)
	sign := 1.0
	if spec.Better == higher {
		sign = -1
	}
	// delta > 0 means B is worse, as a share of A's median.
	delta := ratio(sign*(mb-ma), math.Abs(ma))
	a1, a3 := quartiles(a)
	b1, b3 := quartiles(b)
	spread = ratio(max(a3-a1, b3-b1), math.Abs(ma))

	aLo, aHi := minMax(a)
	bLo, bHi := minMax(b)
	allWorse, allBetter := bLo > aHi, bHi < aLo
	if spec.Better == higher {
		allWorse, allBetter = bHi < aLo, bLo > aHi
	}
	switch {
	case spread > spec.Bound:
		switch {
		case allBetter:
			return better, spread
		case allWorse && delta > spec.Bound:
			return worse, spread
		default:
			return unresolved, spread
		}
	case delta > spec.Bound:
		return worse, spread
	case delta < 0 && -delta > spread && allBetter:
		return better, spread
	default:
		return same, spread
	}
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the change, the bound and a verdict, and returns 1 if any metric is worse
// (or a workload or metric of A is missing from B).
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readResult(pathA)
	b, errB := readResult(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	return compareResults(a, b, stdout)
}

func compareResults(a, b *resultFile, stdout io.Writer) int {
	code := 0
	fmt.Fprintf(stdout, "%-11s %-18s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil {
			continue
		}
		if wb == nil {
			fmt.Fprintf(stdout, "%-11s missing from B\n", w.name)
			code = 1
			continue
		}
		if wb.Failed > wa.Failed || (wa.Correct && !wb.Correct) {
			fmt.Fprintf(stdout, "%-11s %-18s %14d %14d %44s\n", w.name, "failed", wa.Failed, wb.Failed, worse)
			code = 1
		}
		for _, s := range compared {
			va, vb := wa.EndToEnd[s.Name], wb.EndToEnd[s.Name]
			if median(va) == 0 { // not measured, or a zeroable metric this workload does not have
				continue
			}
			if len(vb) == 0 {
				fmt.Fprintf(stdout, "%-11s %-18s missing from B\n", w.name, s.Name)
				code = 1
				continue
			}
			verdict, spread := judge(s, va, vb)
			// Show the change in the metric's own direction: + is more.
			change := ratio(median(vb)-median(va), math.Abs(median(va)))
			fmt.Fprintf(stdout, "%-11s %-18s %14.4f %14.4f %+8.2f%% %7.2f%% %7.2f%%  %s\n",
				w.name, s.Name, median(va), median(vb), change*100, spread*100, s.Bound*100, verdict)
			if verdict == worse {
				code = 1
			}
		}
	}
	return code
}
