package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) does (the driver's spread measure).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(len(s)+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median; 0 for
// fewer than two values, which cannot show one.
func spread(xs []float64) float64 {
	if len(xs) < 2 || median(xs) == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

func loadSummary(path string) (map[string]map[string][]float64, map[string]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var s Summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	vals := make(map[string]map[string][]float64)
	failed := make(map[string]int64)
	for _, r := range s.Results {
		if r.Traced {
			continue
		}
		if vals[r.Workload] == nil {
			vals[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], v.Value)
		}
		failed[r.Workload] += r.Failed
	}
	return vals, failed, nil
}

// Compare prints, per workload and end-to-end metric, the medians of two
// summary files, their ratio with its base, the bound, and a verdict:
// worse (B's median is worse than A's by more than the bound), unresolved
// (either side's run-to-run spread is wider than the bound, so the
// comparison cannot tell), or ok. Any failed operation in B is worse too.
// It returns an error when some row is worse.
func Compare(w io.Writer, pathA, pathB string) error {
	a, _, err := loadSummary(pathA)
	if err != nil {
		return err
	}
	b, failedB, err := loadSummary(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %9s %6s %7s %s\n", "workload", "metric", "A (base)", "B", "B/A", "bound", "spread", "verdict")
	worse := 0
	for _, wl := range Workloads {
		if a[wl.Name] == nil || b[wl.Name] == nil {
			continue
		}
		for _, m := range EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := (mb - ma) / ma // share of the base by which B is worse
			if m.Better == "higher" {
				change = -change
			}
			sp := math.Max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case sp > m.Bound:
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(w, "%-14s %-20s %14.6g %14.6g %9.4f %6.2f %7.4f %s (n=%d,%d)\n",
				wl.Name, m.Name, ma, mb, mb/ma, m.Bound, sp, verdict, len(va), len(vb))
		}
		if failedB[wl.Name] > 0 {
			fmt.Fprintf(w, "%-14s %-20s %d failed operations in B: worse\n", wl.Name, "fail_ratio", failedB[wl.Name])
			worse++
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d rows worse than their bound", worse)
	}
	return nil
}
