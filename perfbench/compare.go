package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// resultFile is the part of a results file the comparison needs.
type resultFile struct {
	Workload string            `json:"workload"`
	Trace    bool              `json:"trace"`
	Metrics  map[string]metric `json:"metrics"`
	Machine  map[string]any    `json:"machine"`
}

// resultSet maps "workload/mode" → metric → values, one per run.
type resultSet struct {
	values   map[string]map[string][]float64
	machines map[string]bool
}

func loadResults(dir string) (*resultSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	rs := &resultSet{values: map[string]map[string][]float64{}, machines: map[string]bool{}}
	for _, p := range paths {
		if strings.HasSuffix(p, ".spans.json") {
			continue
		}
		var r resultFile
		if err := readJSON(p, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload == "" {
			continue
		}
		key := r.Workload + "/e2e"
		if r.Trace {
			key = r.Workload + "/trace"
		}
		if rs.values[key] == nil {
			rs.values[key] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			rs.values[key][name] = append(rs.values[key][name], m.Value)
		}
		rs.machines[fmt.Sprintf("%v | nproc %v | %v", r.Machine["cpu_model"], r.Machine["nproc"], r.Machine["go_version"])] = true
	}
	if len(rs.values) == 0 {
		return nil, fmt.Errorf("no results files in %s", dir)
	}
	return rs, nil
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(values, n=4) gives them.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
}

// verdict compares run set b against base a for one metric. bound < 0
// means the metric has none (per-layer). change is the relative move of
// the median, positive when b is worse.
func verdict(a, b []float64, better string, bound float64) (change float64, v string) {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	switch {
	case am == bm:
		change = 0
	case am == 0 && sign*bm > 0:
		change = math.Inf(1)
	case am == 0:
		change = math.Inf(-1)
	default:
		change = sign * (bm - am) / math.Abs(am)
	}
	spread := math.Max(relSpread(a1, a3, am), relSpread(b1, b3, bm))
	worseAll, betterAll := true, true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				worseAll = false
			}
			if sign*(y-x) >= 0 {
				betterAll = false
			}
		}
	}
	beyondNoise := math.Abs(bm-am) > a3-a1
	if bound < 0 {
		switch {
		case change < 0 && beyondNoise:
			return change, "improvement"
		case change > 0 && beyondNoise:
			return change, "worse"
		}
		return change, "same"
	}
	switch {
	case change > bound && (spread <= bound || worseAll):
		return change, "REGRESSION"
	case change < 0 && beyondNoise && (spread <= bound || betterAll):
		return change, "improvement"
	case spread > bound && !betterAll:
		return change, "unresolved"
	}
	return change, "within bound"
}

func relSpread(q1, q3, med float64) float64 {
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// compareMain diffs two directories of results files by median and
// quartile spread, per workload and metric, against the bounds of
// BENCHMARK.json. It exits 1 when an end-to-end metric regressed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <base-results-dir> <new-results-dir>")
		return 2
	}
	var def benchDef
	err := readJSON(benchFile, &def)
	if err == nil {
		var a, b *resultSet
		if a, err = loadResults(args[0]); err == nil {
			if b, err = loadResults(args[1]); err == nil {
				return printComparison(def, a, b)
			}
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 2
}

func printComparison(def benchDef, a, b *resultSet) int {
	for _, set := range []*resultSet{a, b} {
		for m := range set.machines {
			fmt.Printf("machine: %s\n", m)
		}
	}
	if len(a.machines) != 1 || len(b.machines) != 1 || fmt.Sprint(a.machines) != fmt.Sprint(b.machines) {
		fmt.Println("WARNING: the result sets come from different machines or toolchains")
	}
	keys := make([]string, 0, len(a.values))
	for k := range a.values {
		if b.values[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	regressions := 0
	fmt.Printf("%-22s %-26s %-32s %-32s %9s %6s  %s\n", "workload/mode", "metric", "base median [Q1,Q3] n", "new median [Q1,Q3] n", "+worse", "bound", "verdict")
	row := func(key, name, better string, bound float64) {
		va, vb := a.values[key][name], b.values[key][name]
		if len(va) == 0 || len(vb) == 0 {
			return
		}
		change, v := verdict(va, vb, better, bound)
		if v == "REGRESSION" {
			regressions++
		}
		bs := "-"
		if bound >= 0 {
			bs = fmt.Sprintf("%.0f%%", bound*100)
		}
		fmt.Printf("%-22s %-26s %-32s %-32s %+8.1f%% %6s  %s\n", key, name, summary(va), summary(vb), change*100, bs, v)
	}
	for _, k := range keys {
		if strings.HasSuffix(k, "/e2e") {
			for _, m := range def.EndToEnd {
				row(k, m.Name, m.Better, m.Bound)
			}
		} else {
			for _, m := range def.PerLayer {
				row(k, m.Name, m.Better, -1)
			}
		}
	}
	if regressions > 0 {
		fmt.Printf("%d end-to-end regression(s)\n", regressions)
		return 1
	}
	return 0
}

func summary(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g,%.4g] %d", m, q1, q3, len(xs))
}
