package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runReport compares two sets of run outputs:
//
//	perfbench report [-bench BENCHMARK.json] BASE_DIR HEAD_DIR
//
// Each directory holds <workload>/<run>.out files, each the standard output
// of one run; runs with the same file name in both directories form a pair.
// For every (workload, metric) it prints each side's median and quartiles,
// the share of pairs the head wins (ties count for neither) and a verdict:
// "gain" when the head wins at least 9 in 10 pairs and the medians differ
// by more than the base's quartile spread; "regression" when the head's
// median is worse than the base's by more than the metric's bound;
// "unresolved" when the base's own spread exceeds the bound and the head
// does not beat every base run; otherwise "same".
func runReport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition (metric directions and bounds)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench report [-bench BENCHMARK.json] BASE_DIR HEAD_DIR")
		return 2
	}
	metrics, err := loadSpecMetrics(*benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench report: %v\n", err)
		return 1
	}
	base, err := loadRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench report: %v\n", err)
		return 1
	}
	head, err := loadRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench report: %v\n", err)
		return 1
	}
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3] n\thead median [q1, q3] n\tdelta\twins\tverdict")
	for _, wl := range sortedKeys(base) {
		for _, m := range metrics {
			row, ok := compareMetric(m, base[wl], head[wl])
			if ok {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", wl, m.Name, m.Unit, row)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "perfbench report: %v\n", err)
		return 1
	}
	return 0
}

func loadSpecMetrics(path string) ([]specMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return append(spec.EndToEnd, spec.PerLayer...), nil
}

// loadRuns reads dir/<workload>/<run>.out into workload → run → result.
func loadRuns(dir string) (map[string]map[string]result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.out"))
	if err != nil {
		return nil, err
	}
	runs := map[string]map[string]result{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("%s: last line: %w", f, err)
		}
		wl := filepath.Base(filepath.Dir(f))
		if runs[wl] == nil {
			runs[wl] = map[string]result{}
		}
		runs[wl][filepath.Base(f)] = res
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no <workload>/<run>.out files", dir)
	}
	return runs, nil
}

// compareMetric renders one report row; ok is false when neither side
// printed the metric.
func compareMetric(m specMetric, base, head map[string]result) (row string, ok bool) {
	values := func(runs map[string]result) []float64 {
		var xs []float64
		for _, name := range sortedKeys(runs) {
			if v, ok := runs[name].Metrics[m.Name]; ok {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	bv, hv := values(base), values(head)
	if len(bv) == 0 && len(hv) == 0 {
		return "", false
	}
	sign := 1.0 // positive deltas are improvements
	if m.Better == "lower" {
		sign = -1
	}
	var wins, pairs int
	for name, b := range base {
		h, ok := head[name]
		bm, bok := b.Metrics[m.Name]
		hm, hok := h.Metrics[m.Name]
		if !ok || !bok || !hok {
			continue
		}
		pairs++
		if sign*(hm.Value-bm.Value) > 0 {
			wins++
		}
	}
	bmed, bq1, bq3 := median(bv), quartile(bv, 1), quartile(bv, 3)
	hmed, hq1, hq3 := median(hv), quartile(hv, 1), quartile(hv, 3)
	delta := frac(hmed-bmed, math.Abs(bmed))
	verdict := "same"
	switch {
	case len(bv) < 2 || len(hv) < 2:
		verdict = "too few runs"
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(hmed-bmed) > bq3-bq1:
		verdict = "gain"
	case m.Bound > 0 && sign*delta < -m.Bound:
		verdict = "regression"
	case m.Bound > 0 && frac(bq3-bq1, math.Abs(bmed)) > m.Bound && !allBetter(sign, bv, hv):
		verdict = "unresolved"
	}
	return fmt.Sprintf("%.6g [%.6g, %.6g] %d\t%.6g [%.6g, %.6g] %d\t%+.2f%%\t%d/%d\t%s",
		bmed, bq1, bq3, len(bv), hmed, hq1, hq3, len(hv), 100*delta, wins, pairs, verdict), true
}

// allBetter reports whether every head value beats every base value.
func allBetter(sign float64, base, head []float64) bool {
	for _, h := range head {
		for _, b := range base {
			if sign*(h-b) <= 0 {
				return false
			}
		}
	}
	return true
}

// median is Python's statistics.median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartile returns the i-th quartile (i in 1..3) as Python's
// statistics.quantiles(xs, n=4) computes it (the default "exclusive"
// method), so the report agrees with tooling built on Python.
func quartile(xs []float64, i int) float64 {
	if len(xs) < 2 {
		return median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	ld := len(s)
	m := ld + 1
	j := i * m / n
	j = max(1, min(j, ld-1))
	delta := float64(i*m - j*n)
	return (s[j-1]*(n-delta) + s[j]*delta) / n
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
