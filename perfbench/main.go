// Command perfbench is the repository's benchmark. One invocation runs one
// named workload for a fixed time and prints, as the last line of its
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 the run re-drives the same work with spans around every
// layer call and prints the per-layer metrics instead. A failed output check
// prints correct=false and exits 1; bad arguments exit 2.
//
//	perfbench --workload eval-full --seed 1 --seconds 30 --trace 0
//	perfbench report BASE_DIR HEAD_DIR
//
// Workloads:
//
//	eval-full      cold experiments.Runner over Fig7Cells() on 2 workers
//	eval-compress  cold experiments.Runner over CompressionCells(MAG32)
//	serve-mixed    closed-loop slcd clients against an in-process handler
//
// See README.md for what each metric means and which layer moves it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a few cheap operations, for the
	// benchmark's self-tests.
	tiny bool
	// spans is the directory traced runs write their span dump to.
	spans string
	// log receives progress lines (standard error).
	log io.Writer
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records one metric.
func (r *result) set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// workloadFns maps each workload name to its runner.
var workloadFns = map[string]func(options) (result, error){
	"eval-full":     func(o options) (result, error) { return runEval(o, evalFull, nil) },
	"eval-compress": func(o options) (result, error) { return runEval(o, evalCompress, nil) },
	"serve-mixed":   func(o options) (result, error) { return runServe(o, nil) },
}

func workloadNames() []string {
	var names []string
	for n := range workloadFns {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "report" {
		return runReport(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run (one of %v)", workloadNames()))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs (cell order, request schedule)")
	fs.Float64Var(&o.seconds, "seconds", 30, "how long the timed phase runs")
	fs.IntVar(&traceFlag, "trace", 0, "1 prints the traced per-layer metrics instead of the end-to-end ones")
	fs.BoolVar(&o.tiny, "tiny", false, "run a few cheap operations only (self-tests)")
	fs.StringVar(&o.spans, "spans", filepath.Join(".bench_build", "spans"), "directory for the span dump of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	fn, ok := workloadFns[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (available: %v)\n", o.workload, workloadNames())
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive, got %v\n", o.seconds)
		return 2
	}
	o.trace = traceFlag == 1
	o.log = stderr
	res, err := fn(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed their output check\n", o.workload, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// durationsMS converts durations to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// medianSetup times fn reps times and returns the median in seconds.
func medianSetup(reps int, fn func() error) (float64, error) {
	times := make([]float64, reps)
	for i := range times {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times[i] = time.Since(start).Seconds()
	}
	return median(times), nil
}

// frac returns a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
