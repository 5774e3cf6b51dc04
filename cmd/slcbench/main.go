// Command slcbench regenerates the paper's tables and figures.
//
// Usage:
//
//	slcbench -all                 # everything (written to -out, default stdout)
//	slcbench -all -parallel 0     # same, fanned across all cores
//	slcbench -fig 7               # one figure (1, 2, 7, 8, 9)
//	slcbench -table 1             # one table (1, 2, 3)
//	slcbench -fig 7 -json         # machine-readable cell results
//	slcbench -matrix smoke -json  # a named cell subset (see -list-matrix)
//	slcbench -all -out report.txt -v
//
// -parallel N executes the evaluation matrix on N workers (0 = all cores)
// before rendering; the figures then read the memoised results, so the
// output is identical to a serial run. -simworkers N additionally shards
// each cell's timing simulation across N event lanes (0 = all cores) with
// bitwise-identical results. -json replaces the text report with a JSON
// dump of every executed cell — the format the bench trajectory is
// recorded in.
//
// -matrix NAME runs a named subset of the evaluation matrix (registered in
// internal/experiments; -list-matrix prints the set with descriptions) —
// e.g. `smoke` is CI's every-push slice, `new-codecs` covers the post-paper
// codec families (lz4b, zcd) and `float-workloads` runs the HPC float fields
// under the sz error-bounded family against lossless comparators. -bound
// overrides the error bound of any error-bounded (sz) cells in the selected
// subset. The text output is one line per cell; with -json the subset is
// emitted as a trajectory like any other target.
//
// -store DIR persists memoised results (golden runs, entropy tables, cell
// measurements) to a content-addressed store in DIR; a second identical
// invocation then recomputes nothing and emits bitwise-identical results
// (observable via the Store hit counters in -json output). -store-clear
// empties the store first.
//
// -decodebench times the entropy decoder (the table-driven LUT decode)
// over corpora sampled from every registered workload.
// Alone it prints a per-workload table; combined with -json (with or
// without another target) the timings land in the trajectory's Decode
// section, which CI uploads per push.
//
// -simbench times the discrete-event engine itself: every workload's trace
// is replayed repeatedly through one simulator (at the -simworkers setting)
// and the resulting events/s and ns/event land in a text table or, with
// -json, the trajectory's Sim section (uploaded as bench-sim.json by CI,
// which also fails its regression smoke step when ns/event degrades >25%
// against the committed baseline fixture).
//
// -cpuprofile FILE / -memprofile FILE record pprof profiles of whatever the
// invocation runs — see the README's "Profiling" section for the workflow.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cliio"
	"repro/internal/compress"
	"repro/internal/experiments"
	"repro/internal/gpu/sim"
	"repro/internal/profileflag"
	"repro/internal/storeflag"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of slcbench. Every failure path — including
// write errors to -out, which fmt.Fprintf-based rendering would otherwise
// swallow — must yield a non-zero exit.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("slcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		all       = fs.Bool("all", false, "regenerate every table and figure")
		fig       = fs.Int("fig", 0, "regenerate one figure (1, 2, 7, 8, 9)")
		table     = fs.Int("table", 0, "regenerate one table (1, 2, 3)")
		ablations = fs.Bool("ablations", false, "run the ablation study")
		matrix    = fs.String("matrix", "", "run a named cell subset of the evaluation matrix (see -list-matrix)")
		bound     = fs.Float64("bound", 0, "override the error bound of error-bounded cells in the selected matrix (0 = keep each cell's bound)")
		listMat   = fs.Bool("list-matrix", false, "list registered matrix subsets and exit")
		out       = fs.String("out", "", "write output to this file instead of stdout")
		parallel  = fs.Int("parallel", 1, "evaluation workers (0 = all cores, 1 = serial)")
		simw      = fs.Int("simworkers", 1, "worker goroutines per sharded timing simulation (0 = all cores, 1 = serial engine)")
		asJSON    = fs.Bool("json", false, "emit the executed cells as JSON instead of the text report (-all, -fig, -ablations, -matrix)")
		decodeb   = fs.Bool("decodebench", false, "time the entropy decoder over per-workload corpora (text table, or the trajectory's Decode section with -json)")
		simb      = fs.Bool("simbench", false, "time the event engine replaying every workload's trace (text table, or the trajectory's Sim section with -json)")
		verbose   = fs.Bool("v", false, "log per-run progress to stderr")
		store     = storeflag.RegisterOn(fs)
		prof      = profileflag.RegisterOn(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if extra := fs.Args(); len(extra) > 0 {
		fmt.Fprintf(stderr, "slcbench: unexpected arguments: %v\n", extra)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "slcbench:", err)
		return 1
	}

	if *listMat {
		for _, name := range experiments.MatrixNames() {
			m, _ := experiments.LookupMatrix(name)
			fmt.Fprintf(stdout, "%-14s %s\n", name, m.Desc)
		}
		return 0
	}

	if err := prof.Start(); err != nil {
		return fail(err)
	}
	defer func() {
		// A truncated profile is a failed invocation even when the report
		// rendered fine.
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(stderr, "slcbench:", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	w := cliio.NewWriter(stdout)
	var outFile *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		outFile = f
		w = cliio.NewWriter(f)
	}
	defer func() {
		// Surface short writes (full disk, closed pipe) as a failure; the
		// rendering paths write through fmt.Fprintf, which drops errors.
		if err := w.Err(); err != nil {
			fmt.Fprintln(stderr, "slcbench: writing output:", err)
			if code == 0 {
				code = 1
			}
		}
		if outFile != nil {
			if err := outFile.Close(); err != nil {
				fmt.Fprintln(stderr, "slcbench: closing output:", err)
				if code == 0 {
					code = 1
				}
			}
		}
	}()

	r := experiments.NewRunner()
	r.SimWorkers = experiments.Workers(*simw)
	if *verbose {
		r.Progress = func(s string) { fmt.Fprintln(stderr, "  ..", s) }
	}
	st, err := store.Attach(r)
	if err != nil {
		return fail(err)
	}
	if st != nil {
		defer func() {
			s := st.Stats()
			fmt.Fprintf(stderr, "store %s: %d hits, %d misses, %d writes\n",
				st.Dir(), s.Hits, s.Misses, s.Puts)
		}()
	}
	// The cells the selected target renders: full runs (timing + error) and
	// compression-only sweeps.
	var full, comp []experiments.Cell
	var target string
	var figure experiments.Figure
	switch {
	case *all:
		target = "all"
		full = experiments.EvaluationCells()
		comp = experiments.CompressionCells(compress.MAG32)
	case *ablations:
		target = "ablations"
		full = experiments.AblationCells()
	case *fig != 0:
		target = fmt.Sprintf("fig%d", *fig)
		if figure, err = experiments.LookupFigure(*fig); err != nil {
			return fail(err)
		}
		full, comp = figure.Full(), figure.Comp()
	case *matrix != "":
		target = "matrix:" + *matrix
		var merr error
		full, comp, merr = experiments.MatrixCells(*matrix)
		if merr != nil {
			return fail(merr)
		}
	}
	// -bound rewrites error-bounded cells to the requested bound; lossless
	// and threshold-lossy cells are untouched, so it is a no-op on subsets
	// without sz cells.
	if full, err = experiments.WithErrorBound(full, *bound); err != nil {
		return fail(err)
	}
	if comp, err = experiments.WithErrorBound(comp, *bound); err != nil {
		return fail(err)
	}

	// Warm the runner's memo across a worker pool; the output below then
	// reads memoised results and is byte-identical to a serial run.
	// (-table targets render static configuration tables; there is nothing
	// to parallelise.)
	if *parallel != 1 || *asJSON || *matrix != "" {
		if len(full) > 0 {
			if _, err := r.RunAll(full, *parallel); err != nil {
				return fail(err)
			}
		}
		if len(comp) > 0 {
			if err := r.CompressAll(comp, *parallel); err != nil {
				return fail(err)
			}
		}
	}

	// Decode benchmarks run against whatever tables the selected workloads
	// train (memoised, so a -fig 2 run above shares them).
	var dbench []experiments.DecodeBench
	if *decodeb {
		dbench, err = experiments.CollectDecodeBenches(r, 0)
		if err != nil {
			return fail(err)
		}
		if target == "" {
			target = "decode"
		}
	}

	// Simulator throughput runs each workload's trace through one reusable
	// Simulator at the -simworkers setting; the numbers CI's regression
	// smoke step compares against the committed baseline fixture.
	var sbench []experiments.SimBench
	if *simb {
		sbench, err = experiments.CollectSimBenches(r, r.SimWorkers)
		if err != nil {
			return fail(err)
		}
		if target == "" {
			target = "sim"
		}
	}

	if *asJSON {
		if target == "" {
			return fail(fmt.Errorf("-json needs -all, -fig, -ablations, -matrix, -decodebench or -simbench"))
		}
		if err := emitJSON(w, r, target, full, comp, dbench, sbench); err != nil {
			return fail(err)
		}
		return 0
	}

	if *decodeb {
		printDecodeBenches(w, dbench)
		if target == "decode" && *table == 0 {
			return 0
		}
	}

	if *simb {
		printSimBenches(w, sbench)
		if target == "sim" && *table == 0 {
			return 0
		}
	}

	switch {
	case *all:
		if err := experiments.Report(w, r); err != nil {
			return fail(err)
		}
	case *ablations:
		ab, err := experiments.RunAblations(r)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(w, ab)
	case *table != 0:
		switch *table {
		case 1:
			fmt.Fprint(w, experiments.TableI())
		case 2:
			fmt.Fprint(w, experiments.TableII(sim.DefaultConfig()))
		case 3:
			fmt.Fprint(w, experiments.TableIII())
		default:
			return fail(fmt.Errorf("unknown table %d (have 1, 2, 3)", *table))
		}
	case *fig != 0:
		f, err := figure.Render(r)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(w, f)
	case *matrix != "":
		if err := printMatrix(w, r, *matrix, full, comp); err != nil {
			return fail(err)
		}
	default:
		fs.Usage()
		return 2
	}
	return 0
}

// emitJSON re-reads the memoised cells (warmed above) and writes the bench
// trajectory, including the store's hit counters when one is attached and
// the decode benchmarks when -decodebench was given.
func emitJSON(w io.Writer, r *experiments.Runner, target string, full, comp []experiments.Cell, dbench []experiments.DecodeBench, sbench []experiments.SimBench) error {
	traj, err := experiments.CollectTrajectory(r, target, full, comp)
	if err != nil {
		return err
	}
	traj.Decode = dbench
	traj.Sim = sbench
	return traj.WriteJSON(w)
}

// printSimBenches renders the -simbench throughput as a text table.
func printSimBenches(w io.Writer, sbench []experiments.SimBench) {
	fmt.Fprintf(w, "simulator throughput (trace replay under E2MC@MAG32)\n")
	fmt.Fprintf(w, "  %-8s %8s %9s %8s %10s %12s %9s\n",
		"workload", "events", "accesses", "replays", "ns/event", "events/s", "wall ms")
	for _, b := range sbench {
		fmt.Fprintf(w, "  %-8s %8d %9d %8d %10.1f %12.0f %9.2f\n",
			b.Workload, b.Events, b.Accesses, b.Replays, b.NsPerEvent,
			b.EventsPerSec, b.WallMs)
	}
}

// printDecodeBenches renders the -decodebench timings as a text table.
func printDecodeBenches(w io.Writer, dbench []experiments.DecodeBench) {
	fmt.Fprintf(w, "entropy decode (ns/block over sampled corpora)\n")
	fmt.Fprintf(w, "  %-8s %7s %10s\n", "workload", "blocks", "LUT")
	for _, d := range dbench {
		fmt.Fprintf(w, "  %-8s %7d %10.1f\n", d.Workload, d.Blocks, d.LUTNsPerBlock)
	}
}

// printMatrix renders a named subset as one line per cell, reading the
// memoised results warmed above (so the -parallel setting cannot change the
// output).
func printMatrix(w io.Writer, r *experiments.Runner, name string, full, comp []experiments.Cell) error {
	m, _ := experiments.LookupMatrix(name)
	fmt.Fprintf(w, "matrix %s: %s\n", name, m.Desc)
	for _, c := range full {
		res, err := r.Run(c.Workload, c.Config)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-6s × %-20s %10.1f µs  CR %.2f/%.2f  err %.4f%%\n",
			res.Workload, res.Config.Name, res.Sim.TimeNs/1e3,
			res.Comp.RawRatio(), res.Comp.EffectiveRatio(), res.ErrorFrac*100)
	}
	for _, c := range comp {
		st, err := r.CompressionOnly(c.Workload, c.Config)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-6s × %-20s compression only   CR %.2f/%.2f\n",
			c.Workload.Info().Name, c.Config.Name, st.RawRatio(), st.EffectiveRatio())
	}
	return nil
}
