// Command slctrace inspects the memory access trace and compressed-block
// size distribution of one benchmark under a compression configuration —
// the data behind the paper's Figure 2.
//
// Usage:
//
//	slctrace -bench SRAD1
//	slctrace -bench BS -mag 64
//	slctrace -bench NN -codec bdi -parallel 0
//	slctrace -bench TP -codec zcd
//	slctrace -bench DCT -sim -simworkers 0
//
// The codec is selected by its registry name and validated against
// compress.Names — including the post-paper families (lz4b, zcd); lossy
// codecs (tslc-*) trace their lossless base on exact regions as the runner
// does. -sim additionally replays the recorded trace
// through the timing simulator; -simworkers shards the replay across event
// lanes (results are identical to the serial engine).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/compress"
	"repro/internal/experiments"
	"repro/internal/gpu/sim"
	"repro/internal/storeflag"
	"repro/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of slctrace. The whole configuration — bench,
// codec, MAG, threshold — is validated up front: an invalid MAG used to
// surface only at pipeline construction, after minutes of entropy-table
// training it then threw away.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slctrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench     = fs.String("bench", "", "benchmark name")
		codec     = fs.String("codec", "e2mc", "codec registry name")
		magBytes  = fs.Int("mag", 32, "memory access granularity in bytes")
		threshold = fs.Int("threshold", 16, "lossy threshold in bytes (lossy codecs only)")
		bound     = fs.Float64("bound", 0, "absolute error bound (error-bounded codecs only; 0 = codec default)")
		parallel  = fs.Int("parallel", 1, "worker goroutines for block compression (0 = all cores)")
		simulate  = fs.Bool("sim", false, "also replay the trace through the timing simulator")
		simw      = fs.Int("simworkers", 1, "worker goroutines for the sharded timing simulator (0 = all cores, 1 = serial engine)")
		store     = storeflag.RegisterOn(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if extra := fs.Args(); len(extra) > 0 {
		fmt.Fprintf(stderr, "slctrace: unexpected arguments: %v\n", extra)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "slctrace:", err)
		return 1
	}
	if *bench == "" {
		fs.Usage()
		return 2
	}
	w, err := workloads.ByName(*bench)
	if err != nil {
		return fail(err)
	}
	mag := compress.MAG(*magBytes)
	cfg, err := experiments.NamedConfig(*codec, mag, *threshold*8, *bound)
	if err != nil {
		return fail(err)
	}
	r := experiments.NewRunner()
	r.SyncWorkers = experiments.Workers(*parallel)
	r.Progress = func(s string) { fmt.Fprintln(stderr, "  ..", s) }
	// The store serves slctrace's entropy-table training (tables are the
	// expensive part of building a tslc-* pipeline).
	if _, err := store.Attach(r); err != nil {
		return fail(err)
	}

	// Record the trace under the configured pipeline, as a Runner cell does.
	tr, cs, err := r.Trace(w, cfg)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s trace (%s)\n", w.Info().Name, cfg.Name)
	for _, k := range tr.Kernels {
		var acc, rd, wr, bursts int
		for _, warp := range k.Warps {
			acc += len(warp)
			for _, a := range warp {
				if a.Write {
					wr++
				} else {
					rd++
				}
				bursts += int(a.Bursts)
			}
		}
		fmt.Fprintf(stdout, "  kernel %-22s warps %6d  accesses %8d (r %d / w %d)  bursts %9d\n",
			k.Name, len(k.Warps), acc, rd, wr, bursts)
	}
	st := tr.Stats(mag)
	fmt.Fprintf(stdout, "total: %d kernels, %d accesses, %d bursts, %.2f MB\n",
		st.Kernels, st.Accesses, st.Bursts, float64(st.Bytes)/1e6)

	fmt.Fprintf(stdout, "\ncompressed-block distribution (bytes above a multiple of MAG):\n")
	for x, cnt := range cs.AboveMAG {
		if cnt == 0 {
			continue
		}
		pct := 100 * float64(cnt) / float64(cs.Blocks)
		fmt.Fprintf(stdout, "  %2dB %7d blocks (%5.1f%%)\n", x, cnt, pct)
	}
	fmt.Fprintf(stdout, "raw CR %.2f, effective CR %.2f\n", cs.RawRatio(), cs.EffectiveRatio())

	if *simulate {
		sc := experiments.SimConfig(cfg)
		sc.Workers = experiments.Workers(*simw)
		res, err := sim.Run(tr, sc)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\ntiming replay: %.1f µs, %d bursts (%d metadata), %.2f MB data\n",
			res.TimeNs/1e3, res.DramBursts, res.DramMetaBursts,
			float64(res.DramBytes)/1e6)
	}
	return 0
}
