package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/experiments"
	"repro/internal/gpu/device"
	"repro/internal/gpu/sim"
	"repro/internal/gpu/trace"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/workloads"
)

// evalWorkers is the cell fan-out of both evaluation workloads: one worker
// per core of the 2-core machines the baselines are recorded on.
const evalWorkers = 2

// evalKind is one evaluation workload.
type evalKind struct {
	name string
	// full runs Runner.Run cells (golden run, sim, energy); otherwise
	// Runner.CompressionOnly cells.
	full  bool
	cells func() []experiments.Cell
}

var (
	evalFull = evalKind{name: "eval-full", full: true, cells: experiments.Fig7Cells}
	// eval-compress is the Figure 1/2 sweep at the paper's 32 B MAG.
	evalCompress = evalKind{name: "eval-compress", cells: func() []experiments.Cell {
		return experiments.CompressionCells(compress.MAG32)
	}}
)

// tinyWorkload is the cheapest Table III workload; -tiny keeps its cells
// only.
const tinyWorkload = "TP"

// cellsFor returns the workload's cells, or its TP cells under -tiny.
func (k evalKind) cellsFor(tiny bool) []experiments.Cell {
	cells := k.cells()
	if !tiny {
		return cells
	}
	var out []experiments.Cell
	for _, c := range cells {
		if c.Workload.Info().Name == tinyWorkload {
			out = append(out, c)
		}
	}
	return out
}

// cellKey names a cell in the digest file.
func cellKey(c experiments.Cell) string { return c.Workload.Info().Name + "|" + c.Config.Name }

//go:embed digests.json
var digestsJSON []byte

// loadDigests returns the committed oracle: workload → cell → digest.
func loadDigests() (map[string]map[string]string, error) {
	var d map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// digest hashes a cell's deterministic outputs: the whole RunResult of a
// full cell (sim.Result, ErrorFrac, pipeline.Stats, energy, trace stats) or
// the pipeline.Stats of a compression cell.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: digest: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// setupSink keeps the timed set-up's results live.
var setupSink struct {
	r     *experiments.Runner
	cells []experiments.Cell
}

// runEval runs an evaluation workload. want overrides the committed digests
// (self-tests pass a corrupted set).
func runEval(o options, k evalKind, want map[string]string) (result, error) {
	if want == nil {
		all, err := loadDigests()
		if err != nil {
			return result{}, err
		}
		want = all[k.name]
	}
	cells := k.cellsFor(o.tiny)
	rng := rand.New(rand.NewSource(o.seed))

	var res result
	// Set-up is what a researcher pays before the first cell: building the
	// cell matrix and a cold Runner. It is microseconds, so each sample
	// times a batch and the run reports the median per construction.
	const setupBatch, setupReps = 1000, 15
	runtime.GC()
	setup, err := medianSetup(setupReps, func() error {
		for i := 0; i < setupBatch; i++ {
			setupSink.r, setupSink.cells = experiments.NewRunner(), k.cells()
		}
		return nil
	})
	if err != nil {
		return result{}, err
	}
	setup /= setupBatch

	deadline := time.Duration(o.seconds * float64(time.Second))
	var (
		rates   []float64
		lats    []time.Duration
		elapsed time.Duration
		traced  []time.Duration
		plain   []time.Duration
		spans   spanSet
		layer   layerCounts
	)
	// Sweep until the next sweep would overshoot the deadline by more than
	// it undershoots, so a run measures close to --seconds.
	var last time.Duration
	for sweep := 0; elapsed+last/2 < deadline || len(plain) == 0 || (o.trace && len(traced) == 0); sweep++ {
		order := rng.Perm(len(cells))
		// Start every sweep from a collected heap, so one sweep's garbage
		// does not tax the next.
		runtime.GC()
		// A traced run alternates untraced and traced sweeps, so the
		// overhead compares sweeps of the same run.
		withSpans := o.trace && sweep%2 == 1
		var sw sweepResult
		if withSpans {
			sw = tracedSweep(k, cells, order, want, &spans, &layer)
			traced = append(traced, sw.wall)
		} else {
			sw = plainSweep(k, cells, order, want)
			plain = append(plain, sw.wall)
			rates = append(rates, float64(len(cells))/sw.wall.Seconds())
			lats = append(lats, sw.lat...)
		}
		elapsed += sw.wall
		last = sw.wall
		res.Attempted += int64(len(cells))
		res.Failed += int64(len(sw.bad))
		for _, b := range sw.bad {
			fmt.Fprintf(o.log, "perfbench: %s: %s\n", k.name, b)
		}
		fmt.Fprintf(o.log, "perfbench: %s sweep %d (traced=%v): %d cells in %.2fs\n", k.name, sweep, withSpans, len(cells), sw.wall.Seconds())
	}
	res.Correct = res.Failed == 0

	if !o.trace {
		ms := durationsMS(lats)
		res.set("setup_s", setup, "s")
		res.set("ops_per_s", median(rates), "1/s")
		res.set("op_p50_ms", quantile(ms, 0.5), "ms")
		res.set("op_p90_ms", quantile(ms, 0.9), "ms")
		res.set("peak_rss_mb", peakRSSMB(), "MB")
		return res, nil
	}
	overhead := frac(medianDur(traced).Seconds(), medianDur(plain).Seconds()) - 1
	setEvalLayers(&res, spans.totals(), &layer, spans.capacity, sumDur(traced), overhead)
	path := filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.jsonl", k.name, o.seed))
	if err := spans.write(path); err != nil {
		return result{}, err
	}
	return res, nil
}

// sweepResult is one pass over every cell.
type sweepResult struct {
	wall time.Duration
	lat  []time.Duration // per cell, in cell order
	bad  []string        // failed or digest-mismatched cells
}

// forCells fans cell indices, in the given order, across evalWorkers
// goroutines, as Runner.RunAll does. fn runs on worker w.
func forCells(order []int, fn func(w, i int)) time.Duration {
	start := time.Now()
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < evalWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				fn(w, i)
			}
		}(w)
	}
	for _, i := range order {
		next <- i
	}
	close(next)
	wg.Wait()
	return time.Since(start)
}

// checkCell compares a cell's output digest with the oracle.
func checkCell(want map[string]string, c experiments.Cell, got string, err error) string {
	key := cellKey(c)
	switch {
	case err != nil:
		return fmt.Sprintf("%s: %v", key, err)
	case want[key] == "":
		return fmt.Sprintf("%s: no committed digest", key)
	case want[key] != got:
		return fmt.Sprintf("%s: digest %s, want %s", key, got, want[key])
	}
	return ""
}

// plainSweep runs every cell through a cold Runner's public API, timing
// each cell from the caller's side (waits on shared golden runs and tables
// included), and checks every output against the oracle.
func plainSweep(k evalKind, cells []experiments.Cell, order []int, want map[string]string) sweepResult {
	r := experiments.NewRunner()
	lat := make([]time.Duration, len(cells))
	bad := make([]string, len(cells))
	wall := forCells(order, func(_, i int) {
		c := cells[i]
		start := time.Now()
		var out any
		var err error
		if k.full {
			out, err = r.Run(c.Workload, c.Config)
		} else {
			out, err = r.CompressionOnly(c.Workload, c.Config)
		}
		lat[i] = time.Since(start)
		bad[i] = checkCell(want, c, digest(out), err)
	})
	return sweepResult{wall: wall, lat: lat, bad: compact(bad)}
}

func compact(ss []string) []string {
	var out []string
	for _, s := range ss {
		if s != "" {
			out = append(out, s)
		}
	}
	return out
}

// Span names of the evaluation mirror.
const (
	spanCell      = "cell"
	spanGolden    = "golden"     // Runner.Golden call (wait or compute)
	spanGoldenRun = "golden.run" // the golden Workload.Run, when this caller computes it
	spanTables    = "tables"     // RunnerCodecs call (wait, train, build)
	spanTrainRun  = "tables.run" // the training Workload.Run, when this caller trains
	spanPipeNew   = "pipeline.new"
	spanRun       = "workloads.run"
	spanSync      = "pipeline.sync"
	spanMetrics   = "metrics.eval"
	spanSimNew    = "sim.new"
	spanReplay    = "sim.replay"
	spanPower     = "power.compute"
)

// layerCounts are the work counts the traced sweeps gather at the layer
// boundaries.
type layerCounts struct {
	mu          sync.Mutex
	blocks      int64
	lossyBlocks int64
	events      int64
	accesses    int64
	mdcHits     int64
	mdcMisses   int64
	rowHits     int64
	rowMisses   int64
}

// spanWorkload runs its workload inside a span on its worker's tracer. The
// Runner memoises by workload name, so whichever caller computes a golden
// run or trains a table does it through its own wrapper and the span lands
// on the goroutine that did the work.
type spanWorkload struct {
	workloads.Workload
	t    *tracer
	name string
	id   *int64
}

func (w spanWorkload) Run(ctx *workloads.Ctx) ([]float64, error) {
	i := w.t.begin(w.name, *w.id)
	defer w.t.end(i)
	return w.Workload.Run(ctx)
}

// tracedSweep re-drives every cell stage by stage exactly as Runner.Run
// (or Runner.CompressionOnly) does — Golden, RunnerCodecs, pipeline.New,
// Workload.Run with a span-wrapped Sync, metrics.Eval, sim.New + Replay,
// power.Compute — with a span around each public call. The digests it
// produces must equal the committed ones, which pins the mirror to
// Runner.Run.
func tracedSweep(k evalKind, cells []experiments.Cell, order []int, want map[string]string, spans *spanSet, lc *layerCounts) sweepResult {
	r := experiments.NewRunner()
	epoch := time.Now()
	tracers := make([]*tracer, evalWorkers)
	ids := make([]int64, evalWorkers)
	for w := range tracers {
		tracers[w] = newTracer(epoch)
	}
	bad := make([]string, len(cells))
	wall := forCells(order, func(w, i int) {
		t := tracers[w]
		ids[w] = int64(i)
		c := cells[i]
		root := t.begin(spanCell, int64(i))
		got, err := mirrorCell(k, r, c, t, &ids[w], lc)
		t.end(root)
		bad[i] = checkCell(want, c, got, err)
	})
	// The roots' epoch is shared, so idle time shows as the gap between
	// workers×wall and the sum of root spans.
	for _, t := range tracers {
		spans.add(t)
	}
	spans.mu.Lock()
	spans.capacity += wall * evalWorkers
	spans.mu.Unlock()
	return sweepResult{wall: wall, bad: compact(bad)}
}

// mirrorCell runs one cell's stages with spans and returns its digest.
func mirrorCell(k evalKind, r *experiments.Runner, c experiments.Cell, t *tracer, id *int64, lc *layerCounts) (string, error) {
	w, cfg := c.Workload, c.Config
	info := w.Info()
	var golden []float64
	var err error
	if k.full {
		gw := spanWorkload{Workload: w, t: t, name: spanGoldenRun, id: id}
		t.do(spanGolden, *id, func() { golden, err = r.Golden(gw) })
		if err != nil {
			return "", err
		}
	}
	var lossless, lossy compress.Codec
	tw := spanWorkload{Workload: w, t: t, name: spanTrainRun, id: id}
	t.do(spanTables, *id, func() { lossless, lossy, err = experiments.RunnerCodecs(r, tw, cfg) })
	if err != nil {
		return "", err
	}
	dev := device.New()
	var pl *pipeline.Pipeline
	t.do(spanPipeNew, *id, func() {
		if pl, err = pipeline.New(dev, cfg.MAG, lossless, lossy); err == nil {
			pl.SetWorkers(r.SyncWorkers)
		}
	})
	if err != nil {
		return "", err
	}
	syncSpan := func(reg device.Region) { t.do(spanSync, *id, func() { pl.Sync(reg) }) }
	var rec *trace.Recorder
	if k.full {
		rec = trace.NewRecorder(pl.BurstsFor)
	}
	var out []float64
	t.do(spanRun, *id, func() { out, err = w.Run(workloads.NewCtx(dev, rec, syncSpan)) })
	if err != nil {
		return "", fmt.Errorf("%s × %s: %w", info.Name, cfg.Name, err)
	}
	st := pl.Stats()
	lc.mu.Lock()
	lc.blocks += st.Blocks
	lc.lossyBlocks += st.LossyBlocks
	lc.mu.Unlock()
	if !k.full {
		return digest(st), nil
	}
	var errFrac float64
	t.do(spanMetrics, *id, func() { errFrac, err = metrics.Eval(info.Metric, golden, out) })
	if err != nil {
		return "", err
	}
	tr := rec.Trace()
	sc := experiments.SimConfig(cfg)
	sc.Workers = r.SimWorkers
	var s *sim.Simulator
	t.do(spanSimNew, *id, func() { s, err = sim.New(sc) })
	if err != nil {
		return "", err
	}
	var simRes sim.Result
	t.do(spanReplay, *id, func() { simRes, err = s.Replay(tr) })
	if err != nil {
		return "", err
	}
	var energy power.Breakdown
	t.do(spanPower, *id, func() { energy, err = power.Compute(simRes, power.Default()) })
	if err != nil {
		return "", err
	}
	ts := tr.Stats(cfg.MAG)
	lc.mu.Lock()
	lc.events += s.Events()
	lc.accesses += int64(ts.Accesses)
	lc.mdcHits += int64(simRes.MC.MDCHits)
	lc.mdcMisses += int64(simRes.MC.MDCMisses)
	lc.rowHits += int64(simRes.RowHits)
	lc.rowMisses += int64(simRes.RowMisses)
	lc.mu.Unlock()
	return digest(experiments.RunResult{
		Workload:  info.Name,
		Config:    cfg,
		ErrorFrac: errFrac,
		Sim:       simRes,
		Energy:    energy,
		Comp:      st,
		Trace:     ts,
	}), nil
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, 0.5))
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
