// Package experiments reproduces every table and figure of the paper's
// evaluation. The Runner executes one (workload × configuration) cell of the
// evaluation matrix — golden run, online-sampling table training, compressed
// run with error measurement, timing simulation and energy accounting — and
// memoises results so figures sharing runs (7, 8) do not recompute them.
//
// The Runner is safe for concurrent use: memoisation is singleflight-style
// (concurrent requests for the same golden run, entropy table or result
// compute once while the rest wait), and RunAll fans an evaluation matrix
// across a worker pool with results identical to serial execution.
//
// Beyond the paper's figures, the package defines named subsets of the
// evaluation matrix (RegisterMatrix/MatrixCells, the `slcbench -matrix`
// registry) and the Trajectory type — the `slcbench -json` schema CI
// records on every push, pinned byte-for-byte by the golden fixture under
// testdata/.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"

	"repro/internal/compress"
	_ "repro/internal/compress/all" // register every codec
	"repro/internal/compress/e2mc"
	"repro/internal/compress/sz"
	"repro/internal/flight"
	"repro/internal/gpu/device"
	"repro/internal/gpu/sim"
	"repro/internal/gpu/trace"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/resultstore"
	"repro/internal/slc"
	"repro/internal/tables"
	"repro/internal/workloads"
)

// Config is one compression configuration, identified by the codec's
// registry name (see compress.Names for the available set).
type Config struct {
	// Name is the display name used in figures and memoisation keys, e.g.
	// "E2MC@32B" or "TSLC-OPT@32B/t16B".
	Name string
	// Codec is the registry name of the technique, e.g. "e2mc", "bdi",
	// "tslc-opt". "raw" selects the uncompressed baseline.
	Codec string
	// MAG is the memory access granularity of the cell.
	MAG compress.MAG
	// ThresholdBits is the lossy threshold (lossy codecs only).
	ThresholdBits int
	// ErrorBound is the absolute error bound (error-bounded codecs only).
	ErrorBound float64
}

// NamedConfig builds a configuration from a codec registry name, validating
// the name against the registered set. thresholdBits applies to lossy
// codecs only and errorBound to error-bounded codecs only; a non-positive
// threshold selects the paper's default and a zero bound the codec's
// default, so the display name always matches the parameters the codec
// actually runs at.
func NamedConfig(codec string, mag compress.MAG, thresholdBits int, errorBound float64) (Config, error) {
	codec = strings.ToLower(codec)
	info, ok := compress.Lookup(codec)
	if !ok {
		return Config{}, compress.UnknownCodecError(codec)
	}
	if !mag.Valid() {
		// Validate here, not deep inside pipeline construction: by then a
		// tool may already have trained an entropy table for nothing.
		return Config{}, fmt.Errorf("experiments: invalid MAG %d (want a power of two dividing %d)", mag, compress.BlockSize)
	}
	cfg := Config{Codec: codec, MAG: mag}
	switch {
	case info.LossyBounded:
		if errorBound == 0 {
			errorBound = DefaultErrorBound
		}
		if math.IsNaN(errorBound) || math.IsInf(errorBound, 0) || errorBound < 0 {
			return Config{}, fmt.Errorf("experiments: error bound must be positive and finite, got %v", errorBound)
		}
		cfg.ErrorBound = errorBound
		cfg.Name = fmt.Sprintf("%s@%s/eb%.0e", strings.ToUpper(codec), mag, errorBound)
	case info.Lossy:
		if thresholdBits <= 0 {
			thresholdBits = DefaultThresholdBits
		}
		cfg.ThresholdBits = thresholdBits
		cfg.Name = fmt.Sprintf("%s@%s/t%dB", strings.ToUpper(codec), mag, thresholdBits/8)
	default:
		cfg.Name = fmt.Sprintf("%s@%s", strings.ToUpper(codec), mag)
	}
	return cfg, nil
}

// E2MCConfig returns the lossless baseline at the given MAG.
func E2MCConfig(mag compress.MAG) Config {
	return Config{Name: fmt.Sprintf("E2MC@%s", mag), Codec: "e2mc", MAG: mag}
}

// TSLCConfig returns an SLC configuration.
func TSLCConfig(v slc.Variant, mag compress.MAG, thresholdBits int) Config {
	return Config{
		Name:          fmt.Sprintf("%s@%s/t%dB", v, mag, thresholdBits/8),
		Codec:         slc.RegistryName(v),
		MAG:           mag,
		ThresholdBits: thresholdBits,
	}
}

// BaselineConfig returns one of the Figure 1 lossless codecs (or the raw
// baseline) by registry name.
func BaselineConfig(codec string, mag compress.MAG) Config {
	return Config{Name: fmt.Sprintf("%s@%s", strings.ToUpper(codec), mag), Codec: codec, MAG: mag}
}

// DefaultErrorBound is the absolute error bound error-bounded cells run at
// when none is given — the sz family's own default.
const DefaultErrorBound = sz.DefaultBound

// BoundedConfig returns an error-bounded codec configuration. A zero bound
// selects DefaultErrorBound.
func BoundedConfig(codec string, mag compress.MAG, errorBound float64) Config {
	if errorBound == 0 {
		errorBound = DefaultErrorBound
	}
	return Config{
		Name:       fmt.Sprintf("%s@%s/eb%.0e", strings.ToUpper(codec), mag, errorBound),
		Codec:      codec,
		MAG:        mag,
		ErrorBound: errorBound,
	}
}

// RunResult is everything measured for one workload × configuration.
type RunResult struct {
	Workload  string
	Config    Config
	ErrorFrac float64 // application error (fraction, not %)
	Sim       sim.Result
	Energy    power.Breakdown
	Comp      pipeline.Stats
	Trace     trace.Stats
}

// cellKey is the memoisation key of one evaluation cell; Run,
// CompressionOnly (with a "|comp" suffix) and EvaluationCells' dedup all
// derive from it.
func cellKey(workload string, cfg Config) string { return workload + "|" + cfg.Name }

// Runner executes and memoises evaluation cells. The zero value is not
// usable; call NewRunner.
type Runner struct {
	golden  flight.Group[[]float64]
	tables  tables.Cache
	results flight.Group[RunResult]

	// Store, when non-nil, persists memoised computations to disk,
	// content-addressed by workload, configuration and code fingerprint
	// (see store.go). Each singleflight slot then resolves memory hit →
	// disk hit → compute through resultstore.Memo; a populated store makes
	// a repeated invocation recompute nothing and return bitwise-identical
	// results.
	Store *resultstore.Store

	// SyncWorkers, when > 1, parallelises block compression inside each
	// run's pipeline (see pipeline.SetWorkers). Results are identical to
	// serial execution.
	SyncWorkers int

	// SimWorkers, when > 1, shards each timing simulation across that many
	// goroutines (one event lane per DRAM channel plus the SM/L2
	// coordinator; see sim.Config.Workers). Results are bitwise-identical
	// to the serial engine, so memoised cells are unaffected.
	SimWorkers int

	progressMu sync.Mutex
	// Progress, when set, receives one line per executed (non-memoised)
	// run. It may be called from multiple goroutines; calls are serialised.
	Progress func(string)
}

// NewRunner returns an empty runner.
func NewRunner() *Runner {
	r := &Runner{}
	// Table training and codec construction live in tables.Cache, shared
	// with the slcd daemon. Store is read through a closure so assigning
	// Runner.Store after construction (the storeflag pattern) is seen.
	r.tables.Store = func() *resultstore.Store { return r.Store }
	r.tables.Progress = r.progress
	return r
}

func (r *Runner) progress(format string, args ...interface{}) {
	r.progressMu.Lock()
	defer r.progressMu.Unlock()
	if r.Progress != nil {
		r.Progress(fmt.Sprintf(format, args...))
	}
}

// Golden returns the exact (uncompressed) outputs of a workload.
func (r *Runner) Golden(w workloads.Workload) ([]float64, error) {
	name := w.Info().Name
	return r.golden.Do(name, func() ([]float64, error) {
		return resultstore.Memo(r.Store, kindGolden, goldenMaterial(w), resultstore.Gob[[]float64](), r.progress, func() ([]float64, error) {
			r.progress("golden run: %s", name)
			out, err := w.Run(workloads.NewCtx(device.New(), nil, nil))
			if err != nil {
				return nil, fmt.Errorf("golden %s: %w", name, err)
			}
			return out, nil
		})
	})
}

// Table returns the workload's E2MC table, trained by sampling the device
// image at every region synchronisation — the online-sampling substitute.
// The work happens in the shared tables.Cache: memory hit → store hit →
// train, in a singleflight slot per workload.
func (r *Runner) Table(w workloads.Workload) (*e2mc.Table, error) {
	return r.tables.Table(w)
}

// SimConfig derives the simulator configuration for a compression
// configuration: the MAG sets the per-burst bytes (bus occupancy scales so
// aggregate peak bandwidth stays at Table II's 192.4 GB/s), and the codec's
// registration sets the (de)compression latencies.
func SimConfig(cfg Config) sim.Config {
	sc := sim.DefaultConfig()
	sc.MAG = cfg.MAG
	sc.MC.Dram.BurstCycles = int(cfg.MAG) / 16
	if info, ok := compress.Lookup(cfg.Codec); ok {
		sc.MC.CompressCycles = info.CompressCycles
		sc.MC.DecompressCycles = info.DecompressCycles
	}
	return sc
}

// simConfig is SimConfig at the runner's simulator parallelism: the
// configuration every cell's timing simulation runs under.
func (r *Runner) simConfig(cfg Config) sim.Config {
	sc := SimConfig(cfg)
	sc.Workers = r.SimWorkers
	return sc
}

// execute is the one cell body: it builds the configuration's codecs
// through RunnerCodecs and runs w once on a fresh device under the cell's
// pipeline at the runner's sync parallelism. It returns the workload's
// outputs and the pipeline's statistics, plus the memory access trace when
// record is set (nil otherwise).
func (r *Runner) execute(w workloads.Workload, cfg Config, record bool) ([]float64, pipeline.Stats, *trace.Trace, error) {
	lossless, lossy, err := RunnerCodecs(r, w, cfg)
	if err != nil {
		return nil, pipeline.Stats{}, nil, err
	}
	dev := device.New()
	pl, err := pipeline.New(dev, cfg.MAG, lossless, lossy)
	if err != nil {
		return nil, pipeline.Stats{}, nil, err
	}
	pl.SetWorkers(r.SyncWorkers)
	var rec *trace.Recorder
	if record {
		rec = trace.NewRecorder(pl.BurstsFor)
	}
	out, err := w.Run(workloads.NewCtx(dev, rec, pl.Sync))
	if err != nil {
		return nil, pipeline.Stats{}, nil, fmt.Errorf("%s × %s: %w", w.Info().Name, cfg.Name, err)
	}
	var tr *trace.Trace
	if record {
		tr = rec.Trace()
	}
	return out, pl.Stats(), tr, nil
}

// Trace runs w under the configuration's pipeline exactly as a full cell
// does and returns the recorded memory access trace and the compression
// statistics, without the golden run, error metric or timing simulation.
// It is not memoised: replaying the trace under a modified sim.Config is
// how the MDC ablation, simbench and slctrace time one cell.
func (r *Runner) Trace(w workloads.Workload, cfg Config) (*trace.Trace, pipeline.Stats, error) {
	_, comp, tr, err := r.execute(w, cfg, true)
	return tr, comp, err
}

// Run executes one evaluation cell (memoised; concurrent calls for the same
// cell compute once). A store hit short-circuits everything, including the
// golden run and table training the cell would otherwise request.
func (r *Runner) Run(w workloads.Workload, cfg Config) (RunResult, error) {
	return r.results.Do(cellKey(w.Info().Name, cfg), func() (RunResult, error) {
		return resultstore.Memo(r.Store, kindCell, r.cellMaterial(w, cfg), resultstore.JSON[RunResult](), r.progress, func() (RunResult, error) {
			return r.run(w, cfg)
		})
	})
}

// run computes one evaluation cell: golden run, compressed run with error
// measurement, timing simulation and energy.
func (r *Runner) run(w workloads.Workload, cfg Config) (RunResult, error) {
	info := w.Info()
	golden, err := r.Golden(w)
	if err != nil {
		return RunResult{}, err
	}
	r.progress("run: %s × %s", info.Name, cfg.Name)
	out, comp, tr, err := r.execute(w, cfg, true)
	if err != nil {
		return RunResult{}, err
	}
	errFrac, err := metrics.Eval(info.Metric, golden, out)
	if err != nil {
		return RunResult{}, err
	}
	simRes, err := sim.Run(tr, r.simConfig(cfg))
	if err != nil {
		return RunResult{}, err
	}
	energy, err := power.Compute(simRes, power.Default())
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{
		Workload:  info.Name,
		Config:    cfg,
		ErrorFrac: errFrac,
		Sim:       simRes,
		Energy:    energy,
		Comp:      comp,
		Trace:     tr.Stats(cfg.MAG),
	}, nil
}

// CompressionOnly runs the workload under a configuration without the timing
// simulation — enough for Figures 1 and 2.
func (r *Runner) CompressionOnly(w workloads.Workload, cfg Config) (pipeline.Stats, error) {
	res, err := r.results.Do(cellKey(w.Info().Name, cfg)+"|comp", func() (RunResult, error) {
		return resultstore.Memo(r.Store, kindComp, compMaterial(w, cfg), resultstore.JSON[RunResult](), r.progress, func() (RunResult, error) {
			return r.compressOnly(w, cfg)
		})
	})
	return res.Comp, err
}

// compressOnly computes one compression-only cell.
func (r *Runner) compressOnly(w workloads.Workload, cfg Config) (RunResult, error) {
	r.progress("compress: %s × %s", w.Info().Name, cfg.Name)
	_, comp, _, err := r.execute(w, cfg, false)
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{Workload: w.Info().Name, Config: cfg, Comp: comp}, nil
}

// Cell is one entry of an evaluation matrix: a workload under a
// configuration.
type Cell struct {
	Workload workloads.Workload
	Config   Config
}

// Workers resolves a worker-count knob: non-positive values (the cmd
// binaries' "-parallel 0") select one worker per core. RunAll, Runner
// SyncWorkers consumers and the cmd/ flags all share this policy.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// RunAll executes the cells across a worker pool and returns their results
// in input order. workers ≤ 0 selects GOMAXPROCS. Memoisation makes every
// result identical to what serial Run calls would produce; cells sharing a
// golden run or entropy table compute it once. All failing cells contribute
// to the joined error; successful cells still return results.
func (r *Runner) RunAll(cells []Cell, workers int) ([]RunResult, error) {
	results := make([]RunResult, len(cells))
	errs := make([]error, len(cells))
	r.forEachCell(workers, func(i int) error {
		res, err := r.Run(cells[i].Workload, cells[i].Config)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	}, cells, errs)
	return results, errors.Join(errs...)
}

// CompressAll executes compression-only cells (the Figure 1/2 sweep) across
// a worker pool, warming the CompressionOnly memo. workers ≤ 0 selects
// GOMAXPROCS.
func (r *Runner) CompressAll(cells []Cell, workers int) error {
	errs := make([]error, len(cells))
	r.forEachCell(workers, func(i int) error {
		_, err := r.CompressionOnly(cells[i].Workload, cells[i].Config)
		return err
	}, cells, errs)
	return errors.Join(errs...)
}

// forEachCell fans cell indices across a worker pool. A cell that fails —
// or panics, e.g. a codec bug tripping the pipeline's round-trip invariant —
// records into errs[i] rather than killing the process, so the other cells'
// results survive; serial callers of Run still see panics directly.
func (r *Runner) forEachCell(workers int, fn func(int) error, cells []Cell, errs []error) {
	workers = Workers(workers)
	if workers > len(cells) {
		workers = len(cells)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				func() {
					defer func() {
						if v := recover(); v != nil {
							errs[i] = fmt.Errorf("cell %d (%s × %s): panic: %v",
								i, cells[i].Workload.Info().Name, cells[i].Config.Name, v)
						}
					}()
					if err := fn(i); err != nil {
						errs[i] = fmt.Errorf("cell %d (%s × %s): %w",
							i, cells[i].Workload.Info().Name, cells[i].Config.Name, err)
					}
				}()
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
}

// CompressionCells returns the compression-only cells of Figures 1 and 2:
// every workload under each Figure 1 codec at the given MAG (Figure 2 reads
// the E2MC cells). Warm them with CompressAll.
func CompressionCells(mag compress.MAG) []Cell {
	var cells []Cell
	for _, w := range workloads.Registry() {
		for _, c := range Fig1Codecs {
			cells = append(cells, Cell{w, BaselineConfig(c.Codec, mag)})
		}
	}
	return cells
}

// Fig7Cells returns the full-run cells behind Figures 7 and 8: every
// workload × (the E2MC baseline and the three TSLC variants) at 32 B MAG
// with the default threshold. Prefetching these with RunAll warms the
// runner's memo, so a subsequent Figure7/Figure8 renders from cache.
func Fig7Cells() []Cell {
	var cells []Cell
	for _, w := range workloads.Registry() {
		cells = append(cells, Cell{w, E2MCConfig(compress.MAG32)})
		for _, v := range Fig7Variants {
			cells = append(cells, Cell{w, TSLCConfig(v, compress.MAG32, DefaultThresholdBits)})
		}
	}
	return cells
}

// Fig9Cells returns the MAG-sensitivity cells of Figure 9: E2MC and
// TSLC-OPT at 16, 32 and 64 B MAG for every workload.
func Fig9Cells() []Cell {
	var cells []Cell
	for _, w := range workloads.Registry() {
		for _, mag := range Fig9MAGs {
			cells = append(cells, Cell{w, E2MCConfig(mag)})
			cells = append(cells, Cell{w, TSLCConfig(slc.OPT, mag, mag.Bits()/2)})
		}
	}
	return cells
}

// AblationCells returns the cells RunAblations executes: the threshold
// sweep over every workload plus the PRED/SIMP comparison cells.
func AblationCells() []Cell {
	var cells []Cell
	for _, w := range workloads.Registry() {
		cells = append(cells, Cell{w, E2MCConfig(compress.MAG32)})
		for _, tb := range ablationThresholds {
			cells = append(cells, Cell{w, TSLCConfig(slc.OPT, compress.MAG32, tb*8)})
		}
	}
	// The extra-node ablation needs PRED on DCT; the prediction-policy
	// ablation needs SIMP and PRED on NN (OPT@t16B is in the sweep above).
	if dct, err := workloads.ByName("DCT"); err == nil {
		cells = append(cells, Cell{dct, TSLCConfig(slc.PRED, compress.MAG32, DefaultThresholdBits)})
	}
	if nn, err := workloads.ByName("NN"); err == nil {
		cells = append(cells, Cell{nn, TSLCConfig(slc.SIMP, compress.MAG32, DefaultThresholdBits)})
		cells = append(cells, Cell{nn, TSLCConfig(slc.PRED, compress.MAG32, DefaultThresholdBits)})
	}
	return cells
}

// EvaluationCells returns the union of every full-run cell the report
// executes (Figures 7, 8, 9 and the ablations), deduplicated by cell key.
func EvaluationCells() []Cell {
	var cells []Cell
	seen := make(map[string]bool)
	for _, c := range append(append(Fig7Cells(), Fig9Cells()...), AblationCells()...) {
		key := cellKey(c.Workload.Info().Name, c.Config)
		if seen[key] {
			continue
		}
		seen[key] = true
		cells = append(cells, c)
	}
	return cells
}

// RunnerCodecs builds the lossless and lossy codecs of a configuration from
// the registry, training any entropy table through the runner's cache.
// Identity codecs (the raw baseline) yield a nil pair; lossy codecs
// additionally build their lossless base for exact regions. External tools
// such as slctrace use it too.
func RunnerCodecs(r *Runner, w workloads.Workload, cfg Config) (lossless, lossy compress.Codec, err error) {
	return r.tables.Codecs(w, cfg.Codec, cfg.MAG, cfg.ThresholdBits, cfg.ErrorBound)
}
