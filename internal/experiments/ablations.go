package experiments

import (
	"fmt"
	"strings"

	"repro/internal/compress"
	"repro/internal/gpu/sim"
	"repro/internal/slc"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Ablations exercises the design choices DESIGN.md calls out, beyond the
// paper's own figures: the lossy threshold, the TSLC-OPT extra tree nodes,
// the prediction policy and the metadata cache size.
type Ablations struct {
	// Threshold sweep (GM over all benchmarks at MAG 32B).
	Thresholds  []int // bytes
	GMSpeedup   []float64
	GMErrorPct  []float64
	GMBandwidth []float64

	// Extra-node ablation on DCT (PRED tree vs OPT tree, same prediction).
	ExtraNodesErrPct  [2]float64 // [without, with]
	ExtraNodesSpeedup [2]float64
	PredictionErrPct  [2]float64 // [SIMP zeros, PRED value-similarity] on NN
	MDCSlowdownTiny   float64    // 16-line MDC vs default, NN
	MDCMissesTiny     int
	MDCMissesDefault  int
}

// ablationThresholds are the lossy thresholds of the sweep, in bytes.
var ablationThresholds = []int{4, 8, 16, 24, 32}

// RunAblations executes the sweeps. Every figure comes from the runner's
// memoised cells (AblationCells); only the MDC study re-times one of them,
// replaying its trace with a 16-line metadata cache. The threshold sweep
// covers all nine benchmarks.
func RunAblations(r *Runner) (Ablations, error) {
	a := Ablations{Thresholds: ablationThresholds}

	for _, tb := range a.Thresholds {
		var sp, er, bw []float64
		for _, w := range workloads.Registry() {
			base, err := r.Run(w, E2MCConfig(compress.MAG32))
			if err != nil {
				return Ablations{}, err
			}
			res, err := r.Run(w, TSLCConfig(slc.OPT, compress.MAG32, tb*8))
			if err != nil {
				return Ablations{}, err
			}
			sp = append(sp, base.Sim.TimeNs/res.Sim.TimeNs)
			er = append(er, res.ErrorFrac*100)
			bw = append(bw, float64(res.Sim.DramBytes)/float64(base.Sim.DramBytes))
		}
		a.GMSpeedup = append(a.GMSpeedup, stats.Geomean(sp))
		a.GMErrorPct = append(a.GMErrorPct, stats.Geomean(er))
		a.GMBandwidth = append(a.GMBandwidth, stats.Geomean(bw))
	}

	dct, err := workloads.ByName("DCT")
	if err != nil {
		return Ablations{}, err
	}
	base, err := r.Run(dct, E2MCConfig(compress.MAG32))
	if err != nil {
		return Ablations{}, err
	}
	pred, err := r.Run(dct, TSLCConfig(slc.PRED, compress.MAG32, DefaultThresholdBits))
	if err != nil {
		return Ablations{}, err
	}
	opt, err := r.Run(dct, TSLCConfig(slc.OPT, compress.MAG32, DefaultThresholdBits))
	if err != nil {
		return Ablations{}, err
	}
	a.ExtraNodesErrPct = [2]float64{pred.ErrorFrac * 100, opt.ErrorFrac * 100}
	a.ExtraNodesSpeedup = [2]float64{
		base.Sim.TimeNs / pred.Sim.TimeNs,
		base.Sim.TimeNs / opt.Sim.TimeNs,
	}

	nn, err := workloads.ByName("NN")
	if err != nil {
		return Ablations{}, err
	}
	simp, err := r.Run(nn, TSLCConfig(slc.SIMP, compress.MAG32, DefaultThresholdBits))
	if err != nil {
		return Ablations{}, err
	}
	predNN, err := r.Run(nn, TSLCConfig(slc.PRED, compress.MAG32, DefaultThresholdBits))
	if err != nil {
		return Ablations{}, err
	}
	a.PredictionErrPct = [2]float64{simp.ErrorFrac * 100, predNN.ErrorFrac * 100}

	cfg := TSLCConfig(slc.OPT, compress.MAG32, DefaultThresholdBits)
	full, err := r.Run(nn, cfg)
	if err != nil {
		return Ablations{}, err
	}
	tr, _, err := r.Trace(nn, cfg)
	if err != nil {
		return Ablations{}, err
	}
	sc := r.simConfig(cfg)
	sc.MC.MDCLines = 16
	tiny, err := sim.Run(tr, sc)
	if err != nil {
		return Ablations{}, err
	}
	a.MDCSlowdownTiny = tiny.TimeNs / full.Sim.TimeNs
	a.MDCMissesTiny = tiny.MC.MDCMisses
	a.MDCMissesDefault = full.Sim.MC.MDCMisses
	return a, nil
}

// String renders the ablation study.
func (a Ablations) String() string {
	var b strings.Builder
	b.WriteString("Ablations\n")
	b.WriteString("---------\n")
	b.WriteString("Lossy threshold sweep (TSLC-OPT, MAG 32B, GM over 9 benchmarks):\n")
	fmt.Fprintf(&b, "  %-10s %10s %10s %12s\n", "threshold", "speedup", "error[%]", "bandwidth")
	for i, tb := range a.Thresholds {
		fmt.Fprintf(&b, "  %8dB %10.3f %10.3f %12.3f\n",
			tb, a.GMSpeedup[i], a.GMErrorPct[i], a.GMBandwidth[i])
	}
	fmt.Fprintf(&b, "\nTSLC-OPT extra tree nodes (DCT): error %.3f%% → %.3f%%, speedup %.3f → %.3f\n",
		a.ExtraNodesErrPct[0], a.ExtraNodesErrPct[1],
		a.ExtraNodesSpeedup[0], a.ExtraNodesSpeedup[1])
	fmt.Fprintf(&b, "Prediction policy (NN): zeros %.2f%% error → value-similarity %.2f%%\n",
		a.PredictionErrPct[0], a.PredictionErrPct[1])
	fmt.Fprintf(&b, "MDC sized 16 lines (NN): %.3f× slowdown, %d misses (default: %d)\n",
		a.MDCSlowdownTiny, a.MDCMissesTiny, a.MDCMissesDefault)
	return b.String()
}
