// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation as testing.B benchmarks, reporting the headline
// numbers as custom metrics so `go test -bench` output doubles as a
// reproduction summary (see EXPERIMENTS.md for paper-vs-measured).
//
//	go test -bench=Fig7 -benchtime=1x .
//	go test -bench=. -benchmem ./...
package repro

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/experiments"
	"repro/internal/gpu/sim"
	"repro/internal/gpu/trace"
	"repro/internal/hw"
	"repro/internal/slc"
	"repro/internal/workloads"
)

// sharedRunner memoises runs across benchmarks, so Figure 8 reuses Figure
// 7's simulations exactly as the harness in internal/experiments does.
var (
	runnerOnce sync.Once
	runner     *experiments.Runner
)

func sharedR() *experiments.Runner {
	runnerOnce.Do(func() { runner = experiments.NewRunner() })
	return runner
}

// BenchmarkFig1CompressionRatios regenerates Figure 1: raw vs effective
// compression ratio of BDI, FPC, C-PACK and E2MC at 32 B MAG.
func BenchmarkFig1CompressionRatios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure1(sharedR(), compress.MAG32)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.GM.Raw["E2MC"], "E2MC-rawCR")
		b.ReportMetric(f.GM.Eff["E2MC"], "E2MC-effCR")
		b.ReportMetric(f.GapPct("E2MC"), "E2MC-gap%")
	}
}

// BenchmarkFig2Distribution regenerates Figure 2: the distribution of
// compressed blocks above multiples of MAG.
func BenchmarkFig2Distribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure2(sharedR(), compress.MAG32)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.FracAboveMultiple()*100, "recoverable%")
	}
}

// BenchmarkTable1Hardware regenerates Table I from the analytical 32 nm
// model.
func BenchmarkTable1Hardware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := hw.Model()
		b.ReportMetric(m.Comp.AreaMM2*1000, "comp-area-µm2/1000")
		b.ReportMetric(m.Comp.PowerMW, "comp-power-mW")
		b.ReportMetric(m.Comp.FreqGHz, "comp-freq-GHz")
	}
}

// BenchmarkFig7SpeedupError regenerates Figure 7: speedup and error of the
// three TSLC variants vs E2MC (paper GM: 1.090/1.098/1.097; GM error 0.99%).
func BenchmarkFig7SpeedupError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure7(sharedR())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.GMSpeedup[slc.SIMP], "GM-speedup-SIMP")
		b.ReportMetric(f.GMSpeedup[slc.PRED], "GM-speedup-PRED")
		b.ReportMetric(f.GMSpeedup[slc.OPT], "GM-speedup-OPT")
		b.ReportMetric(f.GMErrorPctOPT, "GM-error%-OPT")
	}
}

// BenchmarkFig8BandwidthEnergy regenerates Figure 8: normalised bandwidth,
// energy and EDP (paper GM: 0.86 / 0.917 / 0.825).
func BenchmarkFig8BandwidthEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure8(sharedR())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.GMBw[slc.OPT], "GM-bandwidth-OPT")
		b.ReportMetric(f.GMEnergy[slc.OPT], "GM-energy-OPT")
		b.ReportMetric(f.GMEDP[slc.OPT], "GM-EDP-OPT")
	}
}

// BenchmarkFig9MAGSensitivity regenerates Figure 9: TSLC-OPT across MAG
// 16/32/64 B (paper GM speedups: 1.05 / 1.097 / 1.09).
func BenchmarkFig9MAGSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure9(sharedR())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.GMSpeedup[compress.MAG16], "GM-speedup-16B")
		b.ReportMetric(f.GMSpeedup[compress.MAG32], "GM-speedup-32B")
		b.ReportMetric(f.GMSpeedup[compress.MAG64], "GM-speedup-64B")
	}
}

// BenchmarkSectionVCEffectiveCR regenerates the §V-C compression-ratio
// numbers (paper: raw 1.54; effective 1.41/1.31/1.16 at 16/32/64 B).
func BenchmarkSectionVCEffectiveCR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure9(sharedR())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.RawCRGM, "raw-CR")
		b.ReportMetric(f.EffCRGM[compress.MAG16], "eff-CR-16B")
		b.ReportMetric(f.EffCRGM[compress.MAG32], "eff-CR-32B")
		b.ReportMetric(f.EffCRGM[compress.MAG64], "eff-CR-64B")
	}
}

// benchRunAll executes the Figure-7 sweep on a fresh (cold) runner per
// iteration, so serial and parallel timings are comparable. Run with
// -benchtime=1x; compare BenchmarkRunAllSerial to BenchmarkRunAllParallel
// for the evaluation-engine speedup.
func benchRunAll(b *testing.B, workers int) {
	cells := experiments.Fig7Cells()
	b.ReportMetric(float64(len(cells)), "cells")
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		if _, err := r.RunAll(cells, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllSerial is the Figure-7 sweep on one worker.
func BenchmarkRunAllSerial(b *testing.B) { benchRunAll(b, 1) }

// BenchmarkRunAllParallel is the same sweep fanned across all cores.
func BenchmarkRunAllParallel(b *testing.B) { benchRunAll(b, runtime.GOMAXPROCS(0)) }

// BenchmarkAblationThreshold sweeps the lossy threshold on DCT — the design
// knob of §III-B (paper default 16 B).
func BenchmarkAblationThreshold(b *testing.B) {
	w, err := workloads.ByName("DCT")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r := sharedR()
		base, err := r.Run(w, experiments.E2MCConfig(compress.MAG32))
		if err != nil {
			b.Fatal(err)
		}
		for _, tb := range []int{8, 16, 32} {
			res, err := r.Run(w, experiments.TSLCConfig(slc.OPT, compress.MAG32, tb*8))
			if err != nil {
				b.Fatal(err)
			}
			name := map[int]string{8: "t8B", 16: "t16B", 32: "t32B"}[tb]
			b.ReportMetric(base.Sim.TimeNs/res.Sim.TimeNs, "speedup-"+name)
		}
	}
}

// BenchmarkAblationExtraNodes isolates TSLC-OPT's extra tree nodes (§III-F):
// how many symbols are approximated per lossy block with and without them.
func BenchmarkAblationExtraNodes(b *testing.B) {
	w, err := workloads.ByName("DCT")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r := sharedR()
		pred, err := r.Run(w, experiments.TSLCConfig(slc.PRED, compress.MAG32, 128))
		if err != nil {
			b.Fatal(err)
		}
		opt, err := r.Run(w, experiments.TSLCConfig(slc.OPT, compress.MAG32, 128))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pred.ErrorFrac*100, "error%-no-extra-nodes")
		b.ReportMetric(opt.ErrorFrac*100, "error%-with-extra-nodes")
	}
}

// BenchmarkAblationMDC shrinks the metadata cache to expose its role.
func BenchmarkAblationMDC(b *testing.B) {
	w, err := workloads.ByName("NN")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r := sharedR()
		cfg := experiments.TSLCConfig(slc.OPT, compress.MAG32, 128)
		full, err := experiments.RerunTiming(r, w, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		tiny, err := experiments.RerunTiming(r, w, cfg, func(c *sim.Config) {
			c.MC.MDCLines = 16
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tiny.TimeNs/full.TimeNs, "slowdown-16-line-MDC")
		b.ReportMetric(float64(tiny.MC.MDCMisses), "MDC-misses-tiny")
		b.ReportMetric(float64(full.MC.MDCMisses), "MDC-misses-default")
	}
}

// BenchmarkAblationPrediction compares the decode-side reconstruction
// policies on NN, where value prediction matters most (§III-E).
func BenchmarkAblationPrediction(b *testing.B) {
	w, err := workloads.ByName("NN")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r := sharedR()
		for _, v := range []slc.Variant{slc.SIMP, slc.PRED} {
			res, err := r.Run(w, experiments.TSLCConfig(v, compress.MAG32, 128))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.ErrorFrac*100, "error%-"+v.String())
		}
	}
}

// simBenchTrace is a synthetic streaming trace stressing the event engine:
// 1024 warps × 200 accesses with a write mixed in, matching the shape the
// sim package's own benchmarks use.
func simBenchTrace() *trace.Trace {
	k := trace.Kernel{Name: "bench", Warps: make([][]trace.Access, 1024)}
	for w := range k.Warps {
		accs := make([]trace.Access, 200)
		for i := range accs {
			addr := uint64(w)<<20 | uint64(i)<<7
			accs[i] = trace.Access{Addr: addr, Bursts: 4, Compute: 4, Compressed: true}
			if i%16 == 15 {
				accs[i].Write = true
			}
		}
		k.Warps[w] = accs
	}
	return &trace.Trace{Kernels: []trace.Kernel{k}}
}

// benchSimReplay replays the synthetic trace through one reusable Simulator
// at the given worker count, reporting events/s and ns/event — the same
// metrics `slcbench -simbench` tracks per workload.
func benchSimReplay(b *testing.B, workers int) {
	cfg := sim.DefaultConfig()
	cfg.Workers = workers
	s, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr := simBenchTrace()
	want, err := s.Replay(tr) // warm-up; pins the expected Result
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := s.Replay(tr)
		if err != nil {
			b.Fatal(err)
		}
		if got != want {
			b.Fatalf("replay diverged:\nfirst:  %+v\nreplay: %+v", want, got)
		}
	}
	b.StopTimer()
	events := float64(s.Events())
	nsPerEvent := float64(b.Elapsed().Nanoseconds()) / (float64(b.N) * events)
	b.ReportMetric(nsPerEvent, "ns/event")
	b.ReportMetric(1e9/nsPerEvent, "events/s")
}

// BenchmarkSimSerial is the trace replay on the serial engine.
func BenchmarkSimSerial(b *testing.B) { benchSimReplay(b, 1) }

// BenchmarkSimSharded4 shards the replay across 4 event-lane workers.
func BenchmarkSimSharded4(b *testing.B) { benchSimReplay(b, 4) }

// BenchmarkSimShardedAll shards the replay across all cores.
func BenchmarkSimShardedAll(b *testing.B) { benchSimReplay(b, runtime.GOMAXPROCS(0)) }

// decodeCorpora builds (once) the per-workload entropy-decode corpora the
// decode benchmarks share: blocks sampled from each registered workload's
// device image, encoded with that workload's trained table.
var (
	corporaOnce sync.Once
	corpora     []*experiments.DecodeCorpus
	corporaErr  error
)

func decodeCorpora() ([]*experiments.DecodeCorpus, error) {
	corporaOnce.Do(func() {
		for _, w := range workloads.Registry() {
			c, err := experiments.BuildDecodeCorpus(sharedR(), w, 0)
			if err != nil {
				corporaErr = err
				return
			}
			corpora = append(corpora, c)
		}
	})
	return corpora, corporaErr
}

// benchDecode drives one decoder over every corpus block per iteration and
// reports the mean ns/block. Compare BenchmarkDecodeLUT against
// BenchmarkDecodeReference for the LUT fast-path speedup (the PR's
// acceptance bar is ≥ 3×); `slcbench -decodebench` reports the same split
// per workload.
func benchDecode(b *testing.B, fn func(c *experiments.DecodeCorpus, it *experiments.DecodeItem) error) {
	cs, err := decodeCorpora()
	if err != nil {
		b.Fatal(err)
	}
	blocks := 0
	for _, c := range cs {
		blocks += len(c.Items)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cs {
			for j := range c.Items {
				if err := fn(c, &c.Items[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blocks), "ns/block")
}

// BenchmarkDecodeLUT times the table-driven decode fast path.
func BenchmarkDecodeLUT(b *testing.B) {
	benchDecode(b, func(c *experiments.DecodeCorpus, it *experiments.DecodeItem) error {
		_, err := c.Table.DecodeWays(it.Payload, it.Starts, 0, 0)
		return err
	})
}

// BenchmarkDecodeReference times the retained bit-by-bit decoder.
func BenchmarkDecodeReference(b *testing.B) {
	benchDecode(b, func(c *experiments.DecodeCorpus, it *experiments.DecodeItem) error {
		_, err := c.Table.DecodeWaysRef(it.Payload, it.Starts, 0, 0)
		return err
	})
}
