package experiments

import (
	"fmt"
	"time"

	"repro/internal/compress"
	"repro/internal/gpu/sim"
	"repro/internal/workloads"
)

// Simulator throughput benchmarking: how fast does the discrete-event timing
// core replay the traces the workloads actually produce? Every matrix cell
// pays one full simulation, so events/s here is the wall-time floor of the
// whole evaluation. Each workload's trace is recorded under the paper's
// E2MC configuration (compressed traffic exercises the MDC, metadata fetches
// and the decompression path) and replayed repeatedly through one
// sim.Simulator; CI tracks the resulting ns/event per push via `slcbench
// -simbench` and fails the regression smoke test when it degrades more than
// SimBenchRegressionLimit against the committed baseline fixture.

// simBenchWindow is the per-workload measurement window. A fixed wall-clock
// budget keeps the measurement stable across trace sizes without letting
// slcbench runtime blow up.
const simBenchWindow = 120 * time.Millisecond

// SimBenchRegressionLimit is the tolerated ns/event ratio (measured over
// baseline) before the CI regression smoke step fails: 1.25 = a 25%
// slowdown.
const SimBenchRegressionLimit = 1.25

// SimBench is the measured simulator throughput for one workload's trace,
// recorded in the bench trajectory's Sim section when `slcbench -simbench`
// is given. Timings are machine-dependent; the Events/Accesses/Warps counts
// are deterministic.
type SimBench struct {
	Workload     string
	Config       string // compression configuration the trace was recorded under
	Workers      int    // event-lane workers (1 = serial engine)
	Replays      int    // replays measured inside the window
	Events       int64  // engine events per replay
	Accesses     int    // trace accesses per replay
	Warps        int
	WallMs       float64 // mean wall time of one replay, milliseconds
	NsPerEvent   float64
	EventsPerSec float64
}

// MeasureSimBench replays one workload's E2MC trace through a single
// Simulator until the measurement window fills and reports the throughput.
// Every replay's Result must be bitwise-identical to the first — a replay
// that diverges (state leaking across replays) is an error, not a timing.
func MeasureSimBench(r *Runner, w workloads.Workload, workers int) (SimBench, error) {
	name := w.Info().Name
	cfg := E2MCConfig(compress.MAG32)
	tr, _, err := r.Trace(w, cfg)
	if err != nil {
		return SimBench{}, fmt.Errorf("simbench: %w", err)
	}
	sc := SimConfig(cfg)
	sc.Workers = workers
	s, err := sim.New(sc)
	if err != nil {
		return SimBench{}, err
	}
	want, err := s.Replay(tr) // warm pools and caches; pin the expected Result
	if err != nil {
		return SimBench{}, fmt.Errorf("simbench %s: %w", name, err)
	}
	b := SimBench{
		Workload: name,
		Config:   cfg.Name,
		Workers:  workers,
		Events:   s.Events(),
	}
	ts := tr.Stats(cfg.MAG)
	b.Accesses = ts.Accesses
	b.Warps = ts.Warps

	var elapsed time.Duration
	for elapsed < simBenchWindow {
		start := time.Now() //slclint:allow determinism wall-clock throughput timing; replay output is compared bitwise below
		got, rerr := s.Replay(tr)
		elapsed += time.Since(start) //slclint:allow determinism wall-clock throughput timing, not simulated state
		if rerr != nil {
			return b, fmt.Errorf("simbench %s: %w", name, rerr)
		}
		if got != want {
			return b, fmt.Errorf("simbench %s: replay diverged from first run:\nfirst:  %+v\nreplay: %+v", name, want, got)
		}
		b.Replays++
	}
	b.WallMs = float64(elapsed.Nanoseconds()) / float64(b.Replays) / 1e6
	if b.Events > 0 {
		b.NsPerEvent = float64(elapsed.Nanoseconds()) / float64(int64(b.Replays)*b.Events)
		b.EventsPerSec = 1e9 / b.NsPerEvent
	}
	return b, nil
}

// CollectSimBenches measures simulator throughput for every registered
// workload — the Figure-2 set, the same traces the paper figures replay.
func CollectSimBenches(r *Runner, workers int) ([]SimBench, error) {
	if workers < 1 {
		workers = 1
	}
	var out []SimBench
	for _, w := range workloads.Registry() {
		b, err := MeasureSimBench(r, w, workers)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// CompareSimBench checks current throughput against a committed baseline and
// returns one message per regression: a workload whose ns/event grew beyond
// SimBenchRegressionLimit, or a deterministic count (events, accesses) that
// changed without the baseline being regenerated. Workloads present on only
// one side are ignored — adding a workload must not fail the smoke step.
func CompareSimBench(baseline, current []SimBench) []string {
	base := make(map[string]SimBench, len(baseline))
	for _, b := range baseline {
		base[b.Workload] = b
	}
	var regressions []string
	for _, c := range current {
		b, ok := base[c.Workload]
		if !ok {
			continue
		}
		if b.NsPerEvent > 0 && c.NsPerEvent > b.NsPerEvent*SimBenchRegressionLimit {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.1f ns/event vs baseline %.1f (%.2fx > %.2fx limit)",
				c.Workload, c.NsPerEvent, b.NsPerEvent, c.NsPerEvent/b.NsPerEvent, SimBenchRegressionLimit))
		}
		if b.Events != c.Events {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %d events per replay vs baseline %d (event stream changed; regenerate the baseline with -update)",
				c.Workload, c.Events, b.Events))
		}
	}
	return regressions
}
