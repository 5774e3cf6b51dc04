package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/compress"
	"repro/internal/gpu/sim"
	"repro/internal/workloads"
)

// simGoldenWorkers are the engine worker counts every trace is replayed at:
// the serial engine and the sharded one.
var simGoldenWorkers = []int{1, 4}

// simGolden is one pinned replay: a workload's E2MC@32B trace through
// sim.Simulator at one worker count.
type simGolden struct {
	Workload string
	Config   string
	Workers  int
	Events   int64
	Result   sim.Result
}

// TestSimResultsGolden pins the timing simulator on every real workload
// trace: each workload's E2MC@32B trace (recorded exactly as simbench
// records it) is replayed at workers 1 and 4, and the Result and event
// count must match the committed fixture bit for bit. Together with
// TestShardedMatchesSerial this is the simulator's replay contract: a
// refactor of events, dram, mc or sim that moves any event leaves a diff
// here. Regenerate deliberately with
//
//	go test ./internal/experiments/ -run SimResultsGolden -update
//
// after an intentional model change.
func TestSimResultsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("replays all nine workload traces")
	}
	r := NewRunner()
	cfg := E2MCConfig(compress.MAG32)
	ws := workloads.Registry()
	got := make([][]simGolden, len(ws))
	t.Run("replay", func(t *testing.T) {
		for i, w := range ws {
			t.Run(w.Info().Name, func(t *testing.T) {
				t.Parallel()
				tr, sc, err := simBenchTrace(r, w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range simGoldenWorkers {
					sc.Workers = workers
					s, err := sim.New(sc)
					if err != nil {
						t.Fatal(err)
					}
					res, err := s.Replay(tr)
					if err != nil {
						t.Fatal(err)
					}
					got[i] = append(got[i], simGolden{
						Workload: w.Info().Name,
						Config:   cfg.Name,
						Workers:  workers,
						Events:   s.Events(),
						Result:   res,
					})
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	var flat []simGolden
	for _, g := range got {
		flat = append(flat, g...)
	}
	data, err := json.MarshalIndent(flat, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "sim_results_golden.json")
	if *update {
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d replays)", path, len(flat))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(data, want) {
		return
	}
	var pinned []simGolden
	if err := json.Unmarshal(want, &pinned); err != nil {
		t.Fatalf("%s: %v (regenerate with -update)", path, err)
	}
	if len(pinned) != len(flat) {
		t.Fatalf("%s pins %d replays, the run produced %d", path, len(pinned), len(flat))
	}
	for i := range flat {
		if flat[i] != pinned[i] {
			t.Errorf("%s workers=%d diverged from %s:\npinned: %+v\ngot:    %+v",
				flat[i].Workload, flat[i].Workers, path, pinned[i], flat[i])
		}
	}
}
