package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/serving"
)

var update = flag.Bool("update", false, "regenerate digests.json from a full serial sweep of each evaluation workload")

// benchmarkSpec is the part of BENCHMARK.json the self-tests check.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// lastLine parses the result a run printed last.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// TestEveryMetricPrinted runs every workload of BENCHMARK.json at -tiny
// size, untraced and traced, and checks that exactly the declared metrics
// are printed with their declared units.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloadFns) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloadFns))
	}
	declared := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range spec.EndToEnd {
		declared["0"][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		declared["1"][m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		for _, tr := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0.2", "--trace", tr, "-tiny", "-spans", t.TempDir()}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", w.Name, tr, code, stderr.String())
			}
			res := lastLine(t, stdout.String())
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, tr, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range declared[tr] {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%s: metric %s not printed", w.Name, tr, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, tr, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := declared[tr][name]; !ok {
					t.Errorf("%s trace=%s: metric %s is not in BENCHMARK.json", w.Name, tr, name)
				}
			}
		}
	}
}

// TestLayerMetricsMatchSpec pins the per-layer list the code prints to the
// one BENCHMARK.json declares, in order.
func TestLayerMetricsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	got := layerMetrics()
	if len(got) != len(spec.PerLayer) {
		t.Fatalf("code prints %d per-layer metrics, BENCHMARK.json declares %d", len(got), len(spec.PerLayer))
	}
	for i, m := range got {
		if m.name != spec.PerLayer[i].Name || m.unit != spec.PerLayer[i].Unit {
			t.Errorf("per-layer metric %d: code %s [%s], BENCHMARK.json %s [%s]", i, m.name, m.unit, spec.PerLayer[i].Name, spec.PerLayer[i].Unit)
		}
	}
}

func tinyOptions() options {
	return options{seed: 5, seconds: 0.2, tiny: true, log: io.Discard}
}

// TestCorruptDigestFails proves the evaluation oracle bites: one wrong
// committed digest fails the run.
func TestCorruptDigestFails(t *testing.T) {
	all, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for k, v := range all[evalCompress.name] {
		want[k] = v
	}
	var keys []string
	for _, c := range evalCompress.cellsFor(true) {
		keys = append(keys, cellKey(c))
	}
	sort.Strings(keys)
	want[keys[0]] = "0000000000000000"
	res, err := runEval(tinyOptions(), evalCompress, want)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("corrupted digest of %s: correct=%v failed=%d, want a failed run with 1 failure", keys[0], res.Correct, res.Failed)
	}
}

// TestCorruptPayloadFails proves the serve oracle bites: flipping one bit
// of every decompress request's first payload byte fails the run.
func TestCorruptPayloadFails(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and trains tables")
	}
	res, err := runServe(tinyOptions(), func(req *serving.DecompressRequest) {
		if p := req.Blocks[0].Payload; len(p) > 0 {
			p[0] ^= 0x40
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("corrupted payloads: correct=%v failed=%d of %d, want failures", res.Correct, res.Failed, res.Attempted)
	}
}

// TestUpdateDigests regenerates digests.json (go test -run UpdateDigests
// -update) from one serial sweep per evaluation workload; the benchmark's
// 2-worker sweeps must then reproduce it.
func TestUpdateDigests(t *testing.T) {
	if !*update {
		t.Skip("pass -update to regenerate digests.json")
	}
	out := map[string]map[string]string{}
	for _, k := range []evalKind{evalFull, evalCompress} {
		r := experiments.NewRunner()
		out[k.name] = map[string]string{}
		for _, c := range k.cellsFor(false) {
			var v any
			var err error
			if k.full {
				v, err = r.Run(c.Workload, c.Config)
			} else {
				v, err = r.CompressionOnly(c.Workload, c.Config)
			}
			if err != nil {
				t.Fatal(err)
			}
			out[k.name][cellKey(c)] = digest(v)
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("digests.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestQuartilesMatchPython pins quartile to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	for i, want := range []float64{2.75, 5.5, 8.25} {
		if got := quartile(xs, i+1); got != want {
			t.Errorf("quartile %d = %v, want %v", i+1, got, want)
		}
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
}

// TestReportVerdicts feeds the report two synthetic run sets: a clear
// throughput gain and a latency regression beyond its bound.
func TestReportVerdicts(t *testing.T) {
	bench := filepath.Join(t.TempDir(), "BENCHMARK.json")
	spec := `{"end_to_end": [
		{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
		{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`
	if err := os.WriteFile(bench, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	base, head := t.TempDir(), t.TempDir()
	for i := 0; i < 10; i++ {
		for _, side := range []struct {
			dir      string
			ops, lat float64
		}{{base, 100 + float64(i%3), 1 + float64(i%2)/100}, {head, 120 + float64(i%3), 1.5}} {
			res := result{Correct: true, Attempted: 1}
			res.set("ops_per_s", side.ops, "1/s")
			res.set("op_p50_ms", side.lat, "ms")
			line, _ := json.Marshal(res)
			dir := filepath.Join(side.dir, "eval-full")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed%d.out", i)), append([]byte("log line\n"), line...), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"report", "-bench", bench, base, head}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"ops_per_s", "gain", "op_p50_ms", "regression", "10/10"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}
