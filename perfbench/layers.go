package main

import "time"

// serveCodecs are the codecs serve-mixed drives, each with the workload
// whose device image supplies its blocks and, for table-trained codecs, the
// training profile.
var serveCodecs = []struct {
	name    string
	profile string // training profile sent with the request ("" if none)
	source  string // workload whose device image feeds it ("" = any of them)
}{
	{"e2mc", "TP", "TP"},
	{"tslc-opt", "DCT", "DCT"},
	{"bdi", "", ""},
	{"fpc", "", ""},
	{"lz4b", "", ""},
	{"sz-lorenzo", "", "HPC-S"},
}

// shareLayers are the layers whose self time the traced run divides its
// goroutine-time among; share.other is the remainder (idle and glue).
var shareLayers = []string{
	"sim", "pipeline", "workloads", "golden", "tables", "metrics", "power", "wait",
	"serving", "http_json", "http_transport", "client",
}

// layerMetric is one per-layer metric every traced run prints.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric, in BENCHMARK.json order. A
// workload that does not exercise a layer prints 0 for it.
func layerMetrics() []layerMetric {
	ms := []layerMetric{
		{"sim.replay_ms", "ms"}, {"sim.events", "count"}, {"sim.ns_per_event", "ns"},
		{"sim.mdc_hit_frac", "frac"}, {"sim.dram_row_hit_frac", "frac"},
		{"pipeline.sync_ms", "ms"}, {"pipeline.blocks", "count"}, {"pipeline.ns_per_block", "ns"},
		{"pipeline.lossy_frac", "frac"},
		{"workloads.self_ms", "ms"},
		{"golden.ms", "ms"}, {"golden.runs", "count"},
		{"tables.train_ms", "ms"}, {"tables.trains", "count"},
		{"metrics.eval_ms", "ms"}, {"power.ms", "ms"}, {"trace.accesses", "count"},
		{"wait.ms", "ms"},
	}
	for _, c := range serveCodecs {
		ms = append(ms,
			layerMetric{"codec." + c.name + ".compress_ns_per_block", "ns"},
			layerMetric{"codec." + c.name + ".decompress_ns_per_block", "ns"},
			layerMetric{"codec." + c.name + ".raw_ratio", "ratio"},
			layerMetric{"serving." + c.name + ".compress_ns_per_block", "ns"},
			layerMetric{"serving." + c.name + ".decompress_ns_per_block", "ns"},
		)
	}
	ms = append(ms,
		layerMetric{"serving.compress_us", "us"}, layerMetric{"serving.decompress_us", "us"},
		layerMetric{"http.json_decode_us", "us"}, layerMetric{"http.json_encode_us", "us"},
		layerMetric{"http.transport_self_us", "us"}, layerMetric{"serving.rejected", "count"},
		layerMetric{"serve.compress_p50_ms", "ms"}, layerMetric{"serve.compress_p99_ms", "ms"},
		layerMetric{"serve.compress_samples", "count"},
		layerMetric{"serve.decompress_p50_ms", "ms"}, layerMetric{"serve.decompress_p99_ms", "ms"},
		layerMetric{"serve.decompress_samples", "count"},
	)
	for _, l := range shareLayers {
		ms = append(ms, layerMetric{"share." + l, "frac"})
	}
	ms = append(ms,
		layerMetric{"share.other", "frac"},
		layerMetric{"trace.wall_ms", "ms"},
		layerMetric{"trace.overhead_frac", "frac"},
	)
	return ms
}

// setLayers prints every per-layer metric, taking values from vals (absent
// ones are 0), and derives share.* from the self times in shares over the
// traced phase's goroutine-time.
func setLayers(res *result, vals map[string]float64, shares map[string]time.Duration, capacity time.Duration) {
	var covered time.Duration
	for _, l := range shareLayers {
		vals["share."+l] = frac(float64(shares[l]), float64(capacity))
		covered += shares[l]
	}
	vals["share.other"] = frac(float64(capacity-covered), float64(capacity))
	for _, m := range layerMetrics() {
		res.set(m.name, vals[m.name], m.unit)
	}
}

// setEvalLayers turns the evaluation mirror's spans and counts into the
// per-layer metrics.
func setEvalLayers(res *result, tot totals, lc *layerCounts, capacity, tracedWall time.Duration, overhead float64) {
	replay := tot.dur[spanReplay]
	sync := tot.dur[spanSync]
	vals := map[string]float64{
		"sim.replay_ms":         ms(replay),
		"sim.events":            float64(lc.events),
		"sim.ns_per_event":      frac(float64(replay), float64(lc.events)),
		"sim.mdc_hit_frac":      frac(float64(lc.mdcHits), float64(lc.mdcHits+lc.mdcMisses)),
		"sim.dram_row_hit_frac": frac(float64(lc.rowHits), float64(lc.rowHits+lc.rowMisses)),
		"pipeline.sync_ms":      ms(sync),
		"pipeline.blocks":       float64(lc.blocks),
		"pipeline.ns_per_block": frac(float64(sync), float64(lc.blocks)),
		"pipeline.lossy_frac":   frac(float64(lc.lossyBlocks), float64(lc.blocks)),
		"workloads.self_ms":     ms(tot.self[spanRun]),
		"golden.ms":             ms(tot.dur[spanGoldenRun] + tot.self[spanGolden]),
		"golden.runs":           float64(tot.count[spanGoldenRun]),
		"tables.train_ms":       ms(tot.dur[spanTrainRun] + tot.self[spanTables]),
		"tables.trains":         float64(tot.count[spanTrainRun]),
		"metrics.eval_ms":       ms(tot.dur[spanMetrics]),
		"power.ms":              ms(tot.dur[spanPower]),
		"trace.accesses":        float64(lc.accesses),
		"wait.ms":               ms(tot.waitSelf),
		"trace.wall_ms":         ms(tracedWall),
		"trace.overhead_frac":   overhead,
	}
	shares := map[string]time.Duration{
		"sim":       tot.self[spanSimNew] + tot.self[spanReplay],
		"pipeline":  tot.self[spanPipeNew] + tot.self[spanSync],
		"workloads": tot.self[spanRun],
		"golden":    tot.self[spanGoldenRun] + tot.self[spanGolden],
		"tables":    tot.self[spanTrainRun] + tot.self[spanTables],
		"metrics":   tot.self[spanMetrics],
		"power":     tot.self[spanPower],
		"wait":      tot.waitSelf,
	}
	setLayers(res, vals, shares, capacity)
}
