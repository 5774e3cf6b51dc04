package experiments

import (
	"repro/internal/resultstore"
	"repro/internal/workloads"
)

// Disk persistence of memoised Runner computations. When Runner.Store is
// set, every singleflight slot resolves memory hit → disk hit → compute
// through resultstore.Memo: the first request for a key consults the store
// before computing, and a computed value is written back so later
// processes (and CI runs sharing a cached store directory) skip the work
// entirely. Keys are content addresses over everything that determines the
// value — the workload's generated-input fingerprint, the full
// configuration, the derived simulator configuration (including Workers,
// per the store's "any knob in the key" rule) — plus the store's schema
// version and code fingerprint (resultstore.NewKey), so any change
// recomputes instead of serving stale records.

// Store record kinds. The trained-table kind and material live with the
// table cache in internal/tables (byte-identical key material, so existing
// stores keep hitting).
const (
	kindGolden = "golden"
	kindCell   = "cell"
	kindComp   = "comp"
)

// goldenMaterial keys a workload's exact outputs.
func goldenMaterial(w workloads.Workload) resultstore.Material {
	return resultstore.Material{"workload": workloads.Fingerprint(w)}
}

// cellMaterial keys one full evaluation cell: workload content, the
// complete Config and the derived simulator configuration the cell runs
// under (so MAG, threshold, codec name, latencies and worker counts each
// change the key).
func (r *Runner) cellMaterial(w workloads.Workload, cfg Config) resultstore.Material {
	return resultstore.Material{
		"workload": workloads.Fingerprint(w),
		"config":   cfg,
		"sim":      r.simConfig(cfg),
	}
}

// compMaterial keys a compression-only cell (no timing simulation).
func compMaterial(w workloads.Workload, cfg Config) resultstore.Material {
	return resultstore.Material{
		"workload": workloads.Fingerprint(w),
		"config":   cfg,
	}
}

// StoreStats returns the attached store's traffic counters, or nil when the
// runner computes everything in memory. slcbench surfaces it in -json
// output, which is how "a warm run performed zero recomputations" is
// observable.
func (r *Runner) StoreStats() *resultstore.Stats {
	if r.Store == nil {
		return nil
	}
	st := r.Store.Stats()
	return &st
}
