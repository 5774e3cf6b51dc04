// Package tables trains and memoises the e2mc entropy tables that stand in
// for E2MC's online sampling, and builds registry codecs on top of them. It
// sits below both of its clients — the experiment Runner and the slcd
// serving core — so an evaluation run and a long-running daemon share one
// table-training path and one result-store layout, and neither imports the
// other.
package tables

import (
	"fmt"
	"sync/atomic"

	"repro/internal/compress"
	"repro/internal/compress/e2mc"
	"repro/internal/flight"
	"repro/internal/gpu/device"
	"repro/internal/resultstore"
	"repro/internal/workloads"
)

// Store record kind of trained entropy tables. The kind and the key
// material below are unchanged since tables were first stored, so existing
// stores keep hitting.
const kindTable = "table"

// Cache resolves trained e2mc entropy tables by workload: memory hit →
// resultstore hit → train, inside a singleflight slot per workload, so any
// number of concurrent callers (serving traffic or evaluation cells) train
// a given table at most once per process — and, with a store attached, at
// most once ever. The zero value is a ready, memory-only cache.
type Cache struct {
	// Store returns the result store consulted before training, or nil for
	// a memory-only cache. It is a func so a late-attached store (the
	// Runner's Store field is assigned after construction) is still seen.
	Store func() *resultstore.Store

	// Progress, when set, receives one line per slow-path operation
	// (training) and any store failure. Calls may come from any goroutine;
	// the provider serialises.
	Progress func(format string, args ...interface{})

	tables flight.Group[*e2mc.Table]

	requests atomic.Int64
	retrains atomic.Int64
	diskHits atomic.Int64
}

// progress logs through the cache's hook when one is set.
func (c *Cache) progress(format string, args ...interface{}) {
	if c.Progress != nil {
		c.Progress(format, args...)
	}
}

// store returns the attached result store, if any.
func (c *Cache) store() *resultstore.Store {
	if c.Store == nil {
		return nil
	}
	return c.Store()
}

// tableMaterial keys a workload's trained entropy table: the sampling
// scheme (every region sync) and the table construction parameters.
func tableMaterial(w workloads.Workload) resultstore.Material {
	return resultstore.Material{
		"workload":   workloads.Fingerprint(w),
		"sampling":   "region-sync-v1",
		"maxSymbols": e2mc.DefaultMaxSymbols,
		"maxCodeLen": e2mc.DefaultMaxCodeLen,
	}
}

// Table returns the workload's E2MC table, trained by sampling the device
// image at every region synchronisation — the online-sampling substitute.
// Concurrent calls for the same workload resolve in one singleflight slot.
func (c *Cache) Table(w workloads.Workload) (*e2mc.Table, error) {
	c.requests.Add(1)
	return c.tables.Do(w.Info().Name, func() (*e2mc.Table, error) {
		trained := false
		tab, err := resultstore.Memo(c.store(), kindTable, tableMaterial(w), resultstore.Binary[e2mc.Table](), c.progress, func() (*e2mc.Table, error) {
			trained = true
			return c.train(w)
		})
		if err == nil && !trained {
			c.diskHits.Add(1)
		}
		return tab, err
	})
}

// train samples every block of every region synchronisation of one
// workload run and builds the table from the sampled statistics.
func (c *Cache) train(w workloads.Workload) (*e2mc.Table, error) {
	name := w.Info().Name
	c.progress("training table: %s", name)
	c.retrains.Add(1)
	dev := device.New()
	trainer := e2mc.NewTrainer()
	sync := func(reg device.Region) {
		reg.BlockAddrs(func(addr uint64) {
			block, err := dev.Block(addr)
			if err != nil {
				panic(err)
			}
			trainer.Sample(block)
		})
	}
	if _, err := w.Run(workloads.NewCtx(dev, nil, sync)); err != nil {
		return nil, fmt.Errorf("training %s: %w", name, err)
	}
	tab, err := trainer.Build(0, 0)
	if err != nil {
		return nil, fmt.Errorf("building table for %s: %w", name, err)
	}
	return tab, nil
}

// Stats is a snapshot of the cache's traffic counters.
type Stats struct {
	// Requests counts Table calls (memory hits included).
	Requests int64
	// Retrains counts slow-path table trainings — the number the serving
	// acceptance test pins at zero for a warm repeated request.
	Retrains int64
	// DiskHits counts tables served from the result store.
	DiskHits int64
}

// Stats returns the cache's traffic counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Requests: c.requests.Load(),
		Retrains: c.retrains.Load(),
		DiskHits: c.diskHits.Load(),
	}
}

// Codecs builds the (lossless, lossy) codec pair of a configuration from
// the registry, resolving any trained table through the cache. Identity
// codecs (the raw baseline) yield a nil pair; lossy codecs additionally
// build their lossless base for exact regions.
func (c *Cache) Codecs(w workloads.Workload, codec string, mag compress.MAG, thresholdBits int, errorBound float64) (lossless, lossy compress.Codec, err error) {
	info, ok := compress.Lookup(codec)
	if !ok {
		return nil, nil, compress.UnknownCodecError(codec)
	}
	if info.Identity {
		return nil, nil, nil
	}
	ctx := compress.BuildContext{MAG: mag, ThresholdBits: thresholdBits, ErrorBound: errorBound}
	if info.NeedsTable {
		tab, err := c.Table(w)
		if err != nil {
			return nil, nil, err
		}
		ctx.Table = tab
	}
	built, err := info.New(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("tables: building %q: %w", codec, err)
	}
	if !info.Lossy {
		return built, nil, nil
	}
	if info.Base == "" {
		return nil, nil, fmt.Errorf("tables: lossy codec %q registers no lossless base", codec)
	}
	base, err := compress.Build(info.Base, ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("tables: building base %q for %q: %w", info.Base, codec, err)
	}
	return base, built, nil
}
