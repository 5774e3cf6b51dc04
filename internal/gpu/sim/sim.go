// Package sim is the trace-driven GPU timing simulator that substitutes for
// gpgpu-sim in this reproduction. It replays per-warp memory access traces
// through an event-driven model of the GTX580-class configuration of the
// paper's Table II: 16 SMs whose warps hide memory latency, a shared
// write-back L2, and 6 memory controllers driving 12 × 32-bit GDDR5
// channels (FR-FCFS scheduled) with compression integrated in the
// controllers.
//
// The model captures what the paper's effect depends on — burst traffic
// versus channel bandwidth, latency hiding limits, and (de)compression
// latencies — while abstracting intra-SM pipelines into per-access issue
// gaps carried by the trace.
//
// The simulator is sharded across event lanes: the SM/L2/controller
// front-end runs on a coordinator lane and every GDDR5 channel on its own
// lane, exchanging messages that always carry at least the memory-path
// latency. That latency is the engine's lookahead, so Config.Workers > 1
// replays the lanes concurrently inside conservative time windows with
// results bitwise-identical to the serial engine (Workers ≤ 1).
//
// Simulator is the typed-event implementation: warp progress is driven by
// small value Event records (opTryIssue/opIssue/opRespond) dispatched
// through the lanes' handler tables, and all model state — engine, caches,
// memory system, warp and SM arrays — is built once in New and reset in
// place by Replay. After a warm-up replay the steady-state loop performs
// zero heap allocations (pinned by TestSimSteadyStateAllocFree). The
// Results of all nine workload traces, serial and sharded, are pinned by
// TestSimResultsGolden in internal/experiments.
package sim

import (
	"fmt"

	"repro/internal/compress"
	"repro/internal/gpu/cache"
	"repro/internal/gpu/events"
	"repro/internal/gpu/mc"
	"repro/internal/gpu/trace"
)

// Config is the simulator configuration (paper Table II).
type Config struct {
	SMs           int
	SMClockMHz    float64
	MaxWarpsPerSM int // 1536 threads / 32
	// MAG is the memory access granularity: bytes moved per DRAM burst.
	MAG compress.MAG
	// L1 is the per-SM cache (Table II: 16 KB/SM). It caches global loads
	// and is write-through: stores invalidate and go to the L2.
	L1 cache.Config
	// L1HitCycles is the SM-cycle latency of an L1 hit.
	L1HitCycles int
	L2          cache.Config
	// L2HitCycles is the SM-cycle round trip for an L2 hit.
	L2HitCycles int
	// MemPathCycles is the one-way SM-cycle cost between L2 and the memory
	// controllers (interconnect + queuing), paid on each side of a miss.
	// It is also the sharded engine's lookahead: the minimum latency of
	// every cross-lane message.
	MemPathCycles int
	// WarpMLP is the per-warp memory-level parallelism: how many loads a
	// warp keeps in flight before stalling (scoreboarded stall-on-use).
	WarpMLP int
	MC      mc.Config
	// Workers is the number of goroutines draining the event lanes: ≤ 1
	// selects the serial engine, larger values the sharded engine. Results
	// are bitwise-identical either way.
	Workers int

	// Display-only fields of Table II (not modelled directly: the L1 is
	// absorbed into trace generation, registers and shared memory do not
	// affect a trace replay).
	L1PerSMKB      int
	MaxCTASize     int
	RegistersPerSM int
	SharedMemKB    int
}

// DefaultConfig returns the paper's baseline simulator configuration.
func DefaultConfig() Config {
	return Config{
		SMs:           16,
		SMClockMHz:    822,
		MaxWarpsPerSM: 48,
		MAG:           compress.MAG32,
		L1:            cache.Config{SizeBytes: 16 << 10, LineBytes: 128, Ways: 4},
		L1HitCycles:   30,
		L2:            cache.Config{SizeBytes: 768 << 10, LineBytes: 128, Ways: 16},
		L2HitCycles:   120,
		MemPathCycles: 60,
		WarpMLP:       8,
		MC:            mc.DefaultConfig(),

		L1PerSMKB:      16,
		MaxCTASize:     512,
		RegistersPerSM: 32 << 10,
		SharedMemKB:    48,
	}
}

// Result summarises one simulation.
type Result struct {
	TimeNs       float64
	SMCycles     float64
	Accesses     int
	Instructions int64
	L1           cache.Stats
	L2           cache.Stats
	MC           mc.Stats
	// DramBursts counts every burst command on the channels' data buses;
	// DramMetaBursts is the subset fetching compression metadata (MDC miss
	// fills). DramBytes is data traffic only: (DramBursts −
	// DramMetaBursts) × MAG.
	DramBursts     int
	DramMetaBursts int
	DramBytes      int
	RowHits        int
	RowMisses      int
	Activations    int
	BusBusyNs      float64
	Warps          int
}

type blockXfer struct {
	bursts     int
	compressed bool
}

type warpState struct {
	accs        []trace.Access
	idx         int
	sm          int
	outstanding int
	stalled     bool
	done        bool
}

type smState struct {
	issueFreeNs float64
	// pending holds warp indices waiting for residency; pendHead advances
	// instead of re-slicing so the backing array is reusable across kernels
	// and replays.
	pending  []int32
	pendHead int
	resident int
}

// Simulator front-end opcodes (events.KindSim). ev.A is the warp index into
// the current kernel's warp array; opIssue's ev.B is the access index.
const (
	opTryIssue uint8 = iota + 1
	opIssue
	opRespond
)

// Simulator replays traces under one fixed configuration. It is the
// long-lived face of the simulation core: the engine, caches, memory system
// and warp arrays are built by New and reset in place by Replay, so
// throughput tooling (`slcbench -simbench`, the Sim trajectory section) can
// replay the same trace repeatedly without allocating.
type Simulator struct {
	cfg       Config
	smCycleNs float64
	eng       *events.Engine
	// q is the coordinator lane: every SM, L1, L2 and warp-scheduling event
	// runs here, so all simulator state below is lane-local to it.
	q         *events.Lane
	l1s       []*cache.Cache
	l2        *cache.Cache
	mem       *mc.System
	sms       []smState
	warps     []warpState
	lastWrite map[uint64]blockXfer
	remaining int
	endNs     float64
	res       Result
	events    int64
}

// validate checks the front-end parameters (the cache and mc configurations
// validate themselves in their constructors).
func (c Config) validate() error {
	if c.SMs <= 0 || c.SMClockMHz <= 0 || c.MaxWarpsPerSM <= 0 || c.WarpMLP <= 0 {
		return fmt.Errorf("sim: bad SM configuration %+v", c)
	}
	if !c.MAG.Valid() {
		return fmt.Errorf("sim: invalid MAG %d", c.MAG)
	}
	if c.MemPathCycles < 0 {
		return fmt.Errorf("sim: negative MemPathCycles %d", c.MemPathCycles)
	}
	return nil
}

// New validates the configuration and builds a Simulator for it.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, err
	}
	smCycleNs := 1e3 / cfg.SMClockMHz
	pathNs := float64(cfg.MemPathCycles) * smCycleNs
	// One lane for the coordinator plus one per GDDR5 channel; the memory
	// path is the minimum cross-lane latency and therefore the lookahead.
	nchan := cfg.MC.Channels()
	eng := events.NewEngine(1+nchan, pathNs)
	coord := eng.Lane(0)
	chanLanes := make([]*events.Lane, nchan)
	for i := range chanLanes {
		chanLanes[i] = eng.Lane(1 + i)
	}
	mem, err := mc.New(cfg.MC, coord, chanLanes, pathNs)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:       cfg,
		smCycleNs: smCycleNs,
		eng:       eng,
		q:         coord,
		l2:        l2,
		mem:       mem,
		sms:       make([]smState, cfg.SMs),
		lastWrite: make(map[uint64]blockXfer),
	}
	coord.SetHandler(events.KindSim, s)
	if cfg.L1.SizeBytes > 0 {
		s.l1s = make([]*cache.Cache, cfg.SMs)
		for i := range s.l1s {
			if s.l1s[i], err = cache.New(cfg.L1); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// Events returns the number of discrete events the engine executed during
// the last Replay — the denominator of the ns/event throughput metric.
func (s *Simulator) Events() int64 { return s.events }

// Run replays a trace and returns timing and event counts.
func Run(tr *trace.Trace, cfg Config) (Result, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Replay(tr)
}

// Replay replays one trace from a cold start and returns timing and event
// counts. Replaying the same trace twice yields bitwise-identical Results;
// after the first replay has grown the event pools and queue arenas to the
// trace's high-water marks, further replays do not touch the heap.
func (s *Simulator) Replay(tr *trace.Trace) (Result, error) {
	s.reset()
	for i := range tr.Kernels {
		s.runKernel(&tr.Kernels[i])
	}
	s.res.TimeNs = s.endNs
	s.res.SMCycles = s.endNs / s.smCycleNs
	for _, l1 := range s.l1s {
		cs := l1.Stats()
		s.res.L1.Hits += cs.Hits
		s.res.L1.Misses += cs.Misses
	}
	s.res.L2 = s.l2.Stats()
	s.res.MC = s.mem.Stats()
	ds := s.mem.DramStats()
	s.res.DramBursts = ds.Bursts
	s.res.DramMetaBursts = ds.MetaBursts
	s.res.DramBytes = (ds.Bursts - ds.MetaBursts) * int(s.cfg.MAG)
	s.res.RowHits = ds.RowHits
	s.res.RowMisses = ds.RowMisses
	s.res.Activations = ds.Activations
	s.res.BusBusyNs = ds.BusBusyNs
	s.events = s.eng.Executed()
	return s.res, nil
}

// reset rewinds every component to its cold-start state in place.
func (s *Simulator) reset() {
	s.eng.Reset()
	s.mem.Reset()
	s.l2.Reset()
	for _, l1 := range s.l1s {
		l1.Reset()
	}
	for i := range s.sms {
		s.sms[i] = smState{pending: s.sms[i].pending[:0]}
	}
	s.warps = s.warps[:0]
	clear(s.lastWrite)
	s.remaining = 0
	s.endNs = 0
	s.res = Result{}
	s.events = 0
}

// HandleEvent dispatches the front-end's typed events on the coordinator.
func (s *Simulator) HandleEvent(now float64, ev events.Event) {
	switch ev.Op {
	case opTryIssue:
		s.tryIssueNext(int32(ev.A), now)
	case opIssue:
		w := &s.warps[ev.A]
		s.issueAccess(int32(ev.A), w.accs[ev.B], now)
	case opRespond:
		s.respond(int32(ev.A), now)
	default:
		panic(fmt.Sprintf("sim: unknown event op %d", ev.Op))
	}
}

func (s *Simulator) runKernel(k *trace.Kernel) {
	start := s.endNs
	// L1s are flushed at kernel boundaries, as on real GPUs.
	for i := range s.l1s {
		old := s.l1s[i].Stats()
		s.res.L1.Hits += old.Hits
		s.res.L1.Misses += old.Misses
		s.l1s[i].Reset()
	}
	// Write-back geometry is forgotten at kernel boundaries too: kernel
	// N+1's evictions of blocks last written by kernel N fall back to the
	// uncompressed MaxBursts transfer instead of replaying stale compressed
	// geometry across the barrier.
	clear(s.lastWrite)
	s.warps = s.warps[:0]
	for i, accs := range k.Warps {
		if len(accs) == 0 {
			continue
		}
		s.warps = append(s.warps, warpState{accs: accs, sm: i % s.cfg.SMs})
	}
	s.remaining = len(s.warps)
	s.res.Warps += len(s.warps)
	if s.remaining == 0 {
		return
	}
	for i := range s.sms {
		s.sms[i].pending = s.sms[i].pending[:0]
		s.sms[i].pendHead = 0
		s.sms[i].resident = 0
		if s.sms[i].issueFreeNs < start {
			s.sms[i].issueFreeNs = start
		}
	}
	for wi := range s.warps {
		smv := &s.sms[s.warps[wi].sm]
		if smv.resident < s.cfg.MaxWarpsPerSM {
			smv.resident++
			s.q.At(start, events.Event{Kind: events.KindSim, Op: opTryIssue, A: uint32(wi)})
		} else {
			smv.pending = append(smv.pending, int32(wi))
		}
	}
	s.eng.Run(s.cfg.Workers)
	if t := s.eng.Now(); t > s.endNs {
		s.endNs = t
	}
	if s.remaining != 0 {
		panic(fmt.Sprintf("sim: kernel %s drained with %d warps unfinished", k.Name, s.remaining))
	}
}

// tryIssueNext advances a warp: it issues the next access's compute segment
// unless the warp's load window is full or its stream is exhausted.
func (s *Simulator) tryIssueNext(wi int32, t float64) {
	w := &s.warps[wi]
	if w.idx >= len(w.accs) {
		s.maybeFinish(wi, t)
		return
	}
	if w.outstanding >= s.cfg.WarpMLP {
		w.stalled = true
		return
	}
	ai := w.idx
	a := &w.accs[ai]
	w.idx++
	smv := &s.sms[w.sm]
	startIssue := t
	if smv.issueFreeNs > startIssue {
		startIssue = smv.issueFreeNs
	}
	// The compute gap consumes issue bandwidth: 1 instruction per SM cycle
	// aggregated across the SM's warps.
	endIssue := startIssue + float64(a.Compute)*s.smCycleNs
	smv.issueFreeNs = endIssue
	s.res.Instructions += int64(a.Compute)
	s.q.At(endIssue, events.Event{Kind: events.KindSim, Op: opIssue, A: uint32(wi), B: uint32(ai)})
}

// issueAccess performs the L1/L2/DRAM path of one access. Reads join the
// warp's load window (stall-on-use with WarpMLP outstanding loads); writes
// are posted and write through the L1. The memory controller pays the
// L2↔controller path latency on each cross-lane hop, so a DRAM read's
// response arrives pathNs + bus transfer (+ decompression) + pathNs later.
func (s *Simulator) issueAccess(wi int32, a trace.Access, now float64) {
	w := &s.warps[wi]
	s.res.Accesses++
	respondEv := events.Event{Kind: events.KindSim, Op: opRespond, A: uint32(wi)}
	tryEv := events.Event{Kind: events.KindSim, Op: opTryIssue, A: uint32(wi)}
	if s.l1s != nil {
		l1 := s.l1s[w.sm]
		if a.Write {
			l1.Invalidate(a.Addr)
		} else if r := l1.Access(a.Addr, false); r.Hit {
			w.outstanding++
			hitNs := float64(s.cfg.L1HitCycles) * s.smCycleNs
			s.q.At(now+hitNs, respondEv)
			s.q.At(now, tryEv)
			return
		}
	}
	res := s.l2.Access(a.Addr, a.Write)
	if res.HasWriteback {
		wb, ok := s.lastWrite[res.WritebackAddr]
		if !ok {
			wb = blockXfer{bursts: s.cfg.MAG.MaxBursts(), compressed: false}
		}
		s.mem.Write(res.WritebackAddr, wb.bursts, wb.compressed)
	}
	if a.Write {
		// Record the block's compressed geometry for its eventual
		// writeback; stores are posted, the warp does not wait.
		s.lastWrite[a.Addr] = blockXfer{bursts: int(a.Bursts), compressed: a.Compressed}
		s.q.At(now, tryEv)
		return
	}
	w.outstanding++
	hitNs := float64(s.cfg.L2HitCycles) * s.smCycleNs
	if res.Hit {
		s.q.At(now+hitNs, respondEv)
	} else {
		s.mem.Read(a.Addr, int(a.Bursts), a.Compressed, respondEv)
	}
	// Independent next instructions keep issuing behind the load.
	s.q.At(now, tryEv)
}

// respond retires one outstanding load and unblocks the warp.
func (s *Simulator) respond(wi int32, now float64) {
	w := &s.warps[wi]
	w.outstanding--
	if w.stalled {
		w.stalled = false
		s.tryIssueNext(wi, now)
		return
	}
	s.maybeFinish(wi, now)
}

// maybeFinish retires the warp once its stream and load window are drained.
func (s *Simulator) maybeFinish(wi int32, t float64) {
	w := &s.warps[wi]
	if w.done || w.idx < len(w.accs) || w.outstanding > 0 {
		return
	}
	w.done = true
	smv := &s.sms[w.sm]
	smv.resident--
	if smv.pendHead < len(smv.pending) {
		next := smv.pending[smv.pendHead]
		smv.pendHead++
		smv.resident++
		s.tryIssueNext(next, t)
	}
	s.remaining--
}
