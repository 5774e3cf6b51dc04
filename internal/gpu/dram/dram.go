// Package dram models one GDDR5 channel: a 32-bit data bus with burst
// length 8 (32 bytes per burst command — the MAG), banks with open-row
// policy, and an FR-FCFS scheduler (row hits first, oldest first, with an
// aging cap) — the standard GPU memory-controller policy that lets streaming
// warps saturate the data bus. Compression pays off here: a block fetched in
// fewer bursts occupies the bus for fewer cycles, which is what raises
// effective bandwidth on memory-bound workloads.
//
// The channel runs on one event lane. It schedules its own drain steps as a
// caller-chosen typed event whose handler routes back to DrainStep, and a
// request's completion is the enqueuer's own typed event, dispatched on the
// same lane when the request's data leaves the bus.
//
// Requests are pooled value records in a channel-local arena, threaded onto
// per-row and per-bank intrusive lists (int32 indices, not pointers) plus an
// arrival FIFO. The arena and lists are owned by the channel's event lane,
// so they need no locking, and once the arena has grown to the backlog's
// peak the channel enqueues and serves requests without allocating.
package dram

import (
	"fmt"

	"repro/internal/gpu/events"
)

// Config holds the channel timing parameters. Cycles are command-clock
// cycles (1002 MHz in the paper's GTX580 configuration, Table II).
type Config struct {
	MemClockMHz float64
	Banks       int
	RowBytes    int
	TRCD        int // activate → column command
	TRP         int // precharge
	TCAS        int // column access strobe (read latency)
	TCCD        int // column-to-column command spacing (CAS pipelining)
	BurstCycles int // data-bus cycles per burst (BL8 on DDR: 4 beats/cycle ⇒ 2)
	// AgingNs caps FR-FCFS reordering: a request older than this is served
	// before any younger row hit.
	AgingNs float64
}

// DefaultConfig returns GDDR5 timings for the paper's setup: 1002 MHz
// command clock, 16 banks, 2 KB rows, CL/tRCD/tRP of 15 cycles, 2-cycle
// bursts.
func DefaultConfig() Config {
	return Config{
		MemClockMHz: 1002,
		Banks:       16,
		RowBytes:    2048,
		TRCD:        15,
		TRP:         15,
		TCAS:        15,
		TCCD:        2,
		BurstCycles: 2,
		AgingNs:     600,
	}
}

// CycleNs returns the command-clock period in nanoseconds.
func (c Config) CycleNs() float64 { return 1e3 / c.MemClockMHz }

// Validate checks the parameters.
func (c Config) Validate() error {
	if c.MemClockMHz <= 0 || c.Banks <= 0 || c.RowBytes <= 0 || c.BurstCycles <= 0 {
		return fmt.Errorf("dram: non-positive parameter in %+v", c)
	}
	if c.TRCD < 0 || c.TRP < 0 || c.TCAS < 0 || c.AgingNs < 0 {
		return fmt.Errorf("dram: negative timing in %+v", c)
	}
	return nil
}

// PeakBandwidthGBs returns the channel's peak data bandwidth in GB/s given
// the MAG (bytes per burst).
func (c Config) PeakBandwidthGBs(magBytes int) float64 {
	return float64(magBytes) / (float64(c.BurstCycles) * c.CycleNs()) // B/ns == GB/s
}

// Stats counts channel events. Bursts is every burst command on the data
// bus; MetaBursts is the subset spent fetching compression metadata (MDC
// miss fills), so data traffic is Bursts - MetaBursts.
type Stats struct {
	Requests    int
	Bursts      int
	MetaBursts  int
	RowHits     int
	RowMisses   int
	Activations int
	BusBusyNs   float64
}

type bank struct {
	open      bool
	row       uint64
	casFreeNs float64 // earliest next column command (tCCD pipelining)
	dataEndNs float64 // last data beat of the bank's in-flight transfer
}

// nilIdx terminates intrusive lists.
const nilIdx = int32(-1)

// request is one pooled queue entry. doneEv is its completion, dispatched on
// the channel's lane at the bus-end time; doneEv.Kind == KindNone means a
// posted request with no completion. The next/prev fields thread the request
// onto its row list and bank list (doubly linked, unlinked eagerly when
// served) and the arrival FIFO (singly linked, drained lazily from the
// head).
//
//slclint:pooled
type request struct {
	addr               uint64
	row                uint64
	arrival            float64
	seq                int64
	doneEv             events.Event
	nextRow, prevRow   int32
	nextBank, prevBank int32
	nextFifo           int32
	bank               int32
	bursts             int32
	served             bool
	meta               bool
}

// list is an intrusive list head (indices into the channel's arena).
type list struct {
	head, tail int32
}

// Channel is one GDDR5 channel draining an FR-FCFS queue on its event lane.
// All channel state is local to that lane.
type Channel struct {
	cfg     Config
	cycleNs float64
	lane    *events.Lane
	// drainEv is the channel's self-scheduled drain step; the lane's handler
	// for drainEv.Kind must route it back to DrainStep.
	drainEv events.Event

	banks    []bank
	busFree  float64
	reqs     []request // arena; intrusive lists index into it
	free     []int32   // vacated arena slots
	byRow    map[uint64]list
	byBank   []list // fixed at Config.Banks entries, reused across kernels
	fifoHead int32
	fifoTail int32
	seq      int64
	draining bool
	stats    Stats
}

// NewChannel builds a channel on the given event lane, scheduling its drain
// steps as drainEv (see Channel.drainEv). The per-bank queue heads are sized
// from cfg once and reused for the channel's lifetime.
func NewChannel(cfg Config, lane *events.Lane, drainEv events.Event) (*Channel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if lane == nil {
		return nil, fmt.Errorf("dram: nil event lane")
	}
	ch := &Channel{
		cfg:     cfg,
		cycleNs: cfg.CycleNs(),
		lane:    lane,
		drainEv: drainEv,
		banks:   make([]bank, cfg.Banks),
		byRow:   make(map[uint64]list),
		byBank:  make([]list, cfg.Banks),
	}
	ch.clearLists()
	return ch, nil
}

// Reset empties the channel for a fresh replay: queues, banks, bus and
// statistics return to their initial state while the arena, freelist, bank
// list heads and row map keep their capacity, so replaying an identical
// request stream allocates nothing.
func (ch *Channel) Reset() {
	for i := range ch.banks {
		ch.banks[i] = bank{}
	}
	ch.busFree = 0
	ch.reqs = ch.reqs[:0]
	ch.free = ch.free[:0]
	clear(ch.byRow)
	ch.clearLists()
	ch.seq = 0
	ch.draining = false
	ch.stats = Stats{}
}

func (ch *Channel) clearLists() {
	for i := range ch.byBank {
		ch.byBank[i] = list{head: nilIdx, tail: nilIdx}
	}
	ch.fifoHead, ch.fifoTail = nilIdx, nilIdx
}

func (ch *Channel) now() float64 { return ch.lane.Now() }

// alloc takes an arena slot from the freelist, growing the arena only when
// the live backlog exceeds every previous peak.
func (ch *Channel) alloc() int32 {
	if n := len(ch.free); n > 0 {
		idx := ch.free[n-1]
		ch.free = ch.free[:n-1]
		return idx
	}
	ch.reqs = append(ch.reqs, request{})
	return int32(len(ch.reqs) - 1)
}

// release returns a slot whose request has left every list, zeroed so a
// vacated slot never carries a served request's state.
func (ch *Channel) release(idx int32) {
	ch.reqs[idx] = request{}
	ch.free = append(ch.free, idx)
}

// Enqueue submits a request at the current simulation time. doneEv is
// dispatched on the channel's lane at the request's bus-end time (Kind
// KindNone = posted, no completion). meta marks a compression-metadata
// fetch: it is scheduled exactly like a data request but accounted under
// Stats.MetaBursts, so data and metadata traffic can be reported
// separately.
//
//slclint:allocfree
func (ch *Channel) Enqueue(addr uint64, bursts int, meta bool, doneEv events.Event) {
	if bursts < 1 {
		bursts = 1
	}
	ch.seq++
	idx := ch.alloc()
	r := &ch.reqs[idx]
	*r = request{
		addr:     addr,
		arrival:  ch.now(),
		seq:      ch.seq,
		doneEv:   doneEv,
		nextRow:  nilIdx,
		prevRow:  nilIdx,
		nextBank: nilIdx,
		prevBank: nilIdx,
		nextFifo: nilIdx,
		bank:     int32((addr / uint64(ch.cfg.RowBytes)) % uint64(ch.cfg.Banks)),
		bursts:   int32(bursts),
		meta:     meta,
	}
	r.row = addr / uint64(ch.cfg.RowBytes) / uint64(ch.cfg.Banks)

	key := ch.rowKey(r.bank, r.row)
	if l, ok := ch.byRow[key]; ok {
		ch.reqs[l.tail].nextRow = idx
		r.prevRow = l.tail
		l.tail = idx
		ch.byRow[key] = l
	} else {
		ch.byRow[key] = list{head: idx, tail: idx}
	}
	bl := &ch.byBank[r.bank]
	if bl.head == nilIdx {
		bl.head, bl.tail = idx, idx
	} else {
		ch.reqs[bl.tail].nextBank = idx
		r.prevBank = bl.tail
		bl.tail = idx
	}
	if ch.fifoHead == nilIdx {
		ch.fifoHead, ch.fifoTail = idx, idx
	} else {
		ch.reqs[ch.fifoTail].nextFifo = idx
		ch.fifoTail = idx
	}

	if !ch.draining {
		ch.draining = true
		ch.lane.At(ch.now(), ch.drainEv)
	}
}

func (ch *Channel) rowKey(bank int32, row uint64) uint64 {
	return row*uint64(ch.cfg.Banks) + uint64(bank)
}

// unlink removes a served request from its row and bank lists. Every pick
// returns the head unserved entry of both lists, but a row hit can serve a
// request from the middle of its bank list (an older request for another
// row is still ahead of it), which is why the lists are doubly linked.
func (ch *Channel) unlink(idx int32) {
	r := &ch.reqs[idx]
	key := ch.rowKey(r.bank, r.row)
	l := ch.byRow[key]
	if r.prevRow != nilIdx {
		ch.reqs[r.prevRow].nextRow = r.nextRow
	} else {
		l.head = r.nextRow
	}
	if r.nextRow != nilIdx {
		ch.reqs[r.nextRow].prevRow = r.prevRow
	} else {
		l.tail = r.prevRow
	}
	if l.head == nilIdx {
		delete(ch.byRow, key)
	} else {
		ch.byRow[key] = l
	}
	bl := &ch.byBank[r.bank]
	if r.prevBank != nilIdx {
		ch.reqs[r.prevBank].nextBank = r.nextBank
	} else {
		bl.head = r.nextBank
	}
	if r.nextBank != nilIdx {
		ch.reqs[r.nextBank].prevBank = r.prevBank
	} else {
		bl.tail = r.prevBank
	}
	r.nextRow, r.prevRow, r.nextBank, r.prevBank = nilIdx, nilIdx, nilIdx, nilIdx
}

// oldest returns the oldest pending request index, freeing served requests
// off the FIFO head as it passes them — the point where a request has left
// its last list and its arena slot is recycled.
func (ch *Channel) oldest() int32 {
	for ch.fifoHead != nilIdx && ch.reqs[ch.fifoHead].served {
		idx := ch.fifoHead
		ch.fifoHead = ch.reqs[idx].nextFifo
		ch.release(idx)
	}
	if ch.fifoHead == nilIdx {
		ch.fifoTail = nilIdx
	}
	return ch.fifoHead
}

// peekRow returns the oldest pending request for a bank's open row, or
// nilIdx. Served requests are unlinked eagerly, so list heads are pending.
func (ch *Channel) peekRow(bankIdx int) int32 {
	b := &ch.banks[bankIdx]
	if !b.open {
		return nilIdx
	}
	l, ok := ch.byRow[ch.rowKey(int32(bankIdx), b.row)]
	if !ok {
		return nilIdx
	}
	return l.head
}

// peekBank returns the oldest pending request for a bank, or nilIdx.
func (ch *Channel) peekBank(bankIdx int) int32 {
	return ch.byBank[bankIdx].head
}

// estStart estimates when a request's data could start on the bus, the
// readiness criterion the scheduler minimises.
func (ch *Channel) estStart(r *request) float64 {
	now := ch.now()
	b := &ch.banks[r.bank]
	var cas float64
	if b.open && b.row == r.row {
		cas = now
		if b.casFreeNs > cas {
			cas = b.casFreeNs
		}
	} else {
		actStart := now
		if b.dataEndNs > actStart {
			actStart = b.dataEndNs
		}
		pre := 0
		if b.open {
			pre = ch.cfg.TRP
		}
		cas = actStart + float64(pre+ch.cfg.TRCD)*ch.cycleNs
	}
	start := cas + float64(ch.cfg.TCAS)*ch.cycleNs
	if ch.busFree > start {
		start = ch.busFree
	}
	return start
}

// pick implements readiness-aware FR-FCFS: among each bank's best candidate
// (oldest open-row hit, else oldest for the bank), choose the one whose data
// can reach the bus soonest — row hits naturally win, and an activation on
// an idle bank can fill a bus gap. The globally oldest request overrides
// once it has aged out.
func (ch *Channel) pick() int32 {
	old := ch.oldest()
	if old == nilIdx {
		return nilIdx
	}
	if ch.now()-ch.reqs[old].arrival > ch.cfg.AgingNs {
		return old
	}
	best := nilIdx
	var bestStart float64
	for b := range ch.banks {
		cand := ch.peekRow(b)
		if cand == nilIdx {
			cand = ch.peekBank(b)
		}
		if cand == nilIdx {
			continue
		}
		est := ch.estStart(&ch.reqs[cand])
		if best == nilIdx || est < bestStart ||
			(est == bestStart && ch.reqs[cand].seq < ch.reqs[best].seq) {
			best = cand
			bestStart = est
		}
	}
	if best != nilIdx {
		return best
	}
	return old
}

// DrainStep runs one drain step: the lane's handler for the channel's drain
// event routes it here.
func (ch *Channel) DrainStep() { ch.drain() }

// drain serves one request and reschedules itself while work remains.
//
//slclint:allocfree
func (ch *Channel) drain() {
	idx := ch.pick()
	if idx == nilIdx {
		ch.draining = false
		return
	}
	r := &ch.reqs[idx]
	r.served = true
	now := ch.now()
	b := &ch.banks[r.bank]

	var cas float64
	if b.open && b.row == r.row {
		cas = now
		if b.casFreeNs > cas {
			cas = b.casFreeNs
		}
		ch.stats.RowHits++
	} else {
		actStart := now
		if b.dataEndNs > actStart { // drain in-flight data before precharge
			actStart = b.dataEndNs
		}
		pre := 0
		if b.open {
			pre = ch.cfg.TRP
		}
		cas = actStart + float64(pre+ch.cfg.TRCD)*ch.cycleNs
		ch.stats.RowMisses++
		ch.stats.Activations++
	}
	dataReady := cas + float64(ch.cfg.TCAS)*ch.cycleNs
	busStart := dataReady
	if ch.busFree > busStart {
		busStart = ch.busFree
	}
	busTime := float64(int(r.bursts)*ch.cfg.BurstCycles) * ch.cycleNs
	busEnd := busStart + busTime

	ch.busFree = busEnd
	effCas := busStart - float64(ch.cfg.TCAS)*ch.cycleNs
	if effCas < cas {
		effCas = cas
	}
	b.casFreeNs = effCas + float64(ch.cfg.TCCD)*ch.cycleNs
	b.dataEndNs = busEnd
	b.open = true
	b.row = r.row

	ch.stats.Requests++
	ch.stats.Bursts += int(r.bursts)
	if r.meta {
		ch.stats.MetaBursts += int(r.bursts)
	}
	ch.stats.BusBusyNs += busTime

	// Eagerly drop the served request from its row and bank lists, so the
	// scheduler's peeks always see pending heads; the FIFO recycles the
	// arena slot when its head passes the request.
	ch.unlink(idx)

	if r.doneEv.Kind != events.KindNone {
		ch.lane.At(busEnd, r.doneEv)
	}
	// Pace the command stream a bounded lookahead ahead of the data bus:
	// the next command may issue tCCD after this one, but no earlier than
	// one bank-preparation time before the bus frees — keeping scheduling
	// decisions fresh while letting activations overlap data transfer.
	prepNs := float64(ch.cfg.TRP+ch.cfg.TRCD+ch.cfg.TCAS) * ch.cycleNs
	next := now + float64(ch.cfg.TCCD)*ch.cycleNs
	if t := busEnd - prepNs; t > next {
		next = t
	}
	ch.lane.At(next, ch.drainEv)
}

// Stats returns the channel's counters.
func (ch *Channel) Stats() Stats { return ch.stats }
