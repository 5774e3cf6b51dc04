// Package events is the deterministic discrete-event machinery shared by the
// timing simulator and the memory system.
//
// Engine is a set of Lanes, each a self-contained event queue that owns one
// component's state (one DRAM channel, or the SM/L2 front-end), exchanging
// timestamped cross-lane messages. Events are ordered by a (time, source
// lane, source sequence) key that is independent of how execution is
// scheduled, so the serial path (one worker draining all lanes in global key
// order) and the parallel path (conservative time windows bounded by the
// minimum cross-lane latency) replay identically, event for event. A
// one-lane Engine is a plain time-ordered queue with insertion-order
// tie-breaking, which is how components run standalone in their tests.
//
// An event (scheduled with At, or Send across lanes) is a small value Event
// record dispatched to the Handler registered for its Kind; once the
// per-lane pools have warmed up, scheduling and dispatch perform no heap
// allocation. Event records live in per-lane pools with freelists; a lane's
// pool is touched only while that lane runs (single goroutine at a time),
// so the pools need no locking — the freelist ownership argument is the
// lane ownership argument. Heaps are hand-written 4-ary heaps over value
// records: no interface boxing, no per-push allocation.
package events

import (
	"fmt"
	"math"
	"sync"
)

// Event is one typed scheduled event: a component kind, a component-private
// opcode, and compact arguments. It is a small value record — scheduling one
// copies it into a pooled slot, never onto the heap.
//
// Field meaning is owned by the handling component; by convention Addr
// carries a (global) memory address, Aux a packed completion (see
// PackCompletion) and A/B small integers such as warp indices, burst counts
// or channel numbers.
type Event struct {
	Addr uint64
	Aux  uint64
	A, B uint32
	Kind uint8
	Op   uint8
}

// Component kinds. A lane dispatches a typed event to the Handler registered
// for the event's Kind, so independent components (the simulator front-end,
// the memory-controller, a DRAM channel) can share a lane without seeing
// each other's events.
const (
	// KindNone marks "no event": a zero Event is never dispatched, which is
	// what lets an Event field double as an optional completion.
	KindNone uint8 = iota
	// KindSim is the simulator front-end (warp scheduling, L1/L2).
	KindSim
	// KindMC is the memory-controller system (front-end and channel sides).
	KindMC
	// KindDram is a DRAM channel's own drain scheduling.
	KindDram
	// KindTest is reserved for tests.
	KindTest
	numKinds
)

// Handler consumes typed events of one Kind on one scheduler. now is the
// event's dispatch time (the scheduler's Now).
type Handler interface {
	HandleEvent(now float64, ev Event)
}

// PackCompletion packs an event's (Kind, Op, A) triple into a uint64, so a
// completion event can ride inside another event's Aux field. Addr, Aux and
// B are not carried — completions are by convention identified by Kind/Op
// plus one small argument (a warp index, say).
func PackCompletion(ev Event) uint64 {
	return uint64(ev.Kind)<<40 | uint64(ev.Op)<<32 | uint64(ev.A)
}

// UnpackCompletion reverses PackCompletion.
func UnpackCompletion(aux uint64) Event {
	return Event{Kind: uint8(aux >> 40), Op: uint8(aux >> 32), A: uint32(aux)}
}

// rec is one pooled event record.
//
//slclint:pooled
type rec struct {
	ev Event
}

// heapEnt is a heap entry: the ordering key plus the index of the record in
// the owning scheduler's pool. Keeping the key inline means heap sifting
// never touches the pool.
type heapEnt struct {
	t   float64
	seq int64
	src int32
	idx int32
}

func entLess(a, b heapEnt) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// heapPush / heapPop maintain a 4-ary min-heap over value entries. The wider
// node cuts sift-down depth in half versus a binary heap and the value
// records avoid container/heap's per-operation interface boxing. Heap shape
// does not affect dispatch order: keys are unique (per-source sequence
// numbers), so the pop order is the total (t, src, seq) order regardless of
// arity.
//
//slclint:allocfree
func heapPush(h []heapEnt, e heapEnt) []heapEnt {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !entLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

//slclint:allocfree
func heapPop(h []heapEnt) (heapEnt, []heapEnt) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entLess(h[j], h[best]) {
				best = j
			}
		}
		if !entLess(h[best], h[i]) {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return top, h
}

// pool is a lane's record store: a slice arena plus a freelist of vacated
// slots. acquire/release are O(1) and allocation-free once the arena has
// grown to the schedule's peak depth.
type pool struct {
	recs []rec
	free []int32
}

//slclint:allocfree
func (p *pool) acquire() int32 {
	if n := len(p.free); n > 0 {
		idx := p.free[n-1]
		p.free = p.free[:n-1]
		checkAcquire(&p.recs[idx])
		return idx
	}
	p.recs = append(p.recs, rec{})
	return int32(len(p.recs) - 1)
}

// release vacates a slot. Under the eventsdebug build tag it writes a poison
// pattern that acquire verifies — a record must never be observed after
// release.
//
//slclint:allocfree
func (p *pool) release(idx int32) {
	p.recs[idx] = poisonRec
	p.free = append(p.free, idx)
}

func (p *pool) reset() {
	p.recs = p.recs[:0]
	p.free = p.free[:0]
}

// outMsg is a cross-lane message buffered during a parallel window: the full
// ordering key plus the record by value (the record is copied between the
// lanes' pools at the barrier, never shared).
type outMsg struct {
	target *Lane
	t      float64
	seq    int64
	src    int32
	r      rec
}

// Lane is one event shard of an Engine. A lane owns the state of the
// component running on it; its events execute strictly in key order on a
// single goroutine at a time, so lane-local state — including the lane's
// event pool and freelist — needs no locking. Lanes interact only through
// Send.
type Lane struct {
	id       int32
	eng      *Engine
	h        []heapEnt
	pool     pool
	handlers [numKinds]Handler
	now      float64
	genSeq   int64
	executed int64
	outbox   []outMsg
}

// Now returns the lane's local simulation time.
func (l *Lane) Now() float64 { return l.now }

// SetHandler registers the Handler receiving typed events of the given kind
// dispatched on this lane. Handlers survive Engine.Reset.
func (l *Lane) SetHandler(kind uint8, h Handler) { l.handlers[kind] = h }

// At schedules ev on this lane, to be dispatched to the Handler registered
// for ev.Kind; times before Now are clamped to Now. It may be called only
// from the lane's own events, or between Engine.Run calls.
//
//slclint:allocfree
func (l *Lane) At(t float64, ev Event) {
	idx := l.pool.acquire()
	l.pool.recs[idx] = rec{ev: ev}
	l.push(t, idx)
}

//slclint:allocfree
func (l *Lane) push(t float64, idx int32) {
	if t < l.now {
		t = l.now
	}
	l.genSeq++
	l.h = heapPush(l.h, heapEnt{t: t, seq: l.genSeq, src: l.id, idx: idx})
}

// checkSend validates a cross-lane send time against the engine's lookahead,
// which is what lets the parallel engine run lanes concurrently inside a
// time window without ever delivering a message into a lane's past.
func (l *Lane) checkSend(to *Lane, t float64) {
	if t < l.now+l.eng.lookahead {
		panic(fmt.Sprintf("events: lookahead violation: lane %d at %g sends to lane %d at %g (lookahead %g)",
			l.id, l.now, to.id, t, l.eng.lookahead))
	}
}

// deliver routes a keyed record to the target lane: buffered in the outbox
// during a parallel window, pushed straight into the target's pool and heap
// (safe: only one lane runs at a time) in serial mode.
//
//slclint:allocfree
func (l *Lane) deliver(to *Lane, t float64, r rec) {
	l.genSeq++
	if l.eng.parallel {
		l.outbox = append(l.outbox, outMsg{target: to, t: t, seq: l.genSeq, src: l.id, r: r})
		return
	}
	idx := to.pool.acquire()
	to.pool.recs[idx] = r
	to.h = heapPush(to.h, heapEnt{t: t, seq: l.genSeq, src: l.id, idx: idx})
}

// Send schedules ev on the target lane at time t, from an event executing
// on this lane. Cross-lane sends must respect the engine's lookahead: t must
// be at least the sending lane's Now plus the lookahead. Sending to the own
// lane is a plain At with no latency constraint.
//
//slclint:allocfree
func (l *Lane) Send(to *Lane, t float64, ev Event) {
	if to == l {
		l.At(t, ev)
		return
	}
	l.checkSend(to, t)
	l.deliver(to, t, rec{ev: ev})
}

// head returns the lane's earliest pending event time, or +Inf.
func (l *Lane) headTime() float64 {
	if len(l.h) == 0 {
		return math.Inf(1)
	}
	return l.h[0].t
}

// step pops and dispatches the lane's earliest event.
//
//slclint:allocfree
func (l *Lane) step() {
	var ent heapEnt
	ent, l.h = heapPop(l.h)
	r := l.pool.recs[ent.idx]
	l.pool.release(ent.idx)
	l.now = ent.t
	l.executed++
	checkDispatch(&r)
	h := l.handlers[r.ev.Kind]
	if h == nil {
		panic(fmt.Sprintf("events: lane %d: no handler for kind %d (op %d)", l.id, r.ev.Kind, r.ev.Op)) //slclint:allow allocfree cold panic on a wiring bug, unreachable in a correct model
	}
	h.HandleEvent(ent.t, r.ev)
}

// runWindow executes the lane's events with time strictly below horizon.
// Locally scheduled events that land inside the window are executed too;
// cross-lane sends are buffered in the outbox for delivery at the barrier.
//
//slclint:allocfree
func (l *Lane) runWindow(horizon float64) {
	for len(l.h) > 0 && l.h[0].t < horizon {
		l.step()
	}
}

// reset returns the lane to its pre-run state, keeping handlers and every
// backing array (heap, pool, freelist, outbox) so a subsequent replay of the
// same schedule allocates nothing.
func (l *Lane) reset() {
	l.h = l.h[:0]
	l.pool.reset()
	for i := range l.outbox {
		l.outbox[i] = outMsg{}
	}
	l.outbox = l.outbox[:0]
	l.now = 0
	l.genSeq = 0
	l.executed = 0
}

// Engine is a set of lanes sharing a simulated clock. Run(1) drains the
// lanes serially in global key order — the reference serial engine. Run(n)
// for n > 1 drains them in conservative time windows: all lanes holding an
// event inside [T, T+lookahead) execute concurrently, where T is the global
// minimum pending time; the lookahead (the minimum cross-lane message
// latency, enforced by Send) guarantees no message generated inside the
// window can land inside it, so the two modes replay bitwise-identically.
type Engine struct {
	lanes     []*Lane
	lookahead float64
	parallel  bool
}

// NewEngine builds an engine with n lanes. lookahead is the minimum latency
// every cross-lane Send must carry; it must be positive for parallel runs
// (Run falls back to serial otherwise).
func NewEngine(n int, lookahead float64) *Engine {
	e := &Engine{lanes: make([]*Lane, n), lookahead: lookahead}
	for i := range e.lanes {
		e.lanes[i] = &Lane{id: int32(i), eng: e}
	}
	return e
}

// Lanes returns the number of lanes.
func (e *Engine) Lanes() int { return len(e.lanes) }

// Lane returns lane i.
func (e *Engine) Lane(i int) *Lane { return e.lanes[i] }

// Lookahead returns the minimum cross-lane message latency.
func (e *Engine) Lookahead() float64 { return e.lookahead }

// Now returns the engine's global time: the maximum lane-local time.
func (e *Engine) Now() float64 {
	var t float64
	for _, l := range e.lanes {
		if l.now > t {
			t = l.now
		}
	}
	return t
}

// Pending returns the total number of scheduled events across lanes.
func (e *Engine) Pending() int {
	n := 0
	for _, l := range e.lanes {
		n += len(l.h)
	}
	return n
}

// Executed returns the total number of events dispatched across lanes since
// the engine was built or last Reset. It is deterministic — the serial and
// parallel modes execute the identical event sequence — but must only be
// read between Run calls.
func (e *Engine) Executed() int64 {
	var n int64
	for _, l := range e.lanes {
		n += l.executed
	}
	return n
}

// Reset rewinds the engine to time zero for a fresh replay: pending events
// are dropped, sequence and executed counters rewound, handlers and lane
// pool capacity kept. Replaying an identical schedule after Reset allocates
// nothing.
func (e *Engine) Reset() {
	for _, l := range e.lanes {
		l.reset()
	}
}

// Run drains every lane. workers ≤ 1 (or a non-positive lookahead) selects
// the serial engine; larger values fan the window's active lanes across that
// many goroutines. The executed event sequence — and therefore every
// lane-local state and statistic — is identical in both modes.
func (e *Engine) Run(workers int) {
	if workers <= 1 || e.lookahead <= 0 || len(e.lanes) == 1 {
		e.runSerial()
		return
	}
	e.runParallel(workers)
}

// runSerial executes events one at a time in global (t, src, seq) order.
func (e *Engine) runSerial() {
	for {
		var best *Lane
		for _, l := range e.lanes {
			if len(l.h) == 0 {
				continue
			}
			if best == nil || entLess(l.h[0], best.h[0]) {
				best = l
			}
		}
		if best == nil {
			return
		}
		best.step()
	}
}

type laneTask struct {
	lane    *Lane
	horizon float64
}

// runParallel executes conservative time windows on a persistent worker
// pool. Each window: find the global minimum pending time T, let every lane
// with events below T+lookahead drain that range concurrently, then deliver
// the buffered cross-lane messages (all provably at or beyond the horizon)
// and repeat.
func (e *Engine) runParallel(workers int) {
	e.parallel = true
	defer func() { e.parallel = false }()

	if workers > len(e.lanes) {
		workers = len(e.lanes)
	}
	tasks := make(chan laneTask)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		go func() {
			for tk := range tasks {
				tk.lane.runWindow(tk.horizon)
				wg.Done()
			}
		}()
	}
	defer close(tasks)

	active := make([]*Lane, 0, len(e.lanes))
	for {
		T := math.Inf(1)
		for _, l := range e.lanes {
			if t := l.headTime(); t < T {
				T = t
			}
		}
		if math.IsInf(T, 1) {
			return
		}
		horizon := T + e.lookahead
		active = active[:0]
		for _, l := range e.lanes {
			if l.headTime() < horizon {
				active = append(active, l)
			}
		}
		// Fan all but the first active lane to the pool and run the first
		// (lane 0, the coordinator, when it is active — typically the
		// heaviest) inline on this goroutine.
		for _, l := range active[1:] {
			wg.Add(1)
			tasks <- laneTask{lane: l, horizon: horizon}
		}
		active[0].runWindow(horizon)
		wg.Wait()

		// Deliver buffered messages: the barrier is single-threaded, so
		// copying a record into the target lane's pool is race-free.
		for _, l := range e.lanes {
			for _, m := range l.outbox {
				if m.t < horizon {
					panic(fmt.Sprintf("events: message from lane %d to lane %d at %g lands inside window ending %g",
						l.id, m.target.id, m.t, horizon))
				}
				idx := m.target.pool.acquire()
				m.target.pool.recs[idx] = m.r
				m.target.h = heapPush(m.target.h, heapEnt{t: m.t, seq: m.seq, src: m.src, idx: idx})
			}
			for i := range l.outbox {
				l.outbox[i] = outMsg{}
			}
			l.outbox = l.outbox[:0]
		}
	}
}
