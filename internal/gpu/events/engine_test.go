package events

import (
	"fmt"
	"reflect"
	"testing"
)

// Ping-pong opcodes (KindTest). ev.A is the round, ev.B the replying lane.
const (
	opRound uint8 = iota + 1
	opReq
	opWork
	opReply
)

// pingPong is a deterministic multi-lane workload: lane 0 broadcasts
// requests to every other lane with the minimum latency, each lane does
// local follow-up work and replies, and lane 0 chains the next round off the
// replies. Every lane appends (time, label) to its own log. There is one
// pingPong handler per lane, so its state is lane-local.
type pingPong struct {
	e       *Engine
	lane    *Lane
	rounds  uint32
	logs    [][]string
	replies int
}

func (p *pingPong) HandleEvent(now float64, ev Event) {
	coord := p.e.Lane(0)
	la := p.e.Lookahead()
	r, i := ev.A, ev.B
	switch ev.Op {
	case opRound:
		if r >= p.rounds {
			return
		}
		p.logs[0] = append(p.logs[0], fmt.Sprintf("round %d @%g", r, now))
		p.replies = 0
		for i := 1; i < p.e.Lanes(); i++ {
			coord.Send(p.e.Lane(i), now+la, Event{Kind: KindTest, Op: opReq, A: r, B: uint32(i)})
		}
	case opReq:
		p.logs[i] = append(p.logs[i], fmt.Sprintf("req %d @%g", r, now))
		// Local follow-up inside the lane, below the lookahead.
		p.lane.At(now+la/4, Event{Kind: KindTest, Op: opWork, A: r, B: i})
	case opWork:
		p.logs[i] = append(p.logs[i], fmt.Sprintf("work %d @%g", r, now))
		p.lane.Send(coord, now+la, Event{Kind: KindTest, Op: opReply, A: r, B: i})
	case opReply:
		p.logs[0] = append(p.logs[0], fmt.Sprintf("reply %d/%d @%g", r, i, now))
		p.replies++
		if p.replies == p.e.Lanes()-1 {
			coord.At(now, Event{Kind: KindTest, Op: opRound, A: r + 1})
		}
	}
}

func runPingPong(lanes, workers, rounds int) [][]string {
	e := NewEngine(lanes, 10)
	logs := make([][]string, lanes)
	for i := 0; i < lanes; i++ {
		e.Lane(i).SetHandler(KindTest, &pingPong{e: e, lane: e.Lane(i), rounds: uint32(rounds), logs: logs})
	}
	e.Lane(0).At(0, Event{Kind: KindTest, Op: opRound})
	e.Run(workers)
	return logs
}

func TestEngineSerialParallelIdentical(t *testing.T) {
	for _, lanes := range []int{2, 4, 13} {
		want := runPingPong(lanes, 1, 20)
		for _, workers := range []int{2, 3, lanes} {
			got := runPingPong(lanes, workers, 20)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("lanes=%d workers=%d: logs diverge from serial\nserial:   %v\nparallel: %v",
					lanes, workers, want, got)
			}
		}
	}
}

func TestEngineKeyOrdering(t *testing.T) {
	// Ties at the same time resolve by (source lane, source sequence):
	// lane 0's sends run before lane 1's, and each source's in order.
	e := NewEngine(3, 1)
	var got []string
	target := e.Lane(2)
	target.SetHandler(KindTest, handlerFunc(func(now float64, ev Event) {
		got = append(got, fmt.Sprintf("%d.%d", ev.A, ev.B))
	}))
	for _, src := range []int{1, 0} { // schedule lane 1's first
		l := e.Lane(src)
		l.SetHandler(KindTest, handlerFunc(func(now float64, ev Event) {
			for k := 0; k < 3; k++ {
				l.Send(target, 5, Event{Kind: KindTest, A: uint32(src), B: uint32(k)})
			}
		}))
		l.At(0, Event{Kind: KindTest})
	}
	e.Run(1)
	want := []string{"0.0", "0.1", "0.2", "1.0", "1.1", "1.2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tie order = %v, want %v", got, want)
	}
}

func TestEngineLookaheadViolationPanics(t *testing.T) {
	e := NewEngine(2, 10)
	e.Lane(0).SetHandler(KindTest, handlerFunc(func(now float64, ev Event) {
		defer func() {
			if recover() == nil {
				t.Error("short cross-lane send did not panic")
			}
		}()
		e.Lane(0).Send(e.Lane(1), 5, Event{Kind: KindTest})
	}))
	e.Lane(0).At(0, Event{Kind: KindTest})
	e.Run(1)
}

func TestEngineSameLaneSendHasNoLatencyFloor(t *testing.T) {
	e := NewEngine(2, 10)
	ran := false
	e.Lane(0).SetHandler(KindTest, handlerFunc(func(now float64, ev Event) {
		if ev.Op == 0 {
			e.Lane(0).Send(e.Lane(0), 1, Event{Kind: KindTest, Op: 1})
			return
		}
		ran = true
	}))
	e.Lane(0).At(0, Event{Kind: KindTest})
	e.Run(1)
	if !ran {
		t.Error("same-lane send did not run")
	}
}

func TestEngineReusableAcrossRuns(t *testing.T) {
	// Kernels run back to back: the engine must drain, accept new events at
	// later times, and drain again — in both modes.
	for _, workers := range []int{1, 4} {
		e := NewEngine(4, 10)
		perLane := make([]int, e.Lanes()) // lane-local counters: lanes must not share state
		e.Lane(0).SetHandler(KindTest, handlerFunc(func(now float64, ev Event) {
			for i := 1; i < e.Lanes(); i++ {
				e.Lane(0).Send(e.Lane(i), now+10, Event{Kind: KindTest})
			}
		}))
		for i := 1; i < e.Lanes(); i++ {
			e.Lane(i).SetHandler(KindTest, handlerFunc(func(float64, Event) { perLane[i]++ }))
		}
		seed := func(start float64) { e.Lane(0).At(start, Event{Kind: KindTest}) }
		seed(0)
		e.Run(workers)
		first := e.Now()
		seed(first)
		e.Run(workers)
		total := 0
		for _, n := range perLane {
			total += n
		}
		if total != 6 {
			t.Errorf("workers=%d: ran %d cross-lane events, want 6", workers, total)
		}
		if e.Now() <= first {
			t.Errorf("workers=%d: time did not advance across runs", workers)
		}
		if e.Pending() != 0 {
			t.Errorf("workers=%d: %d events left pending", workers, e.Pending())
		}
	}
}

// TestEngineClampsPastTimes sends to the own lane into the past on a
// multi-lane engine: the same-lane Send is a plain At and clamps to Now.
func TestEngineClampsPastTimes(t *testing.T) {
	e := NewEngine(2, 10)
	l := e.Lane(1)
	var when float64 = -1
	l.SetHandler(KindTest, handlerFunc(func(now float64, ev Event) {
		if ev.Op == 0 {
			l.Send(l, 5, Event{Kind: KindTest, Op: 1})
			return
		}
		when = l.Now()
	}))
	l.At(10, Event{Kind: KindTest})
	e.Run(1)
	if when != 10 {
		t.Errorf("past event ran at %v, want 10", when)
	}
}
