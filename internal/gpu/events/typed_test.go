package events

import (
	"testing"
)

func TestTypedDispatchOrdering(t *testing.T) {
	var rec recording
	e, l := oneLane(&rec)
	l.At(3, Event{Kind: KindTest, Op: 3})
	l.At(1, Event{Kind: KindTest, Op: 1})
	l.At(2, Event{Kind: KindTest, Op: 2})
	l.At(1, Event{Kind: KindTest, Op: 4}) // same time: insertion order
	e.Run(1)
	want := []uint8{1, 4, 2, 3}
	if len(rec.ops) != len(want) {
		t.Fatalf("dispatched %d events, want %d", len(rec.ops), len(want))
	}
	for i := range want {
		if rec.ops[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", rec.ops, want)
		}
	}
}

func TestNoHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dispatching a kind with no handler did not panic")
		}
	}()
	e := NewEngine(1, 0)
	e.Lane(0).At(0, Event{Kind: KindTest})
	e.Run(1)
}

func TestPackCompletionRoundTrip(t *testing.T) {
	ev := Event{Kind: KindSim, Op: 7, A: 0xDEADBEEF}
	got := UnpackCompletion(PackCompletion(ev))
	if got != ev {
		t.Fatalf("round trip %+v, want %+v", got, ev)
	}
}

// stressHandler reschedules pseudo-randomly: each dispatched event fans out
// to 0–2 follow-ups on pseudo-random lanes until the lane's budget is
// spent. The budget is lane-local (handlers run concurrently in parallel
// mode) and each lane's dispatch sequence is deterministic, so the executed
// count must match on any worker count.
type stressHandler struct {
	eng    *Engine
	lane   *Lane
	budget int
}

func (h *stressHandler) HandleEvent(now float64, ev Event) {
	for fan := ev.A % 3; fan > 0 && h.budget > 0; fan-- {
		h.budget--
		next := Event{Kind: KindTest, Op: ev.Op + 1, A: ev.A*1664525 + 1013904223}
		target := h.eng.Lane(int(next.A>>8) % h.eng.Lanes())
		if target == h.lane {
			h.lane.At(now+float64(next.A%5), next)
		} else {
			h.lane.Send(target, now+1+float64(next.A%5), next)
		}
	}
}

// TestEventPoolReuseStress hammers acquire/release across lanes, replay
// resets, and both engine modes. Under the eventsdebug build tag (CI runs
// this test with -tags eventsdebug -race) every release poisons the record
// and every acquire/dispatch verifies it, so a freelist double-release or a
// use-after-release anywhere in the machinery panics here.
func TestEventPoolReuseStress(t *testing.T) {
	const lanes = 5
	run := func(workers int) int64 {
		eng := NewEngine(lanes, 1)
		handlers := make([]*stressHandler, lanes)
		for i := 0; i < lanes; i++ {
			handlers[i] = &stressHandler{eng: eng, lane: eng.Lane(i)}
			eng.Lane(i).SetHandler(KindTest, handlers[i])
		}
		var total int64
		for replay := 0; replay < 3; replay++ {
			eng.Reset()
			for i := range handlers {
				handlers[i].budget = 4000
			}
			for i := 0; i < lanes; i++ {
				eng.Lane(i).At(float64(i%3), Event{Kind: KindTest, A: uint32(i)*2654435761 + 7})
			}
			eng.Run(workers)
			total += eng.Executed()
		}
		return total
	}
	serial := run(1)
	if serial < 3*lanes {
		t.Fatalf("stress executed only %d events", serial)
	}
	if par := run(3); par != serial {
		t.Fatalf("parallel stress executed %d events, serial %d", par, serial)
	}
}

// TestQueueResetReuses replays the same schedule through a one-lane engine
// and requires the second run to dispatch identically after Reset.
func TestQueueResetReuses(t *testing.T) {
	var rec recording
	e, l := oneLane(&rec)
	run := func() {
		for i := 0; i < 50; i++ {
			l.At(float64(i%7), Event{Kind: KindTest, Op: uint8(i)})
		}
		e.Run(1)
	}
	run()
	first := append([]uint8(nil), rec.ops...)
	rec.ops, rec.times = rec.ops[:0], rec.times[:0]
	e.Reset()
	run()
	if len(rec.ops) != len(first) {
		t.Fatalf("replay dispatched %d events, first run %d", len(rec.ops), len(first))
	}
	for i := range first {
		if rec.ops[i] != first[i] {
			t.Fatalf("replay order diverged at %d: %d vs %d", i, rec.ops[i], first[i])
		}
	}
}
