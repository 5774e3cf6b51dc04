package events

import "testing"

// handlerFunc adapts a function to Handler.
type handlerFunc func(now float64, ev Event)

func (f handlerFunc) HandleEvent(now float64, ev Event) { f(now, ev) }

// recording is a Handler appending every dispatched event.
type recording struct {
	ops   []uint8
	times []float64
}

func (r *recording) HandleEvent(now float64, ev Event) {
	r.ops = append(r.ops, ev.Op)
	r.times = append(r.times, now)
}

// oneLane returns a one-lane engine — a plain time-ordered queue — and its
// lane, with h handling KindTest.
func oneLane(h Handler) (*Engine, *Lane) {
	e := NewEngine(1, 0)
	e.Lane(0).SetHandler(KindTest, h)
	return e, e.Lane(0)
}

func TestOrdering(t *testing.T) {
	var rec recording
	e, l := oneLane(&rec)
	l.At(3, Event{Kind: KindTest, Op: 3})
	l.At(1, Event{Kind: KindTest, Op: 1})
	l.At(2, Event{Kind: KindTest, Op: 2})
	e.Run(1)
	if len(rec.ops) != 3 || rec.ops[0] != 1 || rec.ops[1] != 2 || rec.ops[2] != 3 {
		t.Errorf("order = %v", rec.ops)
	}
	if l.Now() != 3 {
		t.Errorf("Now = %v", l.Now())
	}
}

func TestTieBreakInsertionOrder(t *testing.T) {
	var rec recording
	e, l := oneLane(&rec)
	for i := 0; i < 10; i++ {
		l.At(5, Event{Kind: KindTest, Op: uint8(i)})
	}
	e.Run(1)
	if len(rec.ops) != 10 {
		t.Fatalf("dispatched %d events, want 10", len(rec.ops))
	}
	for i, v := range rec.ops {
		if int(v) != i {
			t.Fatalf("tie order broken at %d: %v", i, rec.ops)
		}
	}
}

func TestPastTimesClamp(t *testing.T) {
	var when float64 = -1
	var l *Lane
	e, l := oneLane(handlerFunc(func(now float64, ev Event) {
		if ev.Op == 1 {
			l.At(5, Event{Kind: KindTest, Op: 2}) // in the past → clamps to now
			return
		}
		when = l.Now()
	}))
	l.At(10, Event{Kind: KindTest, Op: 1})
	e.Run(1)
	if when != 10 {
		t.Errorf("past event ran at %v, want 10", when)
	}
}

func TestNestedScheduling(t *testing.T) {
	n := 0
	var l *Lane
	e, l := oneLane(handlerFunc(func(now float64, ev Event) {
		n++
		if n < 100 {
			l.At(l.Now()+1, ev)
		}
	}))
	l.At(0, Event{Kind: KindTest})
	e.Run(1)
	if n != 100 || l.Now() != 99 {
		t.Errorf("n=%d now=%v", n, l.Now())
	}
	if e.Pending() != 0 {
		t.Errorf("pending = %d", e.Pending())
	}
}
