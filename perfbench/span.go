package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one cell or one request
// share an id; parent indexes the enclosing span of the same tracer (-1 for
// a root). A span with cross-goroutine causality (a server handler serving a
// client request) is linked to its cause by id only.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records the spans of one goroutine. Spans nest strictly, so a
// stack gives each new span its parent. Not safe for concurrent use: each
// worker, client and server request owns its own.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int32
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, id int64) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(t.epoch))})
	t.stack = append(t.stack, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int32) {
	if n := len(t.stack); n == 0 || t.stack[n-1] != i {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", i))
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = int64(time.Since(t.epoch))
}

// do runs fn inside a span.
func (t *tracer) do(name string, id int64, fn func()) {
	i := t.begin(name, id)
	fn()
	t.end(i)
}

// selfTimes returns, per span, its duration minus the durations of its
// direct children, and whether each span has children.
func (t *tracer) selfTimes() (self []time.Duration, hasChild []bool) {
	self = make([]time.Duration, len(t.spans))
	hasChild = make([]bool, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
			hasChild[s.Parent] = true
		}
	}
	return self, hasChild
}

// spanSet gathers the tracers of one run for aggregation and the span dump.
type spanSet struct {
	mu      sync.Mutex
	tracers []*tracer
	// capacity is the goroutine-time the traced phase offered: its wall
	// time times the number of workers or clients. Self times are shares
	// of it; what no span covers is idle or unattributed glue.
	capacity time.Duration
}

func (ss *spanSet) add(t *tracer) {
	ss.mu.Lock()
	ss.tracers = append(ss.tracers, t)
	ss.mu.Unlock()
}

// totals sums span durations and self times by name and counts spans.
type totals struct {
	dur   map[string]time.Duration
	self  map[string]time.Duration
	count map[string]int
	// waitSelf is the self time of spans that computed nothing themselves
	// because another goroutine held the singleflight slot (golden and
	// tables spans without a child).
	waitSelf time.Duration
}

// waitable names the caller-side spans whose self time is a singleflight
// wait when no compute child ran under them.
var waitable = map[string]bool{spanGolden: true, spanTables: true}

func (ss *spanSet) totals() totals {
	tot := totals{dur: map[string]time.Duration{}, self: map[string]time.Duration{}, count: map[string]int{}}
	for _, t := range ss.tracers {
		self, hasChild := t.selfTimes()
		for i, s := range t.spans {
			tot.count[s.Name]++
			tot.dur[s.Name] += s.dur()
			if waitable[s.Name] && !hasChild[i] {
				tot.waitSelf += self[i]
				continue
			}
			tot.self[s.Name] += self[i]
		}
	}
	return tot
}

// write dumps every span as one JSON object per line, tracer by tracer in
// start order (parent indexes count within the tracer), so a run's trace can
// be inspected after it ends.
func (ss *spanSet) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for ti, t := range ss.tracers {
		for _, s := range t.spans {
			rec := struct {
				Tracer int `json:"tracer"`
				span
			}{ti, s}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return fmt.Errorf("span dump: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return nil
}
