package mc

import (
	"math"
	"testing"

	"repro/internal/gpu/events"
)

// newSingle builds the subsystem on a one-lane engine — the standalone
// configuration: every channel shares the coordinator lane and there is no
// cross-lane latency. The returned engine's Run drains it.
func newSingle(cfg Config) (*System, *events.Engine, error) {
	eng := events.NewEngine(1, 0)
	lanes := make([]*events.Lane, cfg.Channels())
	for i := range lanes {
		lanes[i] = eng.Lane(0)
	}
	s, err := New(cfg, eng.Lane(0), lanes, 0)
	if err != nil {
		return nil, nil, err
	}
	return s, eng, nil
}

func newSys(t *testing.T) (*System, *events.Engine) {
	t.Helper()
	s, eng, err := newSingle(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s, eng
}

// completionLog records completions dispatched on the coordinator: the
// (op, arg, time) stream a simulator front-end would consume.
type completionLog struct {
	ops   []uint8
	args  []uint32
	times []float64
}

func (c *completionLog) HandleEvent(now float64, ev events.Event) {
	c.ops = append(c.ops, ev.Op)
	c.args = append(c.args, ev.A)
	c.times = append(c.times, now)
}

// last returns the time of the most recent completion.
func (c *completionLog) last() float64 { return c.times[len(c.times)-1] }

// logCompletions registers a fresh completionLog as the coordinator's
// KindTest handler.
func logCompletions(s *System) *completionLog {
	log := &completionLog{}
	s.coord.SetHandler(events.KindTest, log)
	return log
}

// doneEv is the read completion the tests request.
var doneEv = events.Event{Kind: events.KindTest, Op: 7}

// readAt runs a single read to completion and returns its completion time.
func readAt(s *System, eng *events.Engine, addr uint64, bursts int, compressed bool) float64 {
	log := logCompletions(s)
	s.Read(addr, bursts, compressed, doneEv)
	eng.Run(1)
	return log.last()
}

func TestChannelCount(t *testing.T) {
	s, _ := newSys(t)
	if s.Channels() != 12 {
		t.Errorf("channels = %d, want 12 (6 MCs × 2)", s.Channels())
	}
}

func TestRouteInterleaving(t *testing.T) {
	s, _ := newSys(t)
	ch0, _ := s.route(0)
	ch1, _ := s.route(256)
	ch2, _ := s.route(512)
	if ch0 == ch1 || ch1 == ch2 {
		t.Errorf("adjacent 256B chunks map to same channel: %d %d %d", ch0, ch1, ch2)
	}
	chA, _ := s.route(300)
	chB, _ := s.route(400)
	if chA != chB {
		t.Errorf("same chunk split across channels %d and %d", chA, chB)
	}
}

func TestLocalAddrRowLocality(t *testing.T) {
	s, _ := newSys(t)
	// Consecutive chunks on one channel (3072 B apart globally) must be
	// adjacent in the channel's local space.
	l0 := s.localAddr(0)
	l1 := s.localAddr(3072)
	if l1-l0 != 256 {
		t.Errorf("local stride = %d, want 256", l1-l0)
	}
}

func TestCompressedReadPaysDecompression(t *testing.T) {
	sPlain, qPlain := newSys(t)
	sComp, qComp := newSys(t)
	tPlain := readAt(sPlain, qPlain, 4096, 4, false)
	tComp := readAt(sComp, qComp, 4096, 4, true)
	if tComp <= tPlain {
		t.Errorf("compressed read (%v) not slower than raw (%v) despite MDC+decompression", tComp, tPlain)
	}
}

func TestFewerBurstsFinishSooner(t *testing.T) {
	// Open-loop streams to one channel: 1-burst traffic drains faster.
	s1, q1 := newSys(t)
	s4, q4 := newSys(t)
	log1, log4 := logCompletions(s1), logCompletions(s4)
	for i := 0; i < 200; i++ {
		s1.Read(0, 1, true, doneEv)
		s4.Read(0, 4, true, doneEv)
	}
	q1.Run(1)
	q4.Run(1)
	t1, t4 := log1.last(), log4.last()
	if t1 >= t4 {
		t.Errorf("1-burst stream (%v) not faster than 4-burst stream (%v)", t1, t4)
	}
}

func TestMDCMissFetchesMetadata(t *testing.T) {
	s, q := newSys(t)
	readAt(s, q, 0, 4, true)
	st := s.Stats()
	if st.MDCMisses != 1 || st.MetaBursts != 1 {
		t.Errorf("first compressed read: stats %+v, want 1 MDC miss + 1 meta burst", st)
	}
	// The metadata fetch must be visible as a metadata burst on the DRAM
	// side too, split from data traffic.
	if ds := s.DramStats(); ds.MetaBursts != 1 || ds.Bursts != 4+1 {
		t.Errorf("dram stats %+v, want 4 data + 1 meta burst", ds)
	}
	// A second read in the same 16 KB metadata window AND on the same
	// controller hits. Channel interleaving is 256 B across 12 channels, so
	// addr 3072 returns to channel 0.
	readAt(s, q, 3072, 4, true)
	st = s.Stats()
	if st.MDCHits != 1 {
		t.Errorf("second read should hit MDC: %+v", st)
	}
}

func TestUncompressedSkipsMDC(t *testing.T) {
	s, q := newSys(t)
	readAt(s, q, 0, 4, false)
	s.Write(4096, 4, false)
	q.Run(1)
	st := s.Stats()
	if st.MDCHits+st.MDCMisses != 0 {
		t.Errorf("raw accesses probed the MDC: %+v", st)
	}
	if st.Decompresses+st.Compresses != 0 {
		t.Errorf("raw accesses used the codec: %+v", st)
	}
}

func TestWriteCountsCompression(t *testing.T) {
	s, q := newSys(t)
	s.Write(0, 2, true)
	q.Run(1)
	if st := s.Stats(); st.Compresses != 1 {
		t.Errorf("compressed write not counted: %+v", st)
	}
}

func TestDramStatsAggregation(t *testing.T) {
	s, q := newSys(t)
	logCompletions(s)
	totalBursts := 0
	for i := 0; i < 100; i++ {
		b := i%4 + 1
		totalBursts += b
		s.Read(uint64(i)*256, b, false, doneEv)
	}
	q.Run(1)
	ds := s.DramStats()
	if ds.Bursts != totalBursts {
		t.Errorf("aggregated bursts %d ≠ issued %d", ds.Bursts, totalBursts)
	}
	if ds.MetaBursts != 0 {
		t.Errorf("uncompressed reads produced %d meta bursts", ds.MetaBursts)
	}
}

func TestPathLatencyDelaysCompletion(t *testing.T) {
	// The same read on a system with a non-zero memory path must complete
	// exactly 2×path later (one hop out, one hop back).
	sFast, qFast := newSys(t)
	const path = 50.0
	eng := events.NewEngine(2, path)
	lanes := make([]*events.Lane, DefaultConfig().Channels())
	for i := range lanes {
		lanes[i] = eng.Lane(1)
	}
	sSlow, err := New(DefaultConfig(), eng.Lane(0), lanes, path)
	if err != nil {
		t.Fatal(err)
	}
	tFast := readAt(sFast, qFast, 4096, 4, false)
	tSlow := readAt(sSlow, eng, 4096, 4, false)
	if got, want := tSlow-tFast, 2*path; math.Abs(got-want) > 1e-9 {
		t.Errorf("path latency added %g ns, want %g", got, want)
	}
}

func TestPeakBandwidth(t *testing.T) {
	s, _ := newSys(t)
	if got := s.PeakBandwidthGBs(32); got < 190 || got > 195 {
		t.Errorf("peak bandwidth = %.1f GB/s, want ≈192.4", got)
	}
}

func TestValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.Controllers = 0
	if _, _, err := newSingle(bad); err == nil {
		t.Error("invalid config accepted")
	}
	eng := events.NewEngine(1, 0)
	if _, err := New(DefaultConfig(), nil, nil, 0); err == nil {
		t.Error("nil coordinator accepted")
	}
	if _, err := New(DefaultConfig(), eng.Lane(0), []*events.Lane{eng.Lane(0)}, 0); err == nil {
		t.Error("wrong lane count accepted")
	}
	if _, err := New(DefaultConfig(), eng.Lane(0), make([]*events.Lane, 12), -1); err == nil {
		t.Error("negative path latency accepted")
	}
}

// TestSystemResetReplays drives a stream, resets, replays, and requires
// identical statistics — the reuse contract behind the alloc-free replay.
func TestSystemResetReplays(t *testing.T) {
	s, eng := newSys(t)
	run := func() (Stats, [12]int) {
		for i := 0; i < 300; i++ {
			addr := uint64(i*257) % 40000 * 128
			if i%4 == 0 {
				s.Write(addr, i%3+1, i%2 == 0)
			} else {
				s.Read(addr, i%4+1, i%2 == 0, doneEv)
			}
		}
		eng.Run(1)
		var reqs [12]int
		for i, ch := range s.channels {
			reqs[i] = ch.Stats().Requests
		}
		return s.Stats(), reqs
	}
	logCompletions(s)
	first, firstReqs := run()
	s.Reset()
	eng.Reset()
	second, secondReqs := run()
	if first != second || firstReqs != secondReqs {
		t.Fatalf("replay after Reset diverged:\nfirst  %+v %v\nsecond %+v %v",
			first, firstReqs, second, secondReqs)
	}
	if first.Reads == 0 || first.Writes == 0 {
		t.Fatal("stream exercised no reads or writes")
	}
}
