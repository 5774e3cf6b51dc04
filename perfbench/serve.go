package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/compress/sz"
	"repro/internal/gpu/device"
	"repro/internal/serving"
	"repro/internal/workloads"
)

const (
	// serveClients is the closed loop's connection count: each client
	// sends its next request only after the previous one completed.
	serveClients = 2
	// maxRequestBlocks bounds the blocks of one compress request; sizes
	// are drawn uniformly from 1..maxRequestBlocks.
	maxRequestBlocks = 256
	// imageBlocks caps each captured device image; every region keeps an
	// equal share, so inputs and outputs both feed the requests.
	imageBlocks = 32768
	// serveSetupReps is how many times a run starts a server and warms its
	// tables; setup_s is the median.
	serveSetupReps = 5
	// spanHeader carries the client's request id to the traced handler.
	spanHeader = "X-Perfbench-Id"
)

// sourceNames are the workloads whose device images feed serve-mixed.
var sourceNames = []string{"TP", "DCT", "HPC-S"}

// serveInputs are the request sources and output oracles, captured before
// any server starts and excluded from every measurement.
type serveInputs struct {
	images map[string][]byte
	// tslcRef holds, per block of the DCT image, tslc-opt's in-process
	// Compress→Decompress result — what a decompressed block must equal.
	tslcRef []byte
	// codecs are the serve codecs built in-process (trained on the same
	// profiles) for the per-layer codec measurements.
	codecs map[string]compress.Codec
}

// captureImage runs a workload and returns its final device image, each
// region truncated to an equal share of limit blocks.
func captureImage(name string, limit int) ([]byte, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	dev := device.New()
	if _, err := w.Run(workloads.NewCtx(dev, nil, nil)); err != nil {
		return nil, fmt.Errorf("capturing %s: %w", name, err)
	}
	regs := dev.Regions()
	share := limit / len(regs) * compress.BlockSize
	var img []byte
	for _, r := range regs {
		b, err := dev.Bytes(r.Addr, min(r.Size, share))
		if err != nil {
			return nil, fmt.Errorf("capturing %s: %w", name, err)
		}
		img = append(img, b...)
	}
	return img, nil
}

func captureInputs(tiny bool) (*serveInputs, error) {
	limit := imageBlocks
	if tiny {
		limit = 512
	}
	in := &serveInputs{images: map[string][]byte{}, codecs: map[string]compress.Codec{}}
	for _, name := range sourceNames {
		img, err := captureImage(name, limit)
		if err != nil {
			return nil, err
		}
		in.images[name] = img
	}
	// The benchmark's own table cache trains the same tables the server
	// will, through the same public construction path.
	var tc serving.TableCache
	for _, c := range serveCodecs {
		var w workloads.Workload
		if c.profile != "" {
			var err error
			if w, err = workloads.ByName(c.profile); err != nil {
				return nil, err
			}
		}
		lossless, lossy, err := tc.Codecs(w, c.name, compress.MAG32, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", c.name, err)
		}
		if lossy != nil {
			in.codecs[c.name] = lossy
		} else {
			in.codecs[c.name] = lossless
		}
	}
	dct := in.images["DCT"]
	in.tslcRef = make([]byte, len(dct))
	tslc := in.codecs["tslc-opt"]
	for off := 0; off < len(dct); off += compress.BlockSize {
		enc := tslc.Compress(dct[off : off+compress.BlockSize])
		if err := tslc.Decompress(enc, in.tslcRef[off:off+compress.BlockSize]); err != nil {
			return nil, fmt.Errorf("tslc-opt reference: %w", err)
		}
	}
	return in, nil
}

// check verifies a decompressed batch against the source blocks: lossless
// codecs byte-exact, sz within its bound (non-finite lanes bit-exact),
// tslc-opt equal to the in-process reference.
func (in *serveInputs) check(codec, source string, off int, src, got []byte) error {
	if len(got) != len(src) {
		return fmt.Errorf("%s: decompressed %d bytes, want %d", codec, len(got), len(src))
	}
	switch codec {
	case "tslc-opt":
		if !bytes.Equal(got, in.tslcRef[off:off+len(src)]) {
			return fmt.Errorf("tslc-opt: output differs from the in-process reference")
		}
	case "sz-lorenzo":
		for i := 0; i+4 <= len(src); i += 4 {
			a := math.Float32frombits(binary.LittleEndian.Uint32(src[i:]))
			b := math.Float32frombits(binary.LittleEndian.Uint32(got[i:]))
			if math.IsNaN(float64(a)) || math.IsInf(float64(a), 0) {
				if math.Float32bits(a) != math.Float32bits(b) {
					return fmt.Errorf("sz-lorenzo: non-finite lane %d not bit-exact", i/4)
				}
			} else if math.Abs(float64(b)-float64(a)) > sz.DefaultBound {
				return fmt.Errorf("sz-lorenzo: lane %d off by %g, bound %g", i/4, math.Abs(float64(b)-float64(a)), sz.DefaultBound)
			}
		}
	default:
		if !bytes.Equal(got, src) {
			return fmt.Errorf("%s (%s): lossless round trip differs", codec, source)
		}
	}
	return nil
}

// server is one in-process slcd: a Core behind an HTTP handler on a
// loopback listener.
type server struct {
	core *serving.Core
	srv  *http.Server
	url  string
	done chan error
}

// startServer serves h (nil: the real handler over a fresh default Core)
// on a new loopback listener.
func startServer(core *serving.Core, h http.Handler) (*server, error) {
	if core == nil {
		core = serving.NewCore(serving.Config{})
	}
	if h == nil {
		h = serving.NewHandler(core, 0)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{core: core, srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop closes the server and waits for its Serve loop to return.
func (s *server) stop() {
	s.srv.Close()
	<-s.done
}

// client is one closed-loop connection with its own schedule.
type client struct {
	hc  *http.Client
	rng *rand.Rand
	// tally counts responses by endpoint and status, for the /metrics
	// cross-check.
	tally map[string]int64
	t     *tracer // nil when untraced
}

func newClient(seed int64, id int) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		rng:   rand.New(rand.NewSource(seed*1_000_003 + int64(id))),
		tally: map[string]int64{},
	}
}

// post sends one JSON body and returns the status, the response body and
// the round-trip time, which starts when the request is sent and ends when
// the response body has been read.
func (c *client) post(url, endpoint string, body []byte, id int64) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/"+endpoint, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	var sp int32
	if c.t != nil {
		sp = c.t.begin("client.request", id)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		if c.t != nil {
			c.t.end(sp)
		}
		return 0, nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if c.t != nil {
		c.t.end(sp)
	}
	if err != nil {
		return 0, nil, 0, err
	}
	c.tally[endpoint+"|"+strconv.Itoa(resp.StatusCode)]++
	return resp.StatusCode, out, lat, nil
}

// span runs fn inside a client-side span when tracing.
func (c *client) span(name string, id int64, fn func()) {
	if c.t == nil {
		fn()
		return
	}
	c.t.do(name, id, fn)
}

// sample is one timed request.
type sample struct {
	decompress bool
	lat        time.Duration
}

// loopStats is what one client's closed loop produced.
type loopStats struct {
	samples   []sample
	attempted int64
	failed    int64
	errs      []string
}

// loop runs compress→decompress round trips until the deadline.
func (c *client) loop(url string, in *serveInputs, tiny bool, deadline time.Time, idBase, idStep int64, corrupt func(*serving.DecompressRequest)) loopStats {
	var st loopStats
	maxBlocks := maxRequestBlocks
	if tiny {
		maxBlocks = 8
	}
	fail := func(format string, args ...any) {
		st.failed++
		if len(st.errs) < 5 {
			st.errs = append(st.errs, fmt.Sprintf(format, args...))
		}
	}
	for id := idBase; time.Now().Before(deadline); id += idStep {
		spec := serveCodecs[c.rng.Intn(len(serveCodecs))]
		source := spec.source
		if source == "" {
			source = sourceNames[c.rng.Intn(len(sourceNames))]
		}
		img := in.images[source]
		n := 1 + c.rng.Intn(maxBlocks)
		off := c.rng.Intn(len(img)/compress.BlockSize-n+1) * compress.BlockSize
		src := img[off : off+n*compress.BlockSize]

		// Marshalling these request structs (strings, ints, byte slices)
		// cannot fail, so its error is dropped here and below.
		var body []byte
		c.span("client.encode", id, func() {
			body, _ = json.Marshal(serving.CompressRequest{Codec: spec.name, Profile: spec.profile, Data: src})
		})
		st.attempted++
		status, out, lat, err := c.post(url, "compress", body, id)
		if err != nil || status != http.StatusOK {
			fail("compress %s ×%d: status %d: %v %s", spec.name, n, status, err, out)
			continue
		}
		st.samples = append(st.samples, sample{lat: lat})
		var cresp serving.CompressResponse
		c.span("client.decode", id, func() { err = json.Unmarshal(out, &cresp) })
		if err != nil || len(cresp.Blocks) != n {
			fail("compress %s ×%d: bad response (%d blocks): %v", spec.name, n, len(cresp.Blocks), err)
			continue
		}

		dreq := serving.DecompressRequest{Codec: spec.name, Profile: spec.profile, Blocks: cresp.Blocks}
		if corrupt != nil {
			corrupt(&dreq)
		}
		c.span("client.encode", id+1, func() { body, _ = json.Marshal(dreq) })
		st.attempted++
		status, out, lat, err = c.post(url, "decompress", body, id+1)
		if err != nil || status != http.StatusOK {
			fail("decompress %s ×%d: status %d: %v %s", spec.name, n, status, err, out)
			continue
		}
		st.samples = append(st.samples, sample{decompress: true, lat: lat})
		var dresp serving.DecompressResponse
		c.span("client.decode", id+1, func() { err = json.Unmarshal(out, &dresp) })
		if err == nil {
			c.span("client.check", id+1, func() { err = in.check(spec.name, source, off, src, dresp.Data) })
		}
		if err != nil {
			fail("decompress %s ×%d at %s+%d: %v", spec.name, n, source, off, err)
		}
	}
	return st
}

// warm sends one single-block compress request per serve codec, so every
// table is trained and every codec built before the timed phase.
func warm(url string, c *client, in *serveInputs) error {
	for _, spec := range serveCodecs {
		source := spec.source
		if source == "" {
			source = sourceNames[0]
		}
		body, err := json.Marshal(serving.CompressRequest{Codec: spec.name, Profile: spec.profile, Data: in.images[source][:compress.BlockSize]})
		if err != nil {
			return err
		}
		status, out, _, err := c.post(url, "compress", body, -1)
		if err != nil {
			return fmt.Errorf("warming %s: %w", spec.name, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("warming %s: status %d: %s", spec.name, status, out)
		}
	}
	return nil
}

// phase is one timed closed-loop phase.
type phase struct {
	wall time.Duration
	loopStats
}

// drive runs the closed loop of every client against url until the
// deadline and merges their results.
func drive(url string, clients []*client, in *serveInputs, tiny bool, d time.Duration, corrupt func(*serving.DecompressRequest)) phase {
	start := time.Now()
	deadline := start.Add(d)
	stats := make([]loopStats, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			// Each round trip takes two ids (compress, decompress); clients
			// interleave their pairs, clear of earlier phases' ids.
			stats[i] = c.loop(url, in, tiny, deadline, start.UnixNano()+2*int64(i), 2*int64(len(clients)), corrupt)
		}(i, c)
	}
	wg.Wait()
	p := phase{wall: time.Since(start)}
	for _, s := range stats {
		p.samples = append(p.samples, s.samples...)
		p.attempted += s.attempted
		p.failed += s.failed
		p.errs = append(p.errs, s.errs...)
	}
	return p
}

// scrape reads the server's /metrics exposition into series → value.
func scrape(url string, c *client) (map[string]float64, error) {
	resp, err := c.hc.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	return out, nil
}

// crossCheck compares slcd's own request counters with the clients' tally
// and requires that no table was retrained after warm-up.
func crossCheck(got map[string]float64, clients []*client, retrainsAfterWarm float64) []string {
	want := map[string]int64{}
	for _, c := range clients {
		for k, v := range c.tally {
			want[k] += v
		}
	}
	var bad []string
	for k, v := range want {
		endpoint, code, _ := strings.Cut(k, "|")
		series := fmt.Sprintf(`slcd_requests_total{endpoint=%q,code=%q}`, endpoint, code)
		if got[series] != float64(v) {
			bad = append(bad, fmt.Sprintf("/metrics %s = %v, clients saw %d", series, got[series], v))
		}
	}
	for series, v := range got {
		if strings.HasPrefix(series, "slcd_requests_total{") && v > 0 {
			endpoint, code := labelValue(series, "endpoint"), labelValue(series, "code")
			if want[endpoint+"|"+code] == 0 {
				bad = append(bad, fmt.Sprintf("/metrics %s = %v, clients saw none", series, v))
			}
		}
	}
	if r := got["slcd_table_retrains_total"]; r != retrainsAfterWarm {
		bad = append(bad, fmt.Sprintf("slcd_table_retrains_total grew from %v to %v during the timed phase", retrainsAfterWarm, r))
	}
	return bad
}

func labelValue(series, label string) string {
	_, rest, ok := strings.Cut(series, label+`="`)
	if !ok {
		return ""
	}
	v, _, _ := strings.Cut(rest, `"`)
	return v
}

// runServe runs serve-mixed. corrupt, when set, edits every decompress
// request before it is sent (self-tests use it to prove the oracle bites).
func runServe(o options, corrupt func(*serving.DecompressRequest)) (result, error) {
	in, err := captureInputs(o.tiny)
	if err != nil {
		return result{}, err
	}
	clients := make([]*client, serveClients)
	for i := range clients {
		clients[i] = newClient(o.seed, i)
	}
	defer func() {
		for _, c := range clients {
			c.hc.CloseIdleConnections()
		}
	}()

	// Set-up: start a server and warm its tables, serveSetupReps times
	// from cold; the last server stays up for the timed phases.
	var s *server
	setup, err := medianSetup(serveSetupReps, func() error {
		if s != nil {
			s.stop()
			clients[0].hc.CloseIdleConnections()
			clients[0].tally = map[string]int64{}
		}
		var err error
		if s, err = startServer(nil, nil); err != nil {
			return err
		}
		return warm(s.url, clients[0], in)
	})
	if s != nil {
		defer s.stop()
	}
	if err != nil {
		return result{}, err
	}
	before, err := scrape(s.url, clients[0])
	if err != nil {
		return result{}, err
	}
	retrains := before["slcd_table_retrains_total"]

	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		d /= 2
	}
	plain := drive(s.url, clients, in, o.tiny, d, corrupt)
	var res result
	res.Attempted, res.Failed = plain.attempted, plain.failed
	errs := plain.errs

	var tp *tracedPhase
	if o.trace {
		if tp, err = runTracedPhase(s.core, clients, in, o, d, corrupt); err != nil {
			return result{}, err
		}
		res.Attempted += tp.attempted
		res.Failed += tp.failed
		errs = append(errs, tp.errs...)
	}

	after, err := scrape(s.url, clients[0])
	if err != nil {
		return result{}, err
	}
	if bad := crossCheck(after, clients, retrains); len(bad) > 0 {
		res.Failed += int64(len(bad))
		errs = append(errs, bad...)
	}
	for _, e := range errs {
		fmt.Fprintf(o.log, "perfbench: serve-mixed: %s\n", e)
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(o.log, "perfbench: serve-mixed: %d requests in %.2fs\n", plain.attempted, plain.wall.Seconds())

	if !o.trace {
		lat := make([]time.Duration, len(plain.samples))
		for i, s := range plain.samples {
			lat[i] = s.lat
		}
		msLat := durationsMS(lat)
		res.set("setup_s", setup, "s")
		res.set("ops_per_s", float64(plain.attempted)/plain.wall.Seconds(), "1/s")
		res.set("op_p50_ms", quantile(msLat, 0.5), "ms")
		res.set("op_p90_ms", quantile(msLat, 0.9), "ms")
		res.set("peak_rss_mb", peakRSSMB(), "MB")
		return res, nil
	}
	vals := tp.vals
	for _, dec := range []bool{false, true} {
		var xs []float64
		for _, s := range plain.samples {
			if s.decompress == dec {
				xs = append(xs, ms(s.lat))
			}
		}
		name := "serve.compress"
		if dec {
			name = "serve.decompress"
		}
		vals[name+"_samples"] = float64(len(xs))
		vals[name+"_p50_ms"] = quantile(xs, 0.5)
		vals[name+"_p99_ms"] = quantile(xs, 0.99)
	}
	vals["trace.overhead_frac"] = frac(float64(plain.attempted)/plain.wall.Seconds(), float64(tp.attempted)/tp.wall.Seconds()) - 1
	vals["serving.rejected"] = rejected(after)
	if err := measureCodecs(in, vals); err != nil {
		return result{}, err
	}
	setLayers(&res, vals, tp.shares, tp.spans.capacity)
	path := filepath.Join(o.spans, fmt.Sprintf("serve-mixed-seed%d.jsonl", o.seed))
	if err := tp.spans.write(path); err != nil {
		return result{}, err
	}
	return res, nil
}

// rejected sums every non-200 response slcd counted.
func rejected(m map[string]float64) float64 {
	var n float64
	for series, v := range m {
		if strings.HasPrefix(series, "slcd_requests_total{") && labelValue(series, "code") != "200" {
			n += v
		}
	}
	return n
}

// tracedPhase is the traced half of a traced serve run.
type tracedPhase struct {
	phase
	spans  spanSet
	shares map[string]time.Duration
	vals   map[string]float64
}

// tracedHandler mirrors serving.Handler's post adapter — JSON decode, Core
// call under the request timeout, JSON encode, request metrics — with a
// span around each step. Everything else goes to the real handler.
type tracedHandler struct {
	core  *serving.Core
	real  http.Handler
	epoch time.Time
	spans *spanSet

	mu sync.Mutex
	// perCodec accumulates Core call time and blocks per endpoint|codec.
	perCodec map[string]*codecTime
}

type codecTime struct {
	d      time.Duration
	blocks int64
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/compress":
		servePost(h, w, r, "compress", func(ctx context.Context, req *serving.CompressRequest) (any, string, int, error) {
			resp, err := h.core.Compress(ctx, req)
			return resp, req.Codec, len(req.Data) / compress.BlockSize, err
		})
	case "/v1/decompress":
		servePost(h, w, r, "decompress", func(ctx context.Context, req *serving.DecompressRequest) (any, string, int, error) {
			resp, err := h.core.Decompress(ctx, req)
			return resp, req.Codec, len(req.Blocks), err
		})
	default:
		h.real.ServeHTTP(w, r)
	}
}

func servePost[Req any](h *tracedHandler, w http.ResponseWriter, r *http.Request, endpoint string, fn func(context.Context, *Req) (any, string, int, error)) {
	id, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	t := newTracer(h.epoch)
	defer h.spans.add(t)
	root := t.begin("http.handler", id)
	defer t.end(root)
	start := time.Now()
	status := http.StatusOK
	var body any
	var req Req
	var err error
	t.do("http.json_decode", id, func() { err = json.NewDecoder(r.Body).Decode(&req) })
	if err != nil {
		status, body = http.StatusBadRequest, map[string]string{"error": err.Error()}
	} else {
		ctx, cancel := context.WithTimeout(r.Context(), serving.DefaultRequestTimeout)
		var codec string
		var blocks int
		var resp any
		callStart := time.Now()
		t.do("serving."+endpoint, id, func() { resp, codec, blocks, err = fn(ctx, &req) })
		callDur := time.Since(callStart)
		cancel()
		if err != nil {
			status, body = statusOf(err), map[string]string{"error": err.Error()}
		} else {
			body = resp
			h.mu.Lock()
			ct := h.perCodec[endpoint+"|"+codec]
			if ct == nil {
				ct = &codecTime{}
				h.perCodec[endpoint+"|"+codec] = ct
			}
			ct.d += callDur
			ct.blocks += int64(blocks)
			h.mu.Unlock()
		}
	}
	h.core.Metrics.Add("slcd_requests_total", `endpoint="`+endpoint+`",code="`+strconv.Itoa(status)+`"`, 1)
	h.core.Metrics.Observe("slcd_request_seconds", `endpoint="`+endpoint+`"`, time.Since(start).Seconds())
	t.do("http.json_encode", id, func() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(body) //nolint:errcheck // headers are out; the client sees a short body
	})
}

// statusOf maps a Core error to the status the real handler would send.
func statusOf(err error) int {
	var reqErr *serving.RequestError
	switch {
	case errors.As(err, &reqErr):
		return http.StatusBadRequest
	case errors.Is(err, serving.ErrSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, serving.ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// runTracedPhase serves the same Core through the traced handler on a
// second listener and drives the clients against it with client-side
// spans.
func runTracedPhase(core *serving.Core, clients []*client, in *serveInputs, o options, d time.Duration, corrupt func(*serving.DecompressRequest)) (*tracedPhase, error) {
	tp := &tracedPhase{}
	epoch := time.Now()
	h := &tracedHandler{core: core, real: serving.NewHandler(core, 0), epoch: epoch, spans: &tp.spans, perCodec: map[string]*codecTime{}}
	s, err := startServer(core, h)
	if err != nil {
		return nil, err
	}
	for _, c := range clients {
		c.t = newTracer(epoch)
	}
	tp.phase = drive(s.url, clients, in, o.tiny, d, corrupt)
	for _, c := range clients {
		tp.spans.add(c.t)
		c.hc.CloseIdleConnections()
		c.t = nil
	}
	s.stop()
	tp.spans.capacity = tp.wall * serveClients

	tot := tp.spans.totals()
	handler := tot.dur["http.handler"]
	jsonTime := tot.dur["http.json_decode"] + tot.dur["http.json_encode"]
	servingTime := tot.dur["serving.compress"] + tot.dur["serving.decompress"]
	requests := float64(tot.count["client.request"])
	tp.shares = map[string]time.Duration{
		"serving":        servingTime,
		"http_json":      jsonTime,
		"http_transport": tot.dur["client.request"] - handler + tot.self["http.handler"],
		"client":         tot.dur["client.encode"] + tot.dur["client.decode"] + tot.dur["client.check"],
	}
	tp.vals = map[string]float64{
		"serving.compress_us":    frac(float64(tot.dur["serving.compress"])/1e3, float64(tot.count["serving.compress"])),
		"serving.decompress_us":  frac(float64(tot.dur["serving.decompress"])/1e3, float64(tot.count["serving.decompress"])),
		"http.json_decode_us":    frac(float64(tot.dur["http.json_decode"])/1e3, float64(tot.count["http.json_decode"])),
		"http.json_encode_us":    frac(float64(tot.dur["http.json_encode"])/1e3, float64(tot.count["http.json_encode"])),
		"http.transport_self_us": frac(float64(tp.shares["http_transport"])/1e3, requests),
		"trace.wall_ms":          ms(tp.wall),
	}
	for key, ct := range h.perCodec {
		endpoint, codec, _ := strings.Cut(key, "|")
		tp.vals["serving."+codec+"."+endpoint+"_ns_per_block"] = frac(float64(ct.d), float64(ct.blocks))
	}
	return tp, nil
}

// measureCodecs times each serve codec's serial Compress and Decompress
// in-process over its source blocks — the codec layer alone, without
// batching, gap arrays, JSON or HTTP.
func measureCodecs(in *serveInputs, vals map[string]float64) error {
	const minTime = 50 * time.Millisecond
	for _, spec := range serveCodecs {
		codec := in.codecs[spec.name]
		var blocks [][]byte
		for _, name := range sourceNames {
			if spec.source != "" && spec.source != name {
				continue
			}
			img := in.images[name]
			for off := 0; off+compress.BlockSize <= len(img) && len(blocks) < 4096; off += compress.BlockSize {
				blocks = append(blocks, img[off:off+compress.BlockSize])
			}
		}
		encs := make([]compress.Encoded, len(blocks))
		var bits int64
		var n int64
		start := time.Now()
		for time.Since(start) < minTime || n == 0 {
			for i, b := range blocks {
				encs[i] = codec.Compress(b)
			}
			n += int64(len(blocks))
		}
		vals["codec."+spec.name+".compress_ns_per_block"] = float64(time.Since(start)) / float64(n)
		for _, e := range encs {
			bits += int64(e.Bits)
		}
		vals["codec."+spec.name+".raw_ratio"] = frac(float64(len(blocks)*compress.BlockBits), float64(bits))
		dst := make([]byte, compress.BlockSize)
		n = 0
		start = time.Now()
		for time.Since(start) < minTime || n == 0 {
			for _, e := range encs {
				if err := codec.Decompress(e, dst); err != nil {
					return fmt.Errorf("%s: decompressing its own encoding: %w", spec.name, err)
				}
			}
			n += int64(len(encs))
		}
		vals["codec."+spec.name+".decompress_ns_per_block"] = float64(time.Since(start)) / float64(n)
	}
	return nil
}
