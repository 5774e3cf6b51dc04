package experiments

import (
	"fmt"
	"time"

	"repro/internal/compress"
	"repro/internal/compress/e2mc"
	"repro/internal/gpu/device"
	"repro/internal/workloads"
)

// Decode benchmarking: how fast does the entropy decoder run on the blocks a
// workload actually produces? The corpus is sampled from the device image at
// the same points the online-sampling trainer sees (every region sync), the
// table is the workload's own trained table, and two decoders run over the
// identical encoded streams: the LUT fast path and the retained bit-by-bit
// reference. CI tracks the resulting ns/block per push via
// `slcbench -decodebench` (see the trajectory schema).

// DefaultDecodeCorpusBlocks caps the sampled corpus; a few thousand blocks
// keep the measurement stable without dominating slcbench runtime.
const DefaultDecodeCorpusBlocks = 4096

// DecodeItem is one encoded block of a decode corpus: the concatenated way
// payloads with their byte offsets.
type DecodeItem struct {
	Payload []byte
	Starts  [e2mc.PDWs]int
}

// DecodeCorpus is the decode-benchmark input for one workload.
type DecodeCorpus struct {
	Workload string
	Table    *e2mc.Table
	Items    []DecodeItem
}

// BuildDecodeCorpus samples up to maxBlocks compressible blocks from the
// workload's region syncs and entropy-codes them with the workload's trained
// table. Incompressible blocks are excluded — the decoder never sees them
// (they are stored raw). maxBlocks ≤ 0 selects the default cap.
func BuildDecodeCorpus(r *Runner, w workloads.Workload, maxBlocks int) (*DecodeCorpus, error) {
	if maxBlocks <= 0 {
		maxBlocks = DefaultDecodeCorpusBlocks
	}
	name := w.Info().Name
	tab, err := r.Table(w)
	if err != nil {
		return nil, err
	}
	codec := e2mc.New(tab)

	// Sample raw blocks at every sync, mirroring the trainer's visibility.
	// The stride spreads the cap across large regions instead of saturating
	// it on the first one.
	var blocks [][]byte
	dev := device.New()
	sync := func(reg device.Region) {
		if len(blocks) >= maxBlocks {
			return
		}
		stride := uint64(compress.BlockSize)
		if n := int(reg.Size) / compress.BlockSize; n > maxBlocks/4 {
			stride *= uint64(n / (maxBlocks / 4))
		}
		for addr := reg.Addr; addr < reg.End() && len(blocks) < maxBlocks; addr += stride {
			block, berr := dev.Block(addr)
			if berr != nil {
				panic(berr)
			}
			if codec.CompressedBits(block) >= compress.BlockBits {
				continue
			}
			blocks = append(blocks, append([]byte(nil), block...))
		}
	}
	if _, err := w.Run(workloads.NewCtx(dev, nil, sync)); err != nil {
		return nil, fmt.Errorf("decode corpus %s: %w", name, err)
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("decode corpus %s: no compressible blocks sampled", name)
	}

	c := &DecodeCorpus{Workload: name, Table: tab}
	for _, block := range blocks {
		syms := compress.Symbols(block)
		ways, _ := tab.EncodeWays(syms, 0, 0)
		var it DecodeItem
		for wy := 0; wy < e2mc.PDWs; wy++ {
			it.Starts[wy] = len(it.Payload)
			it.Payload = append(it.Payload, ways[wy]...)
		}
		c.Items = append(c.Items, it)
	}
	return c, nil
}

// DecodeBench is the measured decode performance for one workload, recorded
// in the bench trajectory when `slcbench -decodebench` is given. All times
// are nanoseconds per 128-byte block; Speedup is reference over LUT.
type DecodeBench struct {
	Workload      string
	Blocks        int
	LUTNsPerBlock float64
	RefNsPerBlock float64
	Speedup       float64
}

// timeNsPerBlock drives fn over the corpus repeatedly until the measurement
// window fills, returning the mean decode time per block.
func timeNsPerBlock(items []DecodeItem, fn func(*DecodeItem) error) (float64, error) {
	for i := range items { // warm caches and surface errors once
		if err := fn(&items[i]); err != nil {
			return 0, err
		}
	}
	const window = 30 * time.Millisecond
	var elapsed time.Duration
	blocks := 0
	for elapsed < window {
		start := time.Now() //slclint:allow determinism wall-clock decode timing; decoded bytes are verified separately
		for i := range items {
			if err := fn(&items[i]); err != nil {
				return 0, err
			}
		}
		elapsed += time.Since(start) //slclint:allow determinism wall-clock decode timing, not simulated state
		blocks += len(items)
	}
	return float64(elapsed.Nanoseconds()) / float64(blocks), nil
}

// MeasureDecode times the two decoders over one corpus.
func MeasureDecode(c *DecodeCorpus) (DecodeBench, error) {
	b := DecodeBench{Workload: c.Workload, Blocks: len(c.Items)}
	tab := c.Table
	var err error
	if b.LUTNsPerBlock, err = timeNsPerBlock(c.Items, func(it *DecodeItem) error {
		_, derr := tab.DecodeWays(it.Payload, it.Starts, 0, 0)
		return derr
	}); err != nil {
		return b, fmt.Errorf("decode bench %s: LUT: %w", c.Workload, err)
	}
	if b.RefNsPerBlock, err = timeNsPerBlock(c.Items, func(it *DecodeItem) error {
		_, derr := tab.DecodeWaysRef(it.Payload, it.Starts, 0, 0)
		return derr
	}); err != nil {
		return b, fmt.Errorf("decode bench %s: reference: %w", c.Workload, err)
	}
	if b.LUTNsPerBlock > 0 {
		b.Speedup = b.RefNsPerBlock / b.LUTNsPerBlock
	}
	return b, nil
}

// CollectDecodeBenches measures decode performance for every registered
// workload — the Figure-2 set.
func CollectDecodeBenches(r *Runner, maxBlocks int) ([]DecodeBench, error) {
	var out []DecodeBench
	for _, w := range workloads.Registry() {
		c, err := BuildDecodeCorpus(r, w, maxBlocks)
		if err != nil {
			return nil, err
		}
		b, err := MeasureDecode(c)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}
