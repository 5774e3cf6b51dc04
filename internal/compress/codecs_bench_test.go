package compress_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/compress"
	_ "repro/internal/compress/all" // register every codec
	"repro/internal/compress/e2mc"
	"repro/internal/gpu/device"
	"repro/internal/pipeline"
	"repro/internal/slc"
)

// benchBlocks builds a mixed corpus: tick-quantised floats, small integers,
// pointer-like values and raw noise — the block population a GPU memory
// controller sees.
func benchBlocks(n int) [][]byte {
	rng := rand.New(rand.NewSource(99))
	blocks := make([][]byte, n)
	for i := range blocks {
		b := make([]byte, compress.BlockSize)
		switch i % 4 {
		case 0:
			for j := 0; j < 32; j++ {
				v := 2 + float32(rng.Intn(512))/256
				binary.LittleEndian.PutUint32(b[j*4:], math.Float32bits(v))
			}
		case 1:
			for j := 0; j < 32; j++ {
				binary.LittleEndian.PutUint32(b[j*4:], uint32(rng.Intn(4096)))
			}
		case 2:
			base := rng.Uint64()
			for j := 0; j < 16; j++ {
				binary.LittleEndian.PutUint64(b[j*8:], base+uint64(rng.Intn(256)))
			}
		case 3:
			rng.Read(b)
		}
		blocks[i] = b
	}
	return blocks
}

// benchTable trains the one small entropy table every table-driven codec
// in BenchmarkCodecs shares.
func benchTable(tb testing.TB) *e2mc.Table {
	tr := e2mc.NewTrainer()
	for _, blk := range benchBlocks(512) {
		tr.Sample(blk)
	}
	tab, err := tr.Build(0, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return tab
}

// benchCodec builds one registered codec the way BenchmarkCodecs runs it:
// MAG32, sharing tab if the codec needs a table.
func benchCodec(tb testing.TB, name string, tab *e2mc.Table) compress.Codec {
	tb.Helper()
	info, _ := compress.Lookup(name)
	ctx := compress.BuildContext{MAG: compress.MAG32}
	if info.NeedsTable {
		ctx.Table = tab
	}
	c, err := info.New(ctx)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return c
}

// BenchmarkCodecs times every registered codec over the mixed corpus, one
// block per op (so ns/op is ns/block): Compress, Decompress of the codec's
// own encodings, and the two paths the pipeline prefers — for codecs
// implementing compress.SizeOnly, CompressedBits (what every lossless
// evaluation cell runs), and for codecs implementing compress.Syncer, the
// SyncBlock fast path on a scratch copy of each block. Every leg reports
// allocations. Run one codec with e.g. -bench 'Codecs/e2mc/'.
func BenchmarkCodecs(b *testing.B) {
	blocks := benchBlocks(256)
	tab := benchTable(b)
	for _, name := range compress.Names() {
		c := benchCodec(b, name, tab)
		encs := make([]compress.Encoded, len(blocks))
		for i, blk := range blocks {
			encs[i] = c.Compress(blk)
		}
		b.Run(name+"/Compress", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(compress.BlockSize)
			for i := 0; i < b.N; i++ {
				c.Compress(blocks[i%len(blocks)])
			}
		})
		b.Run(name+"/Decompress", func(b *testing.B) {
			dst := make([]byte, compress.BlockSize)
			b.ReportAllocs()
			b.SetBytes(compress.BlockSize)
			for i := 0; i < b.N; i++ {
				if err := c.Decompress(encs[i%len(encs)], dst); err != nil {
					b.Fatal(err)
				}
			}
		})
		if so, ok := c.(compress.SizeOnly); ok {
			b.Run(name+"/CompressedBits", func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(compress.BlockSize)
				for i := 0; i < b.N; i++ {
					so.CompressedBits(blocks[i%len(blocks)])
				}
			})
		}
		if s, ok := c.(compress.Syncer); ok {
			b.Run(name+"/SyncBlock", func(b *testing.B) {
				scratch := make([]byte, compress.BlockSize)
				b.ReportAllocs()
				b.SetBytes(compress.BlockSize)
				for i := 0; i < b.N; i++ {
					copy(scratch, blocks[i%len(blocks)])
					s.SyncBlock(scratch)
				}
			})
		}
	}
}

// TestSizeOnlyAllocFree pins every registered SizeOnly codec's
// CompressedBits to zero allocations over the benchmark corpus: it is the
// per-block path of every lossless evaluation cell, so it must size a block
// without encoding it.
func TestSizeOnlyAllocFree(t *testing.T) {
	blocks := benchBlocks(64)
	tab := benchTable(t)
	for _, name := range compress.Names() {
		so, ok := benchCodec(t, name, tab).(compress.SizeOnly)
		if !ok {
			continue
		}
		allocs := testing.AllocsPerRun(5, func() {
			for _, blk := range blocks {
				so.CompressedBits(blk)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: CompressedBits allocates %.1f objects per %d blocks, want 0", name, allocs, len(blocks))
		}
	}
}

// benchSync measures pipeline.Sync — the hot path of every evaluation cell —
// over a 4 MiB approximable region under the full SLC stack (E2MC lossless
// plus TSLC-OPT lossy with write-back), at the given worker count. Compare
// BenchmarkSyncSerial to BenchmarkSyncParallel for the block-fan-out
// speedup.
func benchSync(b *testing.B, workers int) {
	const regionSize = 4 << 20
	dev := device.New()
	r, err := dev.Malloc("bench", regionSize, true, 16)
	if err != nil {
		b.Fatal(err)
	}
	blocks := benchBlocks(512)
	mem, err := dev.Bytes(r.Addr, r.Size)
	if err != nil {
		b.Fatal(err)
	}
	for off := 0; off < len(mem); off += compress.BlockSize {
		copy(mem[off:], blocks[(off/compress.BlockSize)%len(blocks)])
	}
	tab := benchTable(b)
	lossy, err := slc.New(tab, slc.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	p, err := pipeline.New(dev, compress.MAG32, e2mc.New(tab), lossy)
	if err != nil {
		b.Fatal(err)
	}
	p.SetWorkers(workers)
	b.SetBytes(regionSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Sync(r)
	}
}

func BenchmarkSyncSerial(b *testing.B)   { benchSync(b, 1) }
func BenchmarkSyncParallel(b *testing.B) { benchSync(b, runtime.GOMAXPROCS(0)) }
