package hycomp

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/compress"
	"repro/internal/compress/e2mc"
)

func testCodec(t testing.TB) *Codec {
	t.Helper()
	tr := e2mc.NewTrainer()
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 400; i++ {
		tr.Sample(floatBlock(rng))
	}
	tab, err := tr.Build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return New(tab)
}

func floatBlock(rng *rand.Rand) []byte {
	b := make([]byte, compress.BlockSize)
	for i := 0; i < 32; i++ {
		v := 2 + float32(rng.Intn(512))/256
		binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(v))
	}
	return b
}

func pointerBlock(rng *rand.Rand) []byte {
	b := make([]byte, compress.BlockSize)
	base := uint64(0x7F3A_0000_0000) | uint64(rng.Intn(1<<16))<<16
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint64(b[i*8:], base+uint64(rng.Intn(4096)))
	}
	return b
}

func intBlock(rng *rand.Rand) []byte {
	b := make([]byte, compress.BlockSize)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(rng.Intn(1<<14))<<uint(rng.Intn(18)))
	}
	return b
}

func TestClassify(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := classify(floatBlock(rng)); got != tagEntropy {
		t.Errorf("float block classified %d, want entropy", got)
	}
	if got := classify(pointerBlock(rng)); got != tagBDI {
		t.Errorf("pointer block classified %d, want BDI", got)
	}
}

// classifyRef is the map-based classifier the fixed-size sets replaced,
// kept as the oracle.
func classifyRef(block []byte) int {
	top := map[uint32]struct{}{}
	allZeroTop := true
	for i := 0; i < compress.BlockSize; i += 8 {
		t := uint32(binary.LittleEndian.Uint64(block[i:]) >> 32)
		top[t] = struct{}{}
		if t != 0 {
			allZeroTop = false
		}
	}
	if len(top) <= 2 && !allZeroTop {
		return tagBDI
	}
	hi := map[byte]struct{}{}
	for _, w := range compress.Words(block) {
		hi[byte(w>>24)] = struct{}{}
	}
	if len(hi) <= 6 {
		return tagEntropy
	}
	return tagFPC
}

func TestClassifyMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 3000; trial++ {
		var b []byte
		switch trial % 6 {
		case 0:
			b = floatBlock(rng)
		case 1:
			b = pointerBlock(rng)
		case 2:
			b = intBlock(rng)
		case 3:
			b = make([]byte, compress.BlockSize)
			rng.Read(b)
		case 4: // 1..4 distinct top words, zero among them or not
			b = make([]byte, compress.BlockSize)
			tops := make([]uint32, 1+rng.Intn(4))
			for k := range tops {
				tops[k] = uint32(rng.Intn(2)) * rng.Uint32()
			}
			for i := 0; i < compress.BlockSize; i += 8 {
				v := uint64(tops[rng.Intn(len(tops))])<<32 | uint64(rng.Uint32())
				binary.LittleEndian.PutUint64(b[i:], v)
			}
		case 5: // 4..9 distinct top bytes per word, around the ≤6 boundary
			b = make([]byte, compress.BlockSize)
			rng.Read(b)
			exps := make([]byte, 4+rng.Intn(6))
			for k := range exps {
				exps[k] = byte(rng.Intn(256))
			}
			for i := 3; i < compress.BlockSize; i += 4 {
				b[i] = exps[rng.Intn(len(exps))]
			}
		}
		if got, want := classify(b), classifyRef(b); got != want {
			t.Fatalf("trial %d: classify = %d, map oracle = %d (block %x)", trial, got, want, b)
		}
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	c := testCodec(t)
	rng := rand.New(rand.NewSource(2))
	dst := make([]byte, compress.BlockSize)
	gens := []func(*rand.Rand) []byte{floatBlock, pointerBlock, intBlock}
	for trial := 0; trial < 300; trial++ {
		block := gens[trial%len(gens)](rng)
		enc := c.Compress(block)
		if enc.Bits > compress.BlockBits {
			t.Fatalf("bits %d exceed block", enc.Bits)
		}
		if err := c.Decompress(enc, dst); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(dst, block) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}
}

func TestHybridBeatsWorstConstituent(t *testing.T) {
	// On pointer blocks HyComp must do clearly better than pure FPC/entropy
	// would be forced to — the selection is the point.
	c := testCodec(t)
	rng := rand.New(rand.NewSource(3))
	var total int
	n := 100
	for i := 0; i < n; i++ {
		total += c.Compress(pointerBlock(rng)).Bits
	}
	if avg := total / n; avg > compress.BlockBits/2 {
		t.Errorf("pointer blocks average %d bits; BDI path should halve them", avg)
	}
}

func TestCompressedBitsMatchesCompress(t *testing.T) {
	c := testCodec(t)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		block := floatBlock(rng)
		if got, want := c.CompressedBits(block), c.Compress(block).Bits; got != want {
			t.Fatalf("CompressedBits=%d Compress=%d", got, want)
		}
	}
}

func TestRandomDataFallsBackRaw(t *testing.T) {
	c := testCodec(t)
	rng := rand.New(rand.NewSource(5))
	block := make([]byte, compress.BlockSize)
	rng.Read(block)
	enc := c.Compress(block)
	dst := make([]byte, compress.BlockSize)
	if err := c.Decompress(enc, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, block) {
		t.Error("raw fallback round trip mismatch")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	c := testCodec(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var block []byte
		switch rng.Intn(4) {
		case 0:
			block = floatBlock(rng)
		case 1:
			block = pointerBlock(rng)
		case 2:
			block = intBlock(rng)
		case 3:
			block = make([]byte, compress.BlockSize)
			rng.Read(block)
		}
		enc := c.Compress(block)
		dst := make([]byte, compress.BlockSize)
		if err := c.Decompress(enc, dst); err != nil {
			return false
		}
		return bytes.Equal(dst, block)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecompressGarbageNoPanic(t *testing.T) {
	c := testCodec(t)
	rng := rand.New(rand.NewSource(6))
	dst := make([]byte, compress.BlockSize)
	for i := 0; i < 200; i++ {
		n := rng.Intn(64) + 1
		p := make([]byte, n)
		rng.Read(p)
		_ = c.Decompress(compress.Encoded{Bits: n * 8, Payload: p}, dst)
	}
}
