package bdi

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/compress"
)

func roundTrip(t *testing.T, block []byte) compress.Encoded {
	t.Helper()
	var c Codec
	enc := c.Compress(block)
	dst := make([]byte, compress.BlockSize)
	if err := c.Decompress(enc, dst); err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !bytes.Equal(dst, block) {
		t.Fatalf("round trip mismatch (encoding %s)", EncodingName(block))
	}
	return enc
}

func TestZeroBlock(t *testing.T) {
	block := make([]byte, compress.BlockSize)
	enc := roundTrip(t, block)
	if enc.Bits != 4 {
		t.Errorf("zero block bits = %d, want 4", enc.Bits)
	}
	if EncodingName(block) != "zeros" {
		t.Errorf("encoding = %s", EncodingName(block))
	}
}

func TestRepeatedBlock(t *testing.T) {
	block := make([]byte, compress.BlockSize)
	for i := 0; i < compress.BlockSize; i += 8 {
		binary.LittleEndian.PutUint64(block[i:], 0xCAFEBABE12345678)
	}
	enc := roundTrip(t, block)
	if enc.Bits != 68 {
		t.Errorf("repeated block bits = %d, want 68", enc.Bits)
	}
}

func TestBase8Delta1(t *testing.T) {
	// Pointer-like data: a large 64-bit base plus small offsets.
	block := make([]byte, compress.BlockSize)
	base := uint64(0x7FFF_0000_1000_0000)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint64(block[i*8:], base+uint64(i*3))
	}
	enc := roundTrip(t, block)
	// selector(4) + base(64) + mask(16) + 16 deltas × 8 = 212 bits
	if enc.Bits != 212 {
		t.Errorf("bits = %d, want 212", enc.Bits)
	}
	if EncodingName(block) != "base8-delta1" {
		t.Errorf("encoding = %s", EncodingName(block))
	}
}

func TestBase4Delta1WithImmediates(t *testing.T) {
	// 32-bit values clustered around a base, with small immediates mixed in
	// that only the zero base covers.
	block := make([]byte, compress.BlockSize)
	base := uint32(0x10203040)
	for i := 0; i < 32; i++ {
		v := base + uint32(i)
		if i%4 == 0 {
			v = uint32(i) // immediate
		}
		binary.LittleEndian.PutUint32(block[i*4:], v)
	}
	enc := roundTrip(t, block)
	// selector(4) + base(32) + mask(32) + 32 deltas × 8 = 324 bits
	if enc.Bits != 324 {
		t.Errorf("bits = %d, want 324", enc.Bits)
	}
}

func TestNegativeDeltas(t *testing.T) {
	block := make([]byte, compress.BlockSize)
	base := uint32(0x40000000)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(block[i*4:], base-uint32(i*2)) // below base
	}
	roundTrip(t, block)
}

func TestWrapAroundDelta(t *testing.T) {
	// Differences that wrap modulo 2^32 must still round trip.
	block := make([]byte, compress.BlockSize)
	vals := []uint32{0xFFFFFFFE, 0xFFFFFFFF, 0, 1, 2}
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(block[i*4:], vals[i%len(vals)])
	}
	roundTrip(t, block)
}

func TestIncompressibleBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	block := make([]byte, compress.BlockSize)
	rng.Read(block)
	enc := roundTrip(t, block)
	if enc.Bits != compress.BlockBits {
		t.Errorf("random block compressed to %d bits; expected uncompressed", enc.Bits)
	}
}

func TestCompressedBitsMatchesCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var c Codec
	for trial := 0; trial < 200; trial++ {
		block := structuredBlock(rng)
		if got, want := c.CompressedBits(block), c.Compress(block).Bits; got != want {
			t.Fatalf("CompressedBits = %d, Compress.Bits = %d", got, want)
		}
	}
}

// tieBlock fits both 596-bit geometries, base8-delta4 and base2-delta1, and
// no smaller encoding: its 64-bit elements differ by up to 0x3FFF<<16, and
// its 16-bit halves are either small or the repeated 0x4000.
func tieBlock() []byte {
	block := make([]byte, compress.BlockSize)
	high := []uint64{1, 0, 0x4000}
	for i := 0; i < 16; i++ {
		v := 0x40004000_00000000 | high[i%len(high)]<<16 | uint64(i*5)
		binary.LittleEndian.PutUint64(block[i*8:], v)
	}
	return block
}

func TestCompressDeterministicOnTies(t *testing.T) {
	block := tieBlock()
	if got := EncodingName(block); got != "base8-delta4" {
		t.Fatalf("tie block encoding = %s, want base8-delta4 (lowest encoding wins a tie)", got)
	}
	var c Codec
	first := roundTrip(t, block)
	if first.Bits != 596 {
		t.Fatalf("tie block bits = %d, want 596", first.Bits)
	}
	for i := 0; i < 200; i++ {
		if enc := c.Compress(block); !bytes.Equal(enc.Payload, first.Payload) {
			t.Fatalf("call %d: payload differs from the first call", i)
		}
	}
}

// structuredBlock produces blocks with varied compressibility profiles.
func structuredBlock(rng *rand.Rand) []byte {
	block := make([]byte, compress.BlockSize)
	switch rng.Intn(6) {
	case 0: // zeros
	case 1: // small ints
		for i := 0; i < 32; i++ {
			binary.LittleEndian.PutUint32(block[i*4:], uint32(rng.Intn(256)))
		}
	case 2: // clustered floats
		base := rng.Float32() * 100
		for i := 0; i < 32; i++ {
			binary.LittleEndian.PutUint32(block[i*4:], math.Float32bits(base+rng.Float32()))
		}
	case 3: // pointers
		base := uint64(rng.Int63())
		for i := 0; i < 16; i++ {
			binary.LittleEndian.PutUint64(block[i*8:], base+uint64(rng.Intn(128)))
		}
	case 4: // random
		rng.Read(block)
	case 5: // repeated
		v := uint64(rng.Int63())
		for i := 0; i < 16; i++ {
			binary.LittleEndian.PutUint64(block[i*8:], v)
		}
	}
	return block
}

func TestQuickRoundTrip(t *testing.T) {
	var c Codec
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		block := structuredBlock(rng)
		enc := c.Compress(block)
		if enc.Bits < 4 || enc.Bits > compress.BlockBits {
			return false
		}
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

func TestDecompressCorruptHeader(t *testing.T) {
	var c Codec
	bad := compress.Encoded{Bits: 4, Payload: []byte{0xF0}} // encoding 15 is undefined
	dst := make([]byte, compress.BlockSize)
	if err := c.Decompress(bad, dst); err == nil {
		t.Error("expected error for unknown encoding")
	}
}

func TestDecompressTruncatedPayload(t *testing.T) {
	var c Codec
	block := make([]byte, compress.BlockSize)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint64(block[i*8:], 0x1000+uint64(i))
	}
	enc := c.Compress(block)
	enc.Payload = enc.Payload[:len(enc.Payload)/2]
	dst := make([]byte, compress.BlockSize)
	if err := c.Decompress(enc, dst); err == nil {
		t.Error("expected error for truncated payload")
	}
}
