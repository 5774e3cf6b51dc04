package bpc

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
		t.Fatalf("round trip mismatch\n got %x\nwant %x", dst, block)
	}
	return enc
}

func TestTransformInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var w [words]uint32
		for i := range w {
			w[i] = rng.Uint32()
		}
		base, dbx := transform(w)
		back := inverse(base, dbx)
		if back != w {
			t.Fatalf("transform/inverse mismatch at trial %d", trial)
		}
	}
}

// transformRef is the bit-at-a-time transform the bit-matrix transpose
// replaced, kept as the oracle: sign-extended 33-bit deltas, plane p
// collecting bit p of every delta, adjacent planes XORed.
func transformRef(w [words]uint32) (base uint32, dbx [planes]uint64) {
	base = w[0]
	var d [deltas]int64
	for i := 0; i < deltas; i++ {
		d[i] = int64(int32(w[i+1])) - int64(int32(w[i]))
	}
	var dbp [planes]uint64
	for p := 0; p < planes; p++ {
		var row uint64
		for i := 0; i < deltas; i++ {
			row |= (uint64(d[i]>>uint(p)) & 1) << uint(i)
		}
		dbp[p] = row
	}
	dbx[planes-1] = dbp[planes-1]
	for p := planes - 2; p >= 0; p-- {
		dbx[p] = dbp[p] ^ dbp[p+1]
	}
	return base, dbx
}

// inverseRef is the bit-at-a-time inverse of transformRef.
func inverseRef(base uint32, dbx [planes]uint64) [words]uint32 {
	var dbp [planes]uint64
	dbp[planes-1] = dbx[planes-1]
	for p := planes - 2; p >= 0; p-- {
		dbp[p] = dbx[p] ^ dbp[p+1]
	}
	var w [words]uint32
	w[0] = base
	for i := 0; i < deltas; i++ {
		var v uint64
		for p := 0; p < planes; p++ {
			v |= (dbp[p] >> uint(i) & 1) << uint(p)
		}
		d := int64(v<<31) >> 31 // sign-extend from 33 bits
		w[i+1] = uint32(int64(int32(w[i])) + d)
	}
	return w
}

// oracleWordSets are structured inputs for the transform oracle: the
// degenerate matrices, every single set bit, ±1 steps and the int32
// extremes whose deltas need all 33 bits.
func oracleWordSets() [][words]uint32 {
	var sets [][words]uint32
	fill := func(f func(i int) uint32) {
		var w [words]uint32
		for i := range w {
			w[i] = f(i)
		}
		sets = append(sets, w)
	}
	fill(func(int) uint32 { return 0 })
	fill(func(int) uint32 { return math.MaxUint32 })
	for b := 0; b < 32; b++ {
		fill(func(i int) uint32 { return uint32(i%2) << uint(b) })
		for at := 0; at < words; at += 7 {
			fill(func(i int) uint32 {
				if i == at {
					return 1 << uint(b)
				}
				return 0
			})
		}
	}
	fill(func(i int) uint32 { return uint32(i) })
	fill(func(i int) uint32 { return uint32(-i) })
	fill(func(i int) uint32 { return uint32(i % 2) })
	fill(func(i int) uint32 { return 1000 - uint32(i%3) })
	extremes := []int32{math.MinInt32, math.MaxInt32, 0, -1, 1}
	for _, a := range extremes {
		for _, b := range extremes {
			fill(func(i int) uint32 {
				if i%2 == 0 {
					return uint32(a)
				}
				return uint32(b)
			})
		}
	}
	return sets
}

func TestTransformMatchesBitLoop(t *testing.T) {
	sets := oracleWordSets()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		var w [words]uint32
		for i := range w {
			switch trial % 3 {
			case 0:
				w[i] = rng.Uint32()
			case 1: // small deltas around a random start
				w[i] = uint32(rng.Intn(64)) - 32
				if i > 0 {
					w[i] += w[i-1]
				}
			case 2: // sparse
				if rng.Intn(4) == 0 {
					w[i] = rng.Uint32()
				}
			}
		}
		sets = append(sets, w)
	}
	for n, w := range sets {
		base, dbx := transform(w)
		rbase, rdbx := transformRef(w)
		if base != rbase || dbx != rdbx {
			t.Fatalf("set %d (%x): transform differs from the bit-loop oracle\n got %x\nwant %x", n, w, dbx, rdbx)
		}
		if got, want := inverse(base, dbx), inverseRef(base, dbx); got != want || got != w {
			t.Fatalf("set %d: inverse %x, oracle %x, want %x", n, got, want, w)
		}
	}
}

func TestInverseMatchesBitLoopOnAnyPlanes(t *testing.T) {
	// The decoder feeds inverse whatever planes a payload encodes, not
	// only transform outputs: any 31-bit planes must reconstruct the same
	// words as the oracle.
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 500; trial++ {
		var dbx [planes]uint64
		for p := range dbx {
			dbx[p] = rng.Uint64() & planeMask
		}
		base := rng.Uint32()
		if got, want := inverse(base, dbx), inverseRef(base, dbx); got != want {
			t.Fatalf("trial %d: inverse %x, oracle %x", trial, got, want)
		}
	}
}

func TestZeroBlock(t *testing.T) {
	block := make([]byte, compress.BlockSize)
	enc := roundTrip(t, block)
	// base (32) + one zero-run record covering all 33 planes (2+5).
	if enc.Bits != 32+7 {
		t.Errorf("zero block = %d bits, want 39", enc.Bits)
	}
}

func TestLinearRamp(t *testing.T) {
	// Arithmetic sequences have constant deltas → all DBX planes zero
	// except around the sign/low planes: BPC's sweet spot.
	block := make([]byte, compress.BlockSize)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(block[i*4:], uint32(1000+7*i))
	}
	enc := roundTrip(t, block)
	if enc.Bits > 120 {
		t.Errorf("ramp compressed to %d bits; BPC should crush constant deltas", enc.Bits)
	}
}

func TestSmallIntegers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	block := make([]byte, compress.BlockSize)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(block[i*4:], uint32(rng.Intn(64)))
	}
	enc := roundTrip(t, block)
	if enc.Bits >= compress.BlockBits/2 {
		t.Errorf("small ints = %d bits, want < half block", enc.Bits)
	}
}

func TestFloatData(t *testing.T) {
	block := make([]byte, compress.BlockSize)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(block[i*4:], math.Float32bits(1.5+float32(i)*0.125))
	}
	roundTrip(t, block)
}

func TestRandomFallsBackToRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	block := make([]byte, compress.BlockSize)
	rng.Read(block)
	enc := roundTrip(t, block)
	if enc.Bits != compress.BlockBits {
		t.Errorf("random block = %d bits, want raw fallback", enc.Bits)
	}
}

func TestCompressedBitsMatchesCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var c Codec
	for trial := 0; trial < 200; trial++ {
		block := make([]byte, compress.BlockSize)
		switch trial % 3 {
		case 0:
			for i := 0; i < 32; i++ {
				binary.LittleEndian.PutUint32(block[i*4:], uint32(trial*100+i*3))
			}
		case 1:
			for i := 0; i < 32; i++ {
				binary.LittleEndian.PutUint32(block[i*4:], uint32(rng.Intn(1<<16)))
			}
		case 2:
			rng.Read(block)
		}
		if got, want := c.CompressedBits(block), c.Compress(block).Bits; got != want {
			t.Fatalf("trial %d: CompressedBits=%d Compress=%d", trial, got, want)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	var c Codec
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		block := make([]byte, compress.BlockSize)
		switch rng.Intn(4) {
		case 0: // ramps with noise
			step := uint32(rng.Intn(1000))
			v := rng.Uint32()
			for i := 0; i < 32; i++ {
				binary.LittleEndian.PutUint32(block[i*4:], v)
				v += step + uint32(rng.Intn(3))
			}
		case 1: // sparse
			for i := 0; i < 32; i += 3 {
				binary.LittleEndian.PutUint32(block[i*4:], rng.Uint32())
			}
		case 2: // floats
			for i := 0; i < 32; i++ {
				binary.LittleEndian.PutUint32(block[i*4:], math.Float32bits(rng.Float32()*100))
			}
		case 3:
			rng.Read(block)
		}
		enc := c.Compress(block)
		dst := make([]byte, compress.BlockSize)
		if err := c.Decompress(enc, dst); err != nil {
			return false
		}
		return bytes.Equal(dst, block)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestDecompressTruncated(t *testing.T) {
	var c Codec
	block := make([]byte, compress.BlockSize)
	for i := 0; i < 32; i++ {
		binary.LittleEndian.PutUint32(block[i*4:], uint32(i*17))
	}
	enc := c.Compress(block)
	enc.Payload = enc.Payload[:3]
	dst := make([]byte, compress.BlockSize)
	if err := c.Decompress(enc, dst); err == nil {
		t.Error("expected error for truncated payload")
	}
}
