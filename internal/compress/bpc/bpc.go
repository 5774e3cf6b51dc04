// Package bpc implements Bit-Plane Compression (Kim et al., ISCA 2016). The
// SLC paper argues qualitatively (§II-A) that BPC suffers from memory access
// granularity like the four measured baselines, because its run-length and
// frequent-pattern encodings exploit the same redundancy as FPC and C-PACK;
// this implementation makes that claim quantitative (see the Figure 1
// extension in the report).
//
// BPC transforms a block before encoding: the 32 words are delta-encoded
// against their predecessor (DBP), the 31 deltas are transposed into 33
// bit-planes (each plane holds one bit position across all deltas), and
// adjacent planes are XORed (DBX). The transformed planes are then
// run-length / pattern encoded. The transform turns value locality into long
// zero runs, which the plane encoder captures.
package bpc

import (
	"fmt"
	"math/bits"

	"repro/internal/compress"
)

// Codec is the BPC compressor/decompressor. The zero value is ready to use.
type Codec struct{}

// Name implements compress.Codec.
func (Codec) Name() string { return "BPC" }

const (
	words  = compress.WordsPerBlock // 32
	deltas = words - 1              // 31 deltas
	planes = 33                     // 32 delta bits + sign plane
)

// transpose32 transposes a 32×32 bit matrix in place: bit j of row i
// moves to bit i of row j. It is the block-swap transpose of Hacker's
// Delight §7-3: five rounds, each swapping the off-diagonal j×j sub-blocks
// of every 2j×2j block with one shift-xor-mask per pair of rows.
//
//slclint:allocfree
func transpose32(a *[32]uint32) {
	m := uint32(0x0000FFFF)
	for j := 16; j != 0; j, m = j>>1, m^m<<(j>>1) {
		for k := 0; k < 32; k = (k + j + 1) &^ j {
			t := (a[k]>>j ^ a[k+j]) & m
			a[k+j] ^= t
			a[k] ^= t << j
		}
	}
}

// transform produces the base word and the DBX planes. The deltas are
// 33-bit signed values; their low 32 bits are the wrapped word differences,
// transposed as a bit matrix into planes 0..31, and the sign plane (plane
// 32) collects bit 32, set exactly when the delta is negative.
//
//slclint:allocfree
func transform(w [words]uint32) (base uint32, dbx [planes]uint64) {
	base = w[0]
	var dbp [32]uint32 // row i: delta i, then plane i after the transpose
	var sign uint64
	for i := 0; i < deltas; i++ {
		dbp[i] = w[i+1] - w[i]
		if int32(w[i+1]) < int32(w[i]) {
			sign |= 1 << uint(i)
		}
	}
	transpose32(&dbp)
	// DBX: XOR adjacent planes (the sign plane kept as-is as the reference).
	dbx[planes-1] = sign
	prev := sign
	for p := planes - 2; p >= 0; p-- {
		dbx[p] = uint64(dbp[p]) ^ prev
		prev = uint64(dbp[p])
	}
	return base, dbx
}

// inverse reverses transform. Only the low 32 delta bits matter: adding
// them modulo 2^32 restores each word, so the sign plane is not read.
func inverse(base uint32, dbx [planes]uint64) [words]uint32 {
	var d [32]uint32 // row p: plane p, then delta p after the transpose
	dbp := dbx[planes-1]
	for p := planes - 2; p >= 0; p-- {
		dbp ^= dbx[p]
		d[p] = uint32(dbp)
	}
	transpose32(&d)
	var w [words]uint32
	w[0] = base
	for i := 0; i < deltas; i++ {
		w[i+1] = w[i] + d[i]
	}
	return w
}

// Plane codes, after the BPC paper's Table: a zero plane is 1 bit; runs of
// zero planes use a 5-bit length; all-ones planes and planes with one or two
// set bits have short codes; anything else is raw.
const (
	// code prefixes (written MSB first)
	cZeroRun = 0b01 // 2 + 5 bits: run of 2..33 zero planes
	cZero    = 0b1  // 1 bit: single zero plane
	cAllOnes = 0b00000
	cOneBit  = 0b00001 // 5 + 5 bits: exactly one bit set (index)
	cTwoBits = 0b00010 // 5 + 10 bits: consecutive two bits set? kept simple: two indices
	cRaw     = 0b00011 // 5 + 31 bits raw plane
)

// planeMask covers the 31 delta bits of a plane.
const planeMask = uint64(1)<<deltas - 1

// record kinds: the plane code chosen for the planes at one position.
const (
	kZeroRun = iota
	kZero
	kAllOnes
	kOneBit
	kTwoBits
	kRaw
)

// recordBits is the encoded size of each record kind.
var recordBits = [...]int{
	kZeroRun: 2 + 5,
	kZero:    1,
	kAllOnes: 5,
	kOneBit:  5 + 5,
	kTwoBits: 5 + 10,
	kRaw:     5 + deltas,
}

// planeRecord classifies the record that encodes dbx[i:] and returns its
// kind and how many planes it consumes. encodePlanes and encodedBits both
// classify through it, so the written stream and the computed size agree.
//
//slclint:allocfree
func planeRecord(dbx *[planes]uint64, i int) (kind, n int) {
	p := dbx[i]
	if p == 0 {
		run := 1
		for i+run < planes && dbx[i+run] == 0 && run < 33 {
			run++
		}
		if run >= 2 {
			return kZeroRun, run
		}
		return kZero, 1
	}
	switch {
	case p == planeMask:
		return kAllOnes, 1
	case bits.OnesCount64(p) == 1:
		return kOneBit, 1
	case bits.OnesCount64(p) == 2:
		return kTwoBits, 1
	}
	return kRaw, 1
}

// encodePlanes writes the record for dbx[i:] and returns how many planes it
// consumed.
func encodePlanes(w *compress.BitWriter, dbx *[planes]uint64, i int) int {
	p := dbx[i]
	kind, n := planeRecord(dbx, i)
	switch kind {
	case kZeroRun:
		w.WriteBits(cZeroRun, 2)
		w.WriteBits(uint64(n-2), 5)
	case kZero:
		w.WriteBits(cZero, 1)
	case kAllOnes:
		w.WriteBits(cAllOnes, 5)
	case kOneBit:
		w.WriteBits(cOneBit, 5)
		w.WriteBits(uint64(bits.TrailingZeros64(p)), 5)
	case kTwoBits:
		w.WriteBits(cTwoBits, 5)
		w.WriteBits(uint64(bits.TrailingZeros64(p)), 5)
		w.WriteBits(uint64(bits.TrailingZeros64(p&(p-1))), 5)
	default:
		w.WriteBits(cRaw, 5)
		w.WriteBits(p, deltas)
	}
	return n
}

// encodedBits is the size of the stream Compress writes for a transformed
// block — base word plus plane records — before the raw fallback.
//
//slclint:allocfree
func encodedBits(dbx *[planes]uint64) int {
	n := 32
	for i := 0; i < planes; {
		kind, k := planeRecord(dbx, i)
		n += recordBits[kind]
		i += k
	}
	return n
}

// CompressedBits implements compress.SizeOnly; it sizes the block without
// encoding it.
//
//slclint:allocfree
func (Codec) CompressedBits(block []byte) int {
	_, dbx := transform(compress.Words(block))
	return min(encodedBits(&dbx), compress.BlockBits)
}

// Compress implements compress.Codec.
func (c Codec) Compress(block []byte) compress.Encoded {
	if err := compress.CheckBlock(block); err != nil {
		panic(err)
	}
	base, dbx := transform(compress.Words(block))
	size := encodedBits(&dbx)
	if size >= compress.BlockBits {
		p := make([]byte, compress.BlockSize)
		copy(p, block)
		return compress.Encoded{Bits: compress.BlockBits, Payload: p}
	}
	w := compress.NewBitWriter(size)
	w.WriteBits(uint64(base), 32)
	for i := 0; i < planes; {
		i += encodePlanes(w, &dbx, i)
	}
	if w.Len() != size {
		panic(fmt.Sprintf("bpc: emitted %d bits, expected %d", w.Len(), size))
	}
	return compress.Encoded{Bits: size, Payload: w.Bytes()}
}

// Decompress implements compress.Codec.
func (c Codec) Decompress(e compress.Encoded, dst []byte) error {
	if len(dst) < compress.BlockSize {
		return fmt.Errorf("bpc: dst too small (%d bytes)", len(dst))
	}
	if e.Bits >= compress.BlockBits {
		if len(e.Payload) < compress.BlockSize {
			return fmt.Errorf("bpc: raw payload too short")
		}
		copy(dst, e.Payload[:compress.BlockSize])
		return nil
	}
	r := compress.NewBitReader(e.Payload)
	baseV, err := r.ReadBits(32)
	if err != nil {
		return fmt.Errorf("bpc: base: %w", err)
	}
	var dbx [planes]uint64
	for i := 0; i < planes; {
		n, err := decodePlane(r, dbx[:], i)
		if err != nil {
			return fmt.Errorf("bpc: plane %d: %w", i, err)
		}
		i += n
	}
	words := inverse(uint32(baseV), dbx)
	compress.PutWords(dst, words)
	return nil
}

// decodePlane reads one plane record into dbx[i:]; returns planes consumed.
func decodePlane(r *compress.BitReader, dbx []uint64, i int) (int, error) {
	b, err := r.ReadBits(1)
	if err != nil {
		return 0, err
	}
	if b == 1 { // single zero plane
		dbx[i] = 0
		return 1, nil
	}
	b2, err := r.ReadBits(1)
	if err != nil {
		return 0, err
	}
	if b2 == 1 { // 01: zero run
		run, err := r.ReadBits(5)
		if err != nil {
			return 0, err
		}
		n := int(run) + 2
		if i+n > len(dbx) {
			return 0, fmt.Errorf("zero run of %d overflows planes", n)
		}
		for k := 0; k < n; k++ {
			dbx[i+k] = 0
		}
		return n, nil
	}
	// 00xxx: 5-bit code; two bits consumed, read three more.
	rest, err := r.ReadBits(3)
	if err != nil {
		return 0, err
	}
	switch code := rest; code {
	case cAllOnes & 0b111:
		dbx[i] = planeMask
	case cOneBit & 0b111:
		idx, err := r.ReadBits(5)
		if err != nil {
			return 0, err
		}
		if idx >= deltas {
			return 0, fmt.Errorf("bit index %d out of range", idx)
		}
		dbx[i] = 1 << idx
	case cTwoBits & 0b111:
		a, err := r.ReadBits(5)
		if err != nil {
			return 0, err
		}
		b, err := r.ReadBits(5)
		if err != nil {
			return 0, err
		}
		if a >= deltas || b >= deltas || a == b {
			return 0, fmt.Errorf("bit indices %d,%d invalid", a, b)
		}
		dbx[i] = 1<<a | 1<<b
	case cRaw & 0b111:
		v, err := r.ReadBits(deltas)
		if err != nil {
			return 0, err
		}
		dbx[i] = v
	default:
		return 0, fmt.Errorf("unknown plane code %03b", code)
	}
	return 1, nil
}
