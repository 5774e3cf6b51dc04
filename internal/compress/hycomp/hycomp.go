// Package hycomp implements a HyComp-style hybrid compressor (Arelakis et
// al., MICRO 2015): it predicts each block's dominant data type from cheap
// bit-pattern heuristics and dispatches to the method that suits it —
// entropy coding for floating-point data (standing in for FP-H/SC², both
// Huffman-based like E2MC), base-delta for pointer-like data, and
// significance-based FPC for integers. The SLC paper argues (§II-A) that
// HyComp inherits the MAG problem from its constituent methods; this
// implementation lets the Figure 1 extension measure that.
package hycomp

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/compress"
	"repro/internal/compress/bdi"
	"repro/internal/compress/e2mc"
	"repro/internal/compress/fpc"
)

// method tags stored in the 2-bit block header.
const (
	tagEntropy = 0 // floats → Huffman (FP-H/SC² stand-in)
	tagBDI     = 1 // pointers → base-delta
	tagFPC     = 2 // integers → significance-based
	tagRaw     = 3
)

const headerBits = 2

// Codec is the hybrid compressor. It needs the trained entropy table for
// its floating-point path.
type Codec struct {
	ent *e2mc.Codec
	bdi bdi.Codec
	fpc fpc.Codec
}

// New returns a hybrid codec around a trained table.
func New(tab *e2mc.Table) *Codec {
	return &Codec{ent: e2mc.New(tab)}
}

// Name implements compress.Codec.
func (c *Codec) Name() string { return "HYCOMP" }

// classify predicts the block's dominant type with HyComp-style heuristics:
// pointers share their top bytes as 64-bit elements, floats from one array
// share sign+exponent bytes, everything else is treated as integer data.
//
//slclint:allocfree
func classify(block []byte) int {
	// Pointer heuristic: 64-bit elements whose top 4 bytes cluster on at
	// most two values, not all zero. Counting stops at the third distinct
	// value.
	var top [3]uint32
	distinct := 0
	allZeroTop := true
	for i := 0; i < compress.BlockSize && distinct <= 2; i += 8 {
		t := uint32(binary.LittleEndian.Uint64(block[i:]) >> 32)
		if t != 0 {
			allZeroTop = false
		}
		seen := false
		for _, u := range top[:distinct] {
			seen = seen || u == t
		}
		if !seen {
			top[distinct] = t
			distinct++
		}
	}
	if distinct <= 2 && !allZeroTop {
		return tagBDI
	}
	// Float heuristic: few distinct sign+exponent bytes (the top byte of
	// each little-endian 32-bit word), kept as a 256-bit set.
	var hi [4]uint64
	for i := 3; i < compress.BlockSize; i += 4 {
		b := block[i]
		hi[b>>6] |= 1 << (b & 63)
	}
	n := bits.OnesCount64(hi[0]) + bits.OnesCount64(hi[1]) + bits.OnesCount64(hi[2]) + bits.OnesCount64(hi[3])
	if n <= 6 {
		return tagEntropy
	}
	return tagFPC
}

// taggedBits is the stored size of a block whose chosen method encodes it
// in inner bits. The stored header is byte-aligned (8 bits) so the inner
// payload stays byte-aligned for re-decoding; when the tagged encoding
// would not beat the uncompressed block, the block is stored raw.
//
//slclint:allocfree
func taggedBits(inner int) int {
	if inner+8 >= compress.BlockBits {
		return compress.BlockBits
	}
	return inner + 8
}

// CompressedBits implements compress.SizeOnly: it classifies the block and
// asks the chosen method for its size, encoding nothing.
//
//slclint:allocfree
func (c *Codec) CompressedBits(block []byte) int {
	var inner int
	switch classify(block) {
	case tagBDI:
		inner = c.bdi.CompressedBits(block)
	case tagFPC:
		inner = c.fpc.CompressedBits(block)
	default:
		inner = c.ent.CompressedBits(block)
	}
	return taggedBits(inner)
}

// Compress implements compress.Codec: classify, dispatch, tag.
func (c *Codec) Compress(block []byte) compress.Encoded {
	if err := compress.CheckBlock(block); err != nil {
		panic(err)
	}
	tag := classify(block)
	var inner compress.Encoded
	switch tag {
	case tagBDI:
		inner = c.bdi.Compress(block)
	case tagFPC:
		inner = c.fpc.Compress(block)
	default:
		inner = c.ent.Compress(block)
	}
	bits := taggedBits(inner.Bits)
	if bits == compress.BlockBits {
		p := make([]byte, compress.BlockSize)
		copy(p, block)
		return compress.Encoded{Bits: compress.BlockBits, Payload: p}
	}
	// One header byte: the tag in its top bits, padded so the inner payload
	// stays byte-aligned for re-decoding.
	buf := make([]byte, 1+len(inner.Payload))
	buf[0] = byte(tag) << (8 - headerBits)
	copy(buf[1:], inner.Payload)
	return compress.Encoded{Bits: bits, Payload: buf}
}

// Decompress implements compress.Codec.
func (c *Codec) Decompress(e compress.Encoded, dst []byte) error {
	if len(dst) < compress.BlockSize {
		return fmt.Errorf("hycomp: dst too small (%d bytes)", len(dst))
	}
	if e.Bits >= compress.BlockBits {
		if len(e.Payload) < compress.BlockSize {
			return fmt.Errorf("hycomp: raw payload too short")
		}
		copy(dst, e.Payload[:compress.BlockSize])
		return nil
	}
	if len(e.Payload) < 1 {
		return fmt.Errorf("hycomp: missing header")
	}
	tag := int(e.Payload[0] >> 6)
	inner := compress.Encoded{Bits: e.Bits - 8, Payload: e.Payload[1:]}
	switch tag {
	case tagBDI:
		return c.bdi.Decompress(inner, dst)
	case tagFPC:
		return c.fpc.Decompress(inner, dst)
	case tagEntropy:
		return c.ent.Decompress(inner, dst)
	}
	return fmt.Errorf("hycomp: unknown method tag %d", tag)
}
