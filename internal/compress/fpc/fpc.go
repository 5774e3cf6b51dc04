// Package fpc implements Frequent Pattern Compression (Alameldeen & Wood,
// UW-Madison TR 2004), a significance-based scheme that encodes each 32-bit
// word with a 3-bit prefix naming one of eight patterns. It is one of the
// four lossless baselines of the SLC paper's Figure 1.
package fpc

import (
	"fmt"

	"repro/internal/compress"
)

// pattern prefixes, 3 bits each.
const (
	pZeroRun   = 0 // run of 1..8 all-zero words; 3-bit run length follows
	pSE4       = 1 // 4-bit sign-extended
	pSE8       = 2 // 8-bit sign-extended
	pSE16      = 3 // 16-bit sign-extended
	pHalfPad   = 4 // halfword padded with a zero halfword (low 16 bits zero)
	pTwoHalfSE = 5 // two halfwords, each a sign-extended byte
	pRepBytes  = 6 // word of four repeated bytes
	pUncomp    = 7 // uncompressed 32-bit word
)

const prefixBits = 3

// payloadWidth is the payload size in bits after each word pattern's prefix
// (the zero-run length field is read separately).
var payloadWidth = [8]int{
	pSE4:       4,
	pSE8:       8,
	pSE16:      16,
	pHalfPad:   16,
	pTwoHalfSE: 16,
	pRepBytes:  8,
	pUncomp:    32,
}

// Codec is the FPC compressor/decompressor. The zero value is ready to use.
type Codec struct{}

// Name implements compress.Codec.
func (Codec) Name() string { return "FPC" }

// classify returns the pattern for one word (ignoring zero runs, which the
// caller detects) and the payload width in bits.
func classify(w uint32) (pat int, payloadBits int, payload uint32) {
	s := int32(w)
	switch {
	case s >= -8 && s < 8:
		return pSE4, 4, w & 0xF
	case s >= -128 && s < 128:
		return pSE8, 8, w & 0xFF
	case s >= -32768 && s < 32768:
		return pSE16, 16, w & 0xFFFF
	case w&0xFFFF == 0:
		return pHalfPad, 16, w >> 16
	}
	lo, hi := int32(int16(w&0xFFFF)), int32(int16(w>>16))
	if lo >= -128 && lo < 128 && hi >= -128 && hi < 128 {
		return pTwoHalfSE, 16, (uint32(uint8(hi)) << 8) | uint32(uint8(lo))
	}
	b := w & 0xFF
	if w == b|b<<8|b<<16|b<<24 {
		return pRepBytes, 8, b
	}
	return pUncomp, 32, w
}

// CompressedBits implements compress.SizeOnly.
func (Codec) CompressedBits(block []byte) int {
	words := compress.Words(block)
	bits := 0
	for i := 0; i < len(words); {
		if words[i] == 0 {
			run := 1
			for i+run < len(words) && words[i+run] == 0 && run < 8 {
				run++
			}
			bits += prefixBits + 3
			i += run
			continue
		}
		_, pb, _ := classify(words[i])
		bits += prefixBits + pb
		i++
	}
	if bits > compress.BlockBits {
		bits = compress.BlockBits
	}
	return bits
}

// Compress implements compress.Codec.
func (c Codec) Compress(block []byte) compress.Encoded {
	if err := compress.CheckBlock(block); err != nil {
		panic(err)
	}
	words := compress.Words(block)
	w := compress.NewBitWriter(compress.BlockBits)
	for i := 0; i < len(words); {
		if words[i] == 0 {
			run := 1
			for i+run < len(words) && words[i+run] == 0 && run < 8 {
				run++
			}
			w.WriteBits(pZeroRun, prefixBits)
			w.WriteBits(uint64(run-1), 3)
			i += run
			continue
		}
		pat, pb, payload := classify(words[i])
		w.WriteBits(uint64(pat), prefixBits)
		w.WriteBits(uint64(payload), pb)
		i++
	}
	bits := w.Len()
	if bits >= compress.BlockBits {
		// Store uncompressed; the simulator treats a full-size block as raw.
		// The boundary must be inclusive: Decompress reads any
		// BlockBits-sized encoding as a raw payload, so an exactly
		// 1024-bit compressed stream cannot be stored as such.
		p := make([]byte, compress.BlockSize)
		copy(p, block)
		return compress.Encoded{Bits: compress.BlockBits, Payload: p}
	}
	return compress.Encoded{Bits: bits, Payload: w.Bytes()}
}

// Decompress implements compress.Codec.
func (c Codec) Decompress(e compress.Encoded, dst []byte) error {
	if len(dst) < compress.BlockSize {
		return fmt.Errorf("fpc: dst too small (%d bytes)", len(dst))
	}
	if e.Bits >= compress.BlockBits {
		if len(e.Payload) < compress.BlockSize {
			return fmt.Errorf("fpc: raw payload too short")
		}
		copy(dst, e.Payload[:compress.BlockSize])
		return nil
	}
	r := compress.NewBitReader(e.Payload)
	var words [compress.WordsPerBlock]uint32
	for i := 0; i < len(words); {
		pat, err := r.ReadBits(prefixBits)
		if err != nil {
			return fmt.Errorf("fpc: prefix at word %d: %w", i, err)
		}
		switch pat {
		case pZeroRun:
			run, err := r.ReadBits(3)
			if err != nil {
				return fmt.Errorf("fpc: run length: %w", err)
			}
			n := int(run) + 1
			if i+n > len(words) {
				return fmt.Errorf("fpc: zero run overflows block")
			}
			i += n
		case pSE4, pSE8, pSE16, pHalfPad, pTwoHalfSE, pRepBytes, pUncomp:
			v, err := r.ReadBits(payloadWidth[pat])
			if err != nil {
				return fmt.Errorf("fpc: payload at word %d: %w", i, err)
			}
			words[i] = expand(int(pat), uint32(v))
			i++
		default:
			return fmt.Errorf("fpc: unknown prefix %d", pat)
		}
	}
	compress.PutWords(dst, words)
	return nil
}

// expand reverses classify for one payload.
func expand(pat int, v uint32) uint32 {
	switch pat {
	case pSE4:
		return uint32(int32(v<<28) >> 28)
	case pSE8:
		return uint32(int32(v<<24) >> 24)
	case pSE16:
		return uint32(int32(v<<16) >> 16)
	case pHalfPad:
		return v << 16
	case pTwoHalfSE:
		lo := uint32(int32(int8(v&0xFF))) & 0xFFFF
		hi := uint32(int32(int8(v>>8))) & 0xFFFF
		return hi<<16 | lo
	case pRepBytes:
		return v | v<<8 | v<<16 | v<<24
	case pUncomp:
		return v
	}
	panic("fpc: bad pattern")
}
