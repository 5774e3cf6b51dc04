package e2mc

import (
	"fmt"

	"repro/internal/compress"
)

// Latency of the E2MC pipeline in memory-controller cycles (paper §IV-A):
// 46 cycles to compress and 20 to decompress one block.
const (
	CompressCycles   = 46
	DecompressCycles = 20
)

// PDWs is the number of parallel decoding ways. The block's 64 symbols are
// split into 4 independently decodable groups of 16 so the decompressor can
// decode 4 symbols per cycle; the paper uses 4 PDWs as E2MC's best
// configuration.
const PDWs = 4

// SymbolsPerWay is the number of symbols each way encodes.
const SymbolsPerWay = compress.SymbolsPerBlock / PDWs

// HeaderBits is the E2MC per-block header: 3 parallel decoding pointers of 7
// bits (2^7 = 128-byte block), padded to a whole byte so ways stay
// byte-aligned. Uncompressed blocks carry no header.
const HeaderBits = 24

const pdpBits = 7

// Codec is the E2MC compressor/decompressor around a trained Table.
type Codec struct {
	tab *Table
}

// New returns a codec using the given trained table.
func New(tab *Table) *Codec { return &Codec{tab: tab} }

// Table returns the codec's entropy table (SLC shares it).
func (c *Codec) Table() *Table { return c.tab }

// Name implements compress.Codec.
func (c *Codec) Name() string { return "E2MC" }

// waySpan returns the symbol index range [lo, hi) of one way.
func waySpan(way int) (int, int) {
	return way * SymbolsPerWay, (way + 1) * SymbolsPerWay
}

// WayBits returns each way's encoded size in bits before byte padding,
// omitting symbols in [skipStart, skipStart+skipLen) — the span SLC
// truncates (skipLen 0 counts everything). It sums the same per-symbol
// lengths the TSLC adder tree does, so a block can be sized before any bit
// is written.
//
//slclint:allocfree
func (t *Table) WayBits(syms *[compress.SymbolsPerBlock]uint16, skipStart, skipLen int) (wayBits [PDWs]int) {
	for i, s := range syms {
		if i >= skipStart && i < skipStart+skipLen {
			continue
		}
		wayBits[i/SymbolsPerWay] += t.SymbolBits(s)
	}
	return wayBits
}

// WritePointers writes the 7-bit parallel decoding pointers of ways 1..3 —
// their absolute byte offsets in a block whose header is headerBytes long
// and whose ways have the given unpadded sizes. The caller byte-aligns the
// header afterwards.
func WritePointers(w *compress.BitWriter, headerBytes int, wayBits [PDWs]int) {
	start := headerBytes
	for wy := 1; wy < PDWs; wy++ {
		start += (wayBits[wy-1] + 7) / 8
		w.WriteBits(uint64(start), pdpBits)
	}
}

// encodeWay appends one way's symbols to w, skipping the truncation span.
func (t *Table) encodeWay(w *compress.BitWriter, syms *[compress.SymbolsPerBlock]uint16, wy, skipStart, skipLen int) {
	lo, hi := waySpan(wy)
	for i := lo; i < hi; i++ {
		if i >= skipStart && i < skipStart+skipLen {
			continue
		}
		t.encodeSymbol(w, syms[i])
	}
}

// WriteWays entropy-codes the block's symbols into w as PDWs consecutive
// ways, each padded to a byte boundary, omitting the skip span. Starting
// from a byte-aligned w, way wy then begins at the byte offset WritePointers
// recorded for it.
func (t *Table) WriteWays(w *compress.BitWriter, syms *[compress.SymbolsPerBlock]uint16, skipStart, skipLen int) {
	for wy := 0; wy < PDWs; wy++ {
		t.encodeWay(w, syms, wy, skipStart, skipLen)
		w.AlignByte()
	}
}

// EncodeWays entropy-codes the block's symbols into PDWs separate
// byte-aligned bitstreams, omitting the skip span, and returns them with
// their sizes in bits before byte padding.
func (t *Table) EncodeWays(syms [compress.SymbolsPerBlock]uint16, skipStart, skipLen int) (ways [PDWs][]byte, wayBits [PDWs]int) {
	for wy := 0; wy < PDWs; wy++ {
		w := compress.NewBitWriter(SymbolsPerWay * t.MaxSymbolBits())
		t.encodeWay(w, &syms, wy, skipStart, skipLen)
		wayBits[wy] = w.Len()
		w.AlignByte()
		ways[wy] = w.Bytes()
	}
	return ways, wayBits
}

// decodeSpan LUT-decodes the symbols with absolute index [lo, hi) from r
// (already positioned at the first of them), skipping the SLC truncation
// span. The hot loop peeks a maxLen-bit window, looks the codeword up, and
// skips its length — no interface dispatch and no per-symbol error check:
// reads past the end of the stream yield zero bits, and the single Overrun
// check afterwards errors exactly when the bit-by-bit reference decoder
// would (a symbol that consumed a fabricated bit pushes the position past
// the end, and the position never moves back).
//
//slclint:allocfree
func (t *Table) decodeSpan(r *compress.BitReader, lo, hi, skipStart, skipLen int, syms *[compress.SymbolsPerBlock]uint16) error {
	maxLen := t.maxLen
	lut := t.lut
	for i := lo; i < hi; i++ {
		if i >= skipStart && i < skipStart+skipLen {
			continue
		}
		e := lut[r.PeekBits(maxLen)]
		n := int(e & lutLenMask)
		if n == 0 {
			return fmt.Errorf("e2mc: symbol %d: invalid codeword", i) //slclint:allow allocfree cold error path, never hit by the alloc pin
		}
		r.SkipBits(n)
		if e&lutEscape != 0 {
			syms[i] = uint16(r.PeekBits(escapeRawBits))
			r.SkipBits(escapeRawBits)
		} else {
			syms[i] = uint16(e >> lutSymbol)
		}
	}
	if r.Overrun() {
		return fmt.Errorf("e2mc: symbols [%d, %d): bitstream exhausted", lo, hi) //slclint:allow allocfree cold error path, never hit by the alloc pin
	}
	return nil
}

// DecodeWays reverses EncodeWays through the LUT fast path (falling back to
// the reference decoder for tables too long-coded for a LUT). wayStart holds
// the absolute byte offset of each way within payload; symbols inside the
// skip span are left as zero for the caller (SLC) to fill by prediction.
//
//slclint:allocfree
func (t *Table) DecodeWays(payload []byte, wayStart [PDWs]int, skipStart, skipLen int) ([compress.SymbolsPerBlock]uint16, error) {
	if t.lut == nil {
		return t.DecodeWaysRef(payload, wayStart, skipStart, skipLen)
	}
	var syms [compress.SymbolsPerBlock]uint16
	var r compress.BitReader
	for wy := 0; wy < PDWs; wy++ {
		if wayStart[wy] < 0 || wayStart[wy] > len(payload) {
			return syms, fmt.Errorf("e2mc: way %d starts at byte %d outside payload (%d bytes)", wy, wayStart[wy], len(payload)) //slclint:allow allocfree cold error path, never hit by the alloc pin
		}
		r.Reset(payload[wayStart[wy]:])
		lo, hi := waySpan(wy)
		if err := t.decodeSpan(&r, lo, hi, skipStart, skipLen, &syms); err != nil {
			return syms, fmt.Errorf("e2mc: way %d: %w", wy, err) //slclint:allow allocfree cold error path, never hit by the alloc pin
		}
	}
	return syms, nil
}

// DecodeWaysRef is the retained bit-by-bit reference decoder. The LUT path
// must produce bitwise-identical output (and must error whenever it errors);
// FuzzDecodeLUT cross-checks the two.
func (t *Table) DecodeWaysRef(payload []byte, wayStart [PDWs]int, skipStart, skipLen int) ([compress.SymbolsPerBlock]uint16, error) {
	var syms [compress.SymbolsPerBlock]uint16
	for wy := 0; wy < PDWs; wy++ {
		if wayStart[wy] < 0 || wayStart[wy] > len(payload) {
			return syms, fmt.Errorf("e2mc: way %d starts at byte %d outside payload (%d bytes)", wy, wayStart[wy], len(payload))
		}
		r := compress.NewBitReader(payload[wayStart[wy]:])
		lo, hi := waySpan(wy)
		for i := lo; i < hi; i++ {
			if i >= skipStart && i < skipStart+skipLen {
				continue
			}
			s, err := t.decodeSymbol(r)
			if err != nil {
				return syms, fmt.Errorf("e2mc: way %d symbol %d: %w", wy, i, err)
			}
			syms[i] = s
		}
	}
	return syms, nil
}

// payloadBytes returns the byte size of the encoded ways after the header.
func payloadBytes(wayBits [PDWs]int) int {
	n := 0
	for _, b := range wayBits {
		n += (b + 7) / 8
	}
	return n
}

// CompressedBits implements compress.SizeOnly: header plus byte-padded ways,
// capped at the uncompressed size. This mirrors the hardware fast path that
// sums the per-symbol code lengths before compressing (paper §III-C).
func (c *Codec) CompressedBits(block []byte) int {
	syms := compress.Symbols(block)
	bits := HeaderBits + payloadBytes(c.tab.WayBits(&syms, 0, 0))*8
	if bits >= compress.BlockBits {
		return compress.BlockBits
	}
	return bits
}

// Compress implements compress.Codec. The block is sized first, as in
// CompressedBits; blocks that do not compress below the uncompressed size
// are stored raw with no header, and the rest are written header and ways
// into one writer sized to fit.
func (c *Codec) Compress(block []byte) compress.Encoded {
	if err := compress.CheckBlock(block); err != nil {
		panic(err)
	}
	syms := compress.Symbols(block)
	wayBits := c.tab.WayBits(&syms, 0, 0)
	bits := HeaderBits + payloadBytes(wayBits)*8
	if bits >= compress.BlockBits {
		p := make([]byte, compress.BlockSize)
		copy(p, block)
		return compress.Encoded{Bits: compress.BlockBits, Payload: p}
	}
	w := compress.NewBitWriter(bits)
	WritePointers(w, HeaderBits/8, wayBits)
	w.AlignByte()
	c.tab.WriteWays(w, &syms, 0, 0)
	if w.Len() != bits {
		panic(fmt.Sprintf("e2mc: emitted %d bits, sized %d", w.Len(), bits))
	}
	return compress.Encoded{Bits: bits, Payload: w.Bytes()}
}

// parseHeader reads the parallel decoding pointers of a compressed block.
// raw reports a block stored uncompressed (no header to parse).
func parseHeader(e compress.Encoded) (starts [PDWs]int, raw bool, err error) {
	if e.Bits >= compress.BlockBits {
		return starts, true, nil
	}
	r := compress.NewBitReader(e.Payload)
	starts[0] = HeaderBits / 8
	for wy := 1; wy < PDWs; wy++ {
		v, rerr := r.ReadBits(pdpBits)
		if rerr != nil {
			return starts, false, fmt.Errorf("e2mc: header: %w", rerr)
		}
		starts[wy] = int(v)
	}
	return starts, false, nil
}

// Decompress implements compress.Codec.
func (c *Codec) Decompress(e compress.Encoded, dst []byte) error {
	if len(dst) < compress.BlockSize {
		return fmt.Errorf("e2mc: dst too small (%d bytes)", len(dst))
	}
	starts, raw, err := parseHeader(e)
	if err != nil {
		return err
	}
	if raw {
		if len(e.Payload) < compress.BlockSize {
			return fmt.Errorf("e2mc: raw payload too short")
		}
		copy(dst, e.Payload[:compress.BlockSize])
		return nil
	}
	syms, err := c.tab.DecodeWays(e.Payload, starts, 0, 0)
	if err != nil {
		return err
	}
	compress.PutSymbols(dst, syms)
	return nil
}
