package e2mc

import (
	"fmt"

	"repro/internal/compress"
)

// The bit-by-bit reference decoder. It shares nothing with the LUT decode
// (decodeSpan) but the canonical code itself, which makes it the oracle
// TestDecodeWaysLUTMatchesReference and FuzzDecodeLUT check the LUT against.

// refDecoder walks a canonical code one bit at a time: after l bits the
// accumulated code is a codeword iff it lies in [firstCode[l],
// firstCode[l]+count[l]), and its item is ordered[firstIdx[l]+offset].
type refDecoder struct {
	maxLen    int
	count     []int    // count[l] = number of codes of length l
	firstCode []uint32 // canonical first code value per length
	firstIdx  []int    // index into ordered of the first code of length l
	ordered   []int32  // items in canonical order: by (length, item index)
}

func newRefDecoder(c *canonical, maxLen int) *refDecoder {
	d := &refDecoder{
		maxLen:    maxLen,
		count:     make([]int, maxLen+1),
		firstCode: make([]uint32, maxLen+1),
		firstIdx:  make([]int, maxLen+1),
	}
	for l := 1; l <= maxLen; l++ {
		for item, il := range c.lens {
			if int(il) == l {
				d.count[l]++
				d.ordered = append(d.ordered, int32(item))
			}
		}
	}
	code, idx := uint32(0), 0
	for l := 1; l <= maxLen; l++ {
		code <<= 1
		d.firstCode[l] = code
		d.firstIdx[l] = idx
		code += uint32(d.count[l])
		idx += d.count[l]
	}
	return d
}

// decode reads one canonical codeword from r and returns its item.
func (d *refDecoder) decode(r *compress.BitReader) (int32, error) {
	code := uint32(0)
	for l := 1; l <= d.maxLen; l++ {
		b, err := r.ReadBits(1)
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint32(b)
		if d.count[l] > 0 && code-d.firstCode[l] < uint32(d.count[l]) {
			return d.ordered[d.firstIdx[l]+int(code-d.firstCode[l])], nil
		}
	}
	return 0, fmt.Errorf("e2mc: invalid codeword")
}

// decodeSymbol reads one symbol: a codeword, plus the raw bits after an
// escape.
func (t *Table) decodeSymbol(d *refDecoder, r *compress.BitReader) (uint16, error) {
	item, err := d.decode(r)
	if err != nil {
		return 0, err
	}
	if item == t.escItem {
		raw, err := r.ReadBits(escapeRawBits)
		if err != nil {
			return 0, err
		}
		return uint16(raw), nil
	}
	return t.syms[item], nil
}

// decodeWaysRef is DecodeWays through the reference decoder. The LUT path
// must produce bitwise-identical output, and must error whenever this does.
func (t *Table) decodeWaysRef(payload []byte, wayStart [PDWs]int, skipStart, skipLen int) ([compress.SymbolsPerBlock]uint16, error) {
	d := newRefDecoder(t.canon, t.maxLen)
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
			s, err := t.decodeSymbol(d, r)
			if err != nil {
				return syms, fmt.Errorf("e2mc: way %d symbol %d: %w", wy, i, err)
			}
			syms[i] = s
		}
	}
	return syms, nil
}
