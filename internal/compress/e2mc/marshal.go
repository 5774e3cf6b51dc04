package e2mc

import (
	"encoding/binary"
	"fmt"
)

// Binary serialisation of trained tables, so the experiment result store can
// persist them across runs. A table is fully determined by (maxLen, the
// frequent symbols in item order, the per-item code lengths including the
// escape entry): canonical codeword assignment and the decode acceleration
// arrays — including the decode LUT — are rebuilt deterministically, so an
// unmarshalled table encodes and decodes bitwise-identically to the
// original.

// tableWireVersion tags the serialised layout; bump on any change. Version 2
// added a gap-array interval byte after maxLen and tightened code-length
// validation; version 3 dropped that byte again with the gap-array decode.
// Older records are rejected, which the table cache treats as "recompute the
// table".
const tableWireVersion = 3

// tableHeaderBytes is the fixed record prefix: version, maxLen and the
// little-endian uint32 symbol count.
const tableHeaderBytes = 6

// MarshalBinary implements encoding.BinaryMarshaler.
func (t *Table) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, tableHeaderBytes+2*len(t.syms)+len(t.canon.lens))
	buf = append(buf, tableWireVersion, byte(t.maxLen))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.syms)))
	for _, s := range t.syms {
		buf = binary.LittleEndian.AppendUint16(buf, s)
	}
	if len(t.canon.lens) != len(t.syms)+1 {
		return nil, fmt.Errorf("e2mc: table has %d code lengths for %d symbols", len(t.canon.lens), len(t.syms))
	}
	buf = append(buf, t.canon.lens...)
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, rebuilding the
// canonical code, the lookup arrays, and the decode LUT from the serialised
// lengths.
func (t *Table) UnmarshalBinary(data []byte) error {
	if len(data) < tableHeaderBytes+1 {
		return fmt.Errorf("e2mc: table record too short (%d bytes)", len(data))
	}
	if data[0] != tableWireVersion {
		return fmt.Errorf("e2mc: table record version %d, want %d", data[0], tableWireVersion)
	}
	maxLen := int(data[1])
	if maxLen < 1 || maxLen > lutMaxLen {
		return fmt.Errorf("e2mc: table record maxLen %d out of [1, %d]", maxLen, lutMaxLen)
	}
	n := int(binary.LittleEndian.Uint32(data[2:]))
	if n < 1 || n > 1<<16 {
		return fmt.Errorf("e2mc: table record with %d symbols", n)
	}
	want := tableHeaderBytes + 2*n + n + 1
	if len(data) != want {
		return fmt.Errorf("e2mc: table record is %d bytes, want %d for %d symbols", len(data), want, n)
	}
	syms := make([]uint16, n)
	for i := range syms {
		syms[i] = binary.LittleEndian.Uint16(data[tableHeaderBytes+2*i:])
	}
	lens := make([]uint8, n+1)
	copy(lens, data[tableHeaderBytes+2*n:])
	for i, l := range lens {
		// A zero length would silently corrupt canonical codeword
		// assignment downstream, so reject it here with the range check.
		if l < 1 || int(l) > maxLen {
			return fmt.Errorf("e2mc: table record code length %d for item %d out of [1, %d]", l, i, maxLen)
		}
	}

	seen := make(map[uint16]bool, n)
	for _, s := range syms {
		if seen[s] {
			return fmt.Errorf("e2mc: table record repeats symbol %d", s)
		}
		seen[s] = true
	}
	canon, err := newCanonical(lens, maxLen)
	if err != nil {
		return err
	}
	*t = Table{
		maxLen:  maxLen,
		canon:   canon,
		syms:    syms,
		escItem: int32(n),
		escLen:  lens[n],
		lenOf:   make([]uint8, 1<<16),
		itemOf:  make([]int32, 1<<16),
	}
	for i := range t.itemOf {
		t.itemOf[i] = -1
	}
	for i, s := range syms {
		t.itemOf[s] = int32(i)
		t.lenOf[s] = lens[i]
	}
	t.buildLUT()
	return nil
}
