package compress

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// refBitWriter is the original bit-at-a-time BitWriter, kept as the oracle
// the byte-chunked WriteBits must match bit for bit.
type refBitWriter struct {
	buf  []byte
	nbit int
}

func (w *refBitWriter) WriteBits(v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		bit := byte(v>>uint(i)) & 1
		if w.nbit&7 == 0 {
			w.buf = append(w.buf, 0)
		}
		if bit != 0 {
			w.buf[w.nbit>>3] |= 0x80 >> uint(w.nbit&7)
		}
		w.nbit++
	}
}

func (w *refBitWriter) AlignByte() int {
	pad := (8 - w.nbit&7) & 7
	w.WriteBits(0, pad)
	return pad
}

// FuzzBitWriter replays an arbitrary operation stream against BitWriter and
// the bit-at-a-time oracle. Each op byte selects WriteBits (width from the
// next byte, taken mod 65 so 0 and 64 both occur; value from the next 8
// bytes, garbage above the width included), WriteBool, AlignByte, or a
// mid-stream Len/Bytes check after which writing continues.
func FuzzBitWriter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // n = 0, all-ones garbage
	f.Add([]byte{0, 64, 1, 2, 3, 4, 5, 6, 7, 8, 3, 0, 3, 0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0})
	f.Add([]byte{1, 1, 0, 5, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2, 3, 0, 9, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		w := NewBitWriter(0)
		var ref refBitWriter
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		for len(ops) > 0 {
			switch op := next(); op % 4 {
			case 0:
				n := int(next()) % 65
				var raw [8]byte
				for i := range raw {
					raw[i] = next()
				}
				v := binary.BigEndian.Uint64(raw[:])
				w.WriteBits(v, n)
				ref.WriteBits(v, n)
			case 1:
				b := op&4 != 0
				w.WriteBool(b)
				if b {
					ref.WriteBits(1, 1)
				} else {
					ref.WriteBits(0, 1)
				}
			case 2:
				if got, want := w.AlignByte(), ref.AlignByte(); got != want {
					t.Fatalf("AlignByte padded %d bits, oracle %d", got, want)
				}
			case 3:
				if w.Len() != ref.nbit || !bytes.Equal(w.Bytes(), ref.buf) {
					t.Fatalf("mid-stream: %d bits %x, oracle %d bits %x", w.Len(), w.Bytes(), ref.nbit, ref.buf)
				}
			}
		}
		if w.Len() != ref.nbit || !bytes.Equal(w.Bytes(), ref.buf) {
			t.Fatalf("final: %d bits %x, oracle %d bits %x", w.Len(), w.Bytes(), ref.nbit, ref.buf)
		}
	})
}

func TestWriteBitsPanicsOnBadWidth(t *testing.T) {
	for _, n := range []int{-1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WriteBits width %d did not panic", n)
				}
			}()
			NewBitWriter(64).WriteBits(0, n)
		}()
	}
}

func TestWriteBitsAllocFree(t *testing.T) {
	w := NewBitWriter(1 << 20) // room for every run below
	allocs := testing.AllocsPerRun(100, func() {
		for n := 0; n <= 64; n++ {
			w.WriteBits(^uint64(0), n)
		}
		w.WriteBool(true)
		w.AlignByte()
	})
	if allocs != 0 {
		t.Errorf("WriteBits into a pre-sized writer allocates %.1f objects per run, want 0", allocs)
	}
}
