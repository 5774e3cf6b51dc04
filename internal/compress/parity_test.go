package compress_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/compress"
	"repro/internal/gpu/device"
	"repro/internal/workloads"
)

// parityDigests are SHA-256 digests of the Compress output of BDI, BPC and
// HyComp over parityCorpus. They pin the bitstreams byte for byte: the
// encode-free CompressedBits paths share their classifiers with Compress,
// and a change there must not alter what Compress writes.
var parityDigests = map[string]string{
	"bdi":    "3fbb82fc708c196b4f36264c33399f0d27ad0170b35466a4a5bd6424436ca33f",
	"bpc":    "f5a53303c5d3df6e0fc57d2a29a5ddc26a668ae2eaa75449f103fb5d54a8ca0f",
	"hycomp": "86d6b18b04bc2623c0f827e6e4f0f2d39c03462d7af40d4e84086b880ab064f1",
}

// bdiTieBits is the one size two BDI geometries share (base8-delta4 and
// base2-delta1). Which of them encoded a block that fits both used to depend
// on map iteration order, so those payloads are left out of the digests;
// TestCompressDeterministicOnTies in package bdi pins them instead. Their
// sizes are still digested.
const bdiTieBits = 596

// parityCorpus is benchBlocks plus blocks sampled at every region sync of
// the TP, DCT and BP workloads — float matrices, transform coefficients and
// network weights as the device image holds them.
func parityCorpus(tb testing.TB) [][]byte {
	tb.Helper()
	blocks := benchBlocks(256)
	for _, w := range []workloads.Workload{workloads.NewTP(), workloads.NewDCT(), workloads.NewBP()} {
		dev := device.New()
		sync := func(r device.Region) {
			n := int(r.Size) / compress.BlockSize
			stride := max(1, n/256)
			for i := 0; i < n; i += stride {
				block, err := dev.Block(r.Addr + uint64(i*compress.BlockSize))
				if err != nil {
					tb.Fatal(err)
				}
				blocks = append(blocks, append([]byte(nil), block...))
			}
		}
		if _, err := w.Run(workloads.NewCtx(dev, nil, sync)); err != nil {
			tb.Fatalf("%s: %v", w.Info().Name, err)
		}
	}
	return blocks
}

// TestCompressParity digests every Compress output of BDI, BPC and HyComp
// over parityCorpus and compares it to the recorded digests.
func TestCompressParity(t *testing.T) {
	blocks := parityCorpus(t)
	tab := benchTable(t)
	bdi, err := compress.Build("bdi", compress.BuildContext{})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range parityDigests {
		c, err := compress.Build(name, compress.BuildContext{MAG: compress.MAG32, Table: tab})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var size [4]byte
		for _, block := range blocks {
			enc := c.Compress(block)
			binary.LittleEndian.PutUint32(size[:], uint32(enc.Bits))
			h.Write(size[:])
			if name != "bpc" && bdi.Compress(block).Bits == bdiTieBits {
				continue
			}
			h.Write(enc.Payload)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%s: Compress digest over %d blocks = %s, want %s", name, len(blocks), got, want)
		}
	}
}
