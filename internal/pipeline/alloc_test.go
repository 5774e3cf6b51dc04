package pipeline

import (
	"bytes"
	"testing"

	"repro/internal/compress"
	_ "repro/internal/compress/all" // register the Figure 1 codecs
	"repro/internal/compress/e2mc"
	"repro/internal/gpu/device"
	"repro/internal/slc"
)

// compressOnly hides the Syncer and SizeOnly fast paths of a codec, forcing
// the pipeline through the materialising Compress/Decompress path. The
// embedded interface promotes only the three compress.Codec methods.
type compressOnly struct{ compress.Codec }

// newSyncFixture builds a device with one exact and one approximable region,
// both filled, plus a pipeline running SLC over E2MC.
func newSyncFixture(t *testing.T, slow bool) (*Pipeline, device.Region, device.Region) {
	t.Helper()
	dev := device.New()
	rex, _ := dev.Malloc("exact", 32*1024, false, 0)
	rap, _ := dev.Malloc("approx", 32*1024, true, 16)
	fill(t, dev, rex, 7)
	fill(t, dev, rap, 8)
	tab := trainTable(t, dev, rap)
	lossy, err := slc.New(tab, slc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var lossless compress.Codec = e2mc.New(tab)
	var lossyC compress.Codec = lossy
	if slow {
		lossless = compressOnly{lossless}
		lossyC = compressOnly{lossyC}
	}
	p, err := New(dev, compress.MAG32, lossless, lossyC)
	if err != nil {
		t.Fatal(err)
	}
	return p, rex, rap
}

// TestSyncFastPathsMatchCompressPath pins the Syncer/SizeOnly fast paths to
// the materialising path: same statistics, same burst geometry, same device
// bytes after the lossy write-back.
func TestSyncFastPathsMatchCompressPath(t *testing.T) {
	fast, fex, fap := newSyncFixture(t, false)
	slow, sex, sap := newSyncFixture(t, true)
	for round := 0; round < 3; round++ {
		fast.Sync(fex)
		fast.Sync(fap)
		slow.Sync(sex)
		slow.Sync(sap)
	}
	fs, ss := fast.Stats(), slow.Stats()
	if fs.Blocks != ss.Blocks || fs.LossyBlocks != ss.LossyBlocks ||
		fs.Uncompressed != ss.Uncompressed || fs.RawBits != ss.RawBits ||
		fs.EffBits != ss.EffBits {
		t.Errorf("stats diverge: fast %+v slow %+v", fs, ss)
	}
	for i := range fs.AboveMAG {
		if fs.AboveMAG[i] != ss.AboveMAG[i] {
			t.Errorf("AboveMAG[%d]: fast %d slow %d", i, fs.AboveMAG[i], ss.AboveMAG[i])
		}
	}
	for _, r := range []struct{ f, s device.Region }{{fex, sex}, {fap, sap}} {
		fb, _ := fast.dev.Bytes(r.f.Addr, r.f.Size)
		sb, _ := slow.dev.Bytes(r.s.Addr, r.s.Size)
		if !bytes.Equal(fb, sb) {
			t.Errorf("region %s: device bytes diverge after sync", r.f.Name)
		}
		for addr := r.f.Addr; addr < r.f.End(); addr += compress.BlockSize {
			fbur, fcomp := fast.BurstsFor(addr)
			sbur, scomp := slow.BurstsFor(addr)
			if fbur != sbur || fcomp != scomp {
				t.Errorf("block %#x: fast (%d,%v) slow (%d,%v)", addr, fbur, fcomp, sbur, scomp)
			}
		}
	}
}

// Fig1Codecs names the lossless codecs of the Figure 1 sweep, each of which
// TestSyncSerialAllocFree also syncs an exact region through. The source is
// experiments.Fig1Codecs, but package experiments imports this one, so only
// the external test package can read it: fig1codecs_test.go copies the
// names here at init.
var Fig1Codecs []string

// TestSyncSerialAllocFree pins the per-block serial Sync steady state to zero
// allocations, for both the lossless (SizeOnly) and the SLC (Syncer) region,
// and for an exact region under each Figure 1 codec.
func TestSyncSerialAllocFree(t *testing.T) {
	p, rex, rap := newSyncFixture(t, false)
	// Warm up: first syncs size the block map and apply the initial lossy
	// write-back; afterwards re-syncing the (already approximated) image is
	// the steady state.
	for i := 0; i < 2; i++ {
		p.Sync(rex)
		p.Sync(rap)
	}
	for _, tc := range []struct {
		name string
		r    device.Region
	}{
		{"lossless region", rex},
		{"slc region", rap},
	} {
		allocs := testing.AllocsPerRun(10, func() { p.Sync(tc.r) })
		if allocs != 0 {
			blocks := tc.r.Size / compress.BlockSize
			t.Errorf("%s: Sync steady state allocates %.1f objects per call (%d blocks), want 0",
				tc.name, allocs, blocks)
		}
	}

	if len(Fig1Codecs) == 0 {
		t.Fatal("Fig1Codecs is empty; fig1codecs_test.go should fill it from experiments.Fig1Codecs")
	}
	dev := device.New()
	r, _ := dev.Malloc("exact", 32*1024, false, 0)
	fill(t, dev, r, 9)
	tab := trainTable(t, dev, r)
	for _, name := range Fig1Codecs {
		c, err := compress.Build(name, compress.BuildContext{MAG: compress.MAG32, Table: tab})
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(dev, compress.MAG32, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		p.Sync(r)
		if allocs := testing.AllocsPerRun(10, func() { p.Sync(r) }); allocs != 0 {
			t.Errorf("%s lossless region: Sync steady state allocates %.1f objects per call, want 0", name, allocs)
		}
	}
}
