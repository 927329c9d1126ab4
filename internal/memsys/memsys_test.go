package memsys

import (
	"bytes"
	"testing"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/memctrl"
)

func newHier(t *testing.T, nChannels int) *Hierarchy {
	t.Helper()
	llc, err := cache.New(cache.Config{SizeBytes: 64 * 1024, Ways: 8,
		WayMask: [2]uint64{cache.ClassDMA: 0b11}})
	if err != nil {
		t.Fatal(err)
	}
	var chans []Channel
	for i := 0; i < nChannels; i++ {
		d, err := dram.NewPlainDIMM(dram.SmallGeometry())
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, Channel{Ctl: memctrl.New(dram.DDR4_3200(), d), Mod: d})
	}
	h, err := New(llc, chans...)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestReadWriteThroughCache(t *testing.T) {
	h := newHier(t, 1)
	want := bytes.Repeat([]byte{0xC3}, 64)
	if _, err := h.Write64(0, 0x4000, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	lat, err := h.Read64(0, 0x4000, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("cached read mismatch")
	}
	if lat != LLCHitPs {
		t.Fatalf("expected hit latency, got %d", lat)
	}
}

func TestMissLatencyExceedsHit(t *testing.T) {
	h := newHier(t, 1)
	buf := make([]byte, 64)
	missLat, err := h.Read64(0, 0x8000, buf)
	if err != nil {
		t.Fatal(err)
	}
	hitLat, _ := h.Read64(0, 0x8000, buf)
	if missLat <= hitLat {
		t.Fatalf("miss %dps <= hit %dps", missLat, hitLat)
	}
}

func TestFlushWritesBackAndInvalidates(t *testing.T) {
	h := newHier(t, 1)
	want := bytes.Repeat([]byte{0x77}, 64)
	h.Write64(0, 0x1000, want)
	if !h.LLC.Contains(0x1000) {
		t.Fatal("line not cached after write")
	}
	if _, err := h.Flush(0x1000, 64); err != nil {
		t.Fatal(err)
	}
	if h.LLC.Contains(0x1000) {
		t.Fatal("line survived flush")
	}
	// Data must be in DRAM now: read misses and returns the value.
	got := make([]byte, 64)
	h.Read64(0, 0x1000, got)
	if !bytes.Equal(got, want) {
		t.Fatal("flushed data lost")
	}
}

func TestFlushResidencyCost(t *testing.T) {
	// §IV-A: flushing a 4KB range that is already in DRAM (not cached)
	// is substantially cheaper than flushing a dirty cached range.
	h := newHier(t, 1)
	buf := bytes.Repeat([]byte{1}, 64)
	for off := uint64(0); off < 4096; off += 64 {
		h.Write64(0, 0x10000+off, buf)
	}
	dirtyLat, err := h.Flush(0x10000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	cleanLat, err := h.Flush(0x10000, 4096) // now absent from cache
	if err != nil {
		t.Fatal(err)
	}
	if float64(cleanLat) > 0.67*float64(dirtyLat) {
		t.Fatalf("uncached flush (%dps) not ~50%% faster than dirty flush (%dps)", cleanLat, dirtyLat)
	}
}

func TestDMAWriteLeaksViaDDIO(t *testing.T) {
	h := newHier(t, 1)
	buf := bytes.Repeat([]byte{9}, 64)
	// Stream DMA far beyond the 2 DDIO ways: early lines leak to DRAM.
	for i := uint64(0); i < 512; i++ {
		if err := h.DMAWrite64(i*64, buf); err != nil {
			t.Fatal(err)
		}
	}
	h.Membar()
	if h.Channels[0].Ctl.Stats().Writes == 0 {
		t.Fatal("no DDIO leakage writebacks reached DRAM")
	}
	// Data integrity: every line readable with correct contents.
	got := make([]byte, 64)
	for i := uint64(0); i < 512; i += 37 {
		if _, err := h.Read64(0, i*64, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf) {
			t.Fatalf("line %d corrupted", i)
		}
	}
}

func TestRangeModeRouting(t *testing.T) {
	h := newHier(t, 2)
	size := dram.SmallGeometry().CapacityBytes()
	c0, err := h.ChannelOf(0)
	if err != nil || c0 != 0 {
		t.Fatalf("channel of 0 = %d, %v", c0, err)
	}
	c1, err := h.ChannelOf(size)
	if err != nil || c1 != 1 {
		t.Fatalf("channel of %#x = %d, %v", size, c1, err)
	}
	// A 4KB page never straddles channels in range mode.
	base := size - 4096
	chA, _ := h.ChannelOf(base)
	chB, _ := h.ChannelOf(base + 4095)
	if chA != chB {
		t.Fatal("page straddles channels in range mode")
	}
	if _, err := h.ChannelOf(2 * size); err == nil {
		t.Fatal("unmapped address accepted")
	}
}

func TestMMIOBypassesCache(t *testing.T) {
	h := newHier(t, 1)
	data := bytes.Repeat([]byte{0xAB}, 64)
	if _, err := h.MMIOWrite(0x9000, data); err != nil {
		t.Fatal(err)
	}
	if h.LLC.Contains(0x9000) {
		t.Fatal("MMIO write allocated in LLC")
	}
	got := make([]byte, 64)
	if _, err := h.MMIORead(0x9000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("MMIO round trip mismatch")
	}
}

func TestNewRequiresChannel(t *testing.T) {
	llc, err := cache.New(cache.Config{SizeBytes: 64 * 1024, Ways: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(llc); err == nil {
		t.Fatal("hierarchy without channels accepted")
	}
}
