package memsys

import (
	"bytes"
	"testing"
)

func TestDMARead64ServesCacheAndDRAM(t *testing.T) {
	h := newHier(t, 1)
	want := bytes.Repeat([]byte{0x31}, 64)
	h.Write64(0, 0x3000, want)
	got := make([]byte, 64)
	// Cached: served from the LLC without allocation churn.
	lat, err := h.DMARead64(0x3000, got)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("cached DMA read: %v", err)
	}
	if lat != LLCHitPs {
		t.Fatalf("cached DMA latency = %d", lat)
	}
	// Flushed to DRAM: the DMA read must fetch from the channel.
	h.Flush(0x3000, 64)
	lat, err = h.DMARead64(0x3000, got)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("DRAM DMA read: %v", err)
	}
	if lat <= LLCHitPs {
		t.Fatalf("DRAM DMA latency = %d, want > hit latency", lat)
	}
	if _, err := h.DMARead64(1<<40, got); err == nil {
		t.Fatal("unmapped DMA read accepted")
	}
}

func TestContentionLoadFactor(t *testing.T) {
	h := newHier(t, 1)
	var now int64
	h.Clock = func() int64 { return now }
	buf := make([]byte, 64)
	if h.LoadFactor() != 1 {
		t.Fatal("initial load factor must be 1")
	}
	// Saturate the window: lots of demand with barely advancing time.
	for i := 0; i < 100000; i++ {
		addr := uint64(i) * 64
		h.Read64(0, addr, buf)
		now += 100 // 0.1ns per access: rho pegged at max
	}
	// Cross the window boundary to trigger the factor update.
	now += contentionWinPs
	h.Read64(0, 0x7000000, buf)
	now += contentionWinPs
	h.Read64(0, 0x7001000, buf)
	if lf := h.LoadFactor(); lf <= 1 {
		t.Fatalf("load factor = %.2f after saturating demand", lf)
	}
	if lf := h.LoadFactor(); lf > 1/(1-maxRho)+0.01 {
		t.Fatalf("load factor %.2f exceeds the rho cap", lf)
	}
	// An idle window brings the factor back down.
	now += 100 * contentionWinPs
	h.Read64(0, 0x7002000, buf)
	now += contentionWinPs
	h.Read64(0, 0x7004000, buf)
	if lf := h.LoadFactor(); lf > 1.1 {
		t.Fatalf("load factor %.2f did not decay after idle window", lf)
	}
}

func TestWrite64MissEvictsAndWritesBack(t *testing.T) {
	h := newHier(t, 1)
	buf := bytes.Repeat([]byte{1}, 64)
	// Fill far beyond the 64KB LLC so FillDirty evicts dirty victims.
	for i := uint64(0); i < 4096; i++ {
		if _, err := h.Write64(0, i*64, buf); err != nil {
			t.Fatal(err)
		}
	}
	if h.Channels[0].Ctl.Stats().Writes == 0 && h.Channels[0].Ctl.WriteQueuePressure() == 0 {
		t.Fatal("streaming writes produced no writebacks")
	}
	// Out-of-range write fails cleanly at eviction time.
	if _, err := h.Write64(0, 1<<40, buf); err == nil {
		// The write itself lands in the cache; the error surfaces when
		// the line is evicted and routed. Force it:
		for i := uint64(0); i < 8192; i++ {
			if _, err := h.Write64(0, i*64, buf); err != nil {
				return // surfaced as expected
			}
		}
		t.Fatal("unroutable address never surfaced an error")
	}
}

func TestMMIOErrorPaths(t *testing.T) {
	h := newHier(t, 1)
	buf := make([]byte, 64)
	if _, err := h.MMIOWrite(1<<40, buf); err == nil {
		t.Fatal("unmapped MMIO write accepted")
	}
	if _, err := h.MMIORead(1<<40, buf); err == nil {
		t.Fatal("unmapped MMIO read accepted")
	}
}

func TestFlushUnmappedRange(t *testing.T) {
	h := newHier(t, 1)
	// Flushing an unmapped dirty line must surface the routing error.
	h.LLC.FillDirty(1<<40, 0, bytes.Repeat([]byte{9}, 64))
	if _, err := h.Flush(1<<40, 64); err == nil {
		t.Fatal("flush of unroutable dirty line accepted")
	}
}
