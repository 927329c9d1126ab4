package memsys_test

import (
	"bytes"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/memsys"
)

// newBulkHier builds a one-channel plain-DIMM hierarchy whose 64 KB LLC
// is small enough that a bulk access meets both cached and DRAM lines.
func newBulkHier(t *testing.T) *memsys.Hierarchy {
	t.Helper()
	d, err := dram.NewPlainDIMM(dram.SmallGeometry())
	if err != nil {
		t.Fatal(err)
	}
	llc, err := cache.New(cache.Config{SizeBytes: 64 * 1024, Ways: 8,
		WayMask: [2]uint64{cache.ClassDMA: 0b11}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := memsys.New(llc, memsys.Channel{Ctl: memctrl.New(dram.DDR4_3200(), d), Mod: d})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// bulkForm is one bulk access and the per-line access it must equal.
type bulkForm struct {
	name  string
	write bool // the form stores data rather than reading it
	// use marks Driver.Use: the reference flushes the range first and
	// adds the flush latency outside the overlap; there is no dst.
	use     bool
	noLat   bool // DMAWrite reports no latency
	bulk    func(h *memsys.Hierarchy, drv *core.Driver, dst []byte, addr uint64, data []byte, n int) ([]byte, int64, error)
	perLine func(h *memsys.Hierarchy, addr uint64, line []byte) (int64, error)
}

var bulkForms = []bulkForm{
	{name: "Write", write: true,
		bulk: func(h *memsys.Hierarchy, _ *core.Driver, _ []byte, addr uint64, data []byte, _ int) ([]byte, int64, error) {
			lat, err := h.Write(0, addr, data)
			return nil, lat, err
		},
		perLine: func(h *memsys.Hierarchy, addr uint64, line []byte) (int64, error) { return h.Write64(0, addr, line) }},
	{name: "DMAWrite", write: true, noLat: true,
		bulk: func(h *memsys.Hierarchy, _ *core.Driver, _ []byte, addr uint64, data []byte, _ int) ([]byte, int64, error) {
			return nil, 0, h.DMAWrite(addr, data)
		},
		perLine: func(h *memsys.Hierarchy, addr uint64, line []byte) (int64, error) { return 0, h.DMAWrite64(addr, line) }},
	{name: "PeerDMAWrite", write: true,
		bulk: func(h *memsys.Hierarchy, _ *core.Driver, _ []byte, addr uint64, data []byte, _ int) ([]byte, int64, error) {
			lat, err := h.PeerDMAWrite(addr, data)
			return nil, lat, err
		},
		perLine: func(h *memsys.Hierarchy, addr uint64, line []byte) (int64, error) {
			return h.PeerDMAWrite64(addr, line)
		}},
	{name: "Read",
		bulk: func(h *memsys.Hierarchy, _ *core.Driver, dst []byte, addr uint64, _ []byte, n int) ([]byte, int64, error) {
			return h.Read(dst, 0, addr, n)
		},
		perLine: func(h *memsys.Hierarchy, addr uint64, line []byte) (int64, error) { return h.Read64(0, addr, line) }},
	{name: "DMARead",
		bulk: func(h *memsys.Hierarchy, _ *core.Driver, dst []byte, addr uint64, _ []byte, n int) ([]byte, int64, error) {
			return h.DMARead(dst, addr, n)
		},
		perLine: func(h *memsys.Hierarchy, addr uint64, line []byte) (int64, error) { return h.DMARead64(addr, line) }},
	{name: "Driver.Use", use: true,
		bulk: func(_ *memsys.Hierarchy, drv *core.Driver, _ []byte, addr uint64, _ []byte, n int) ([]byte, int64, error) {
			return drv.Use(0, addr, n)
		},
		perLine: func(h *memsys.Hierarchy, addr uint64, line []byte) (int64, error) { return h.Read64(0, addr, line) }},
}

// TestBulkMatchesPerLine pins every bulk form (and Driver.Use, the
// flush plus the bulk Read) to the per-line accesses it walks, for
// lengths off the line size. Each form runs on one hierarchy and its
// per-line reference on an identical second one, kept in lockstep: the
// bytes moved equal the per-line ones (a write's last line zero-filled
// past the data), a read keeps the dst prefix it was passed, and the
// latency is the per-line sum divided by DESIGN §7's MLP of 4.
func TestBulkMatchesPerLine(t *testing.T) {
	h, ref := newBulkHier(t), newBulkHier(t)
	drv := core.NewDriver(h, 0, dram.SmallGeometry().CapacityBytes(), 1)
	const region = 1 << 16
	seed := make([]byte, region)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	prefix := []byte("hdr")
	for fi, f := range bulkForms {
		base := uint64(fi) * 2 * region
		// DDIO keeps some of the lines in the LLC's DMA ways and writes
		// the rest back to DRAM, so every form meets both.
		for _, hh := range []*memsys.Hierarchy{h, ref} {
			if err := hh.DMAWrite(base, seed); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range []int{1, 63, 65, 100, 4095, 4096 + 17, 40000} {
			addr := base + uint64(region-n)&^63
			data := bytes.Repeat([]byte{byte(n), byte(fi) + 1, 0x5a}, n)[:n]
			var dst []byte
			if !f.write && !f.use {
				dst = append(dst, prefix...)
			}
			got, lat, err := f.bulk(h, drv, dst, addr, data, n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", f.name, n, err)
			}

			var want []byte
			var sum, flushLat int64
			if f.use {
				if flushLat, err = ref.Flush(addr, n); err != nil {
					t.Fatal(err)
				}
			}
			var line [dram.CachelineSize]byte
			for off := 0; off < n; off += dram.CachelineSize {
				take := min(n-off, dram.CachelineSize)
				if f.write {
					clear(line[copy(line[:], data[off:]):])
				}
				l, err := f.perLine(ref, addr+uint64(off), line[:])
				if err != nil {
					t.Fatal(err)
				}
				sum += l
				want = append(want, line[:take]...)
			}

			if f.write {
				// Read both back line by line; the reads keep the two
				// hierarchies in lockstep.
				got = readLines(t, h, addr, n)
				want = readLines(t, ref, addr, n)
				padded := append(append([]byte(nil), data...), make([]byte, len(want)-n)...)
				if !bytes.Equal(want, padded) {
					t.Fatalf("%s n=%d: per-line write did not store the data", f.name, n)
				}
			} else {
				if !f.use {
					if !bytes.Equal(got[:len(prefix)], prefix) {
						t.Fatalf("%s n=%d: dst prefix lost", f.name, n)
					}
					got = got[len(prefix):]
				}
				if !bytes.Equal(want, seed[addr-base:addr-base+uint64(n)]) {
					t.Fatalf("%s n=%d: per-line read differs from the seed", f.name, n)
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s n=%d: %d bytes differ from the per-line accesses", f.name, n, len(got))
			}
			wantLat := flushLat + sum/4
			if f.noLat {
				wantLat = 0
			}
			if lat != wantLat {
				t.Fatalf("%s n=%d: latency %d, want %d", f.name, n, lat, wantLat)
			}
		}
	}
	// A dst with room for the read allocates nothing.
	buf := make([]byte, 0, 4096)
	if a := testing.AllocsPerRun(20, func() { buf, _, _ = h.DMARead(buf[:0], 0, 4000) }); a != 0 {
		t.Fatalf("DMARead into a buffer with room: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { buf, _, _ = h.Read(buf[:0], 0, 0, 4000) }); a != 0 {
		t.Fatalf("Read into a buffer with room: %v allocs, want 0", a)
	}
}

// readLines reads the whole lines covering [addr, addr+n) one Read64 at
// a time.
func readLines(t *testing.T, h *memsys.Hierarchy, addr uint64, n int) []byte {
	t.Helper()
	var out []byte
	var line [dram.CachelineSize]byte
	for off := 0; off < n; off += dram.CachelineSize {
		if _, err := h.Read64(0, addr+uint64(off), line[:]); err != nil {
			t.Fatal(err)
		}
		out = append(out, line[:]...)
	}
	return out
}

// BenchmarkDMAReadPage reads one 4 KB page that misses the LLC per
// iteration, NIC TX style, through a controller and a SmartDIMM, and
// reports the host time per line. The pages rotate over 1 MB, so each
// opens its row once and then streams row hits.
func BenchmarkDMAReadPage(b *testing.B) {
	dev, err := core.NewDevice(core.PaperDeviceConfig(dram.SmallGeometry()))
	if err != nil {
		b.Fatal(err)
	}
	llc, err := cache.New(cache.Config{SizeBytes: 64 * 1024, Ways: 8,
		WayMask: [2]uint64{cache.ClassDMA: 0b11}})
	if err != nil {
		b.Fatal(err)
	}
	h, err := memsys.New(llc, memsys.Channel{Ctl: memctrl.New(dram.DDR4_3200(), dev), Mod: dev})
	if err != nil {
		b.Fatal(err)
	}
	const pages = (1 << 20) / core.PageSize
	buf := make([]byte, 0, core.PageSize)
	b.SetBytes(core.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, _, err = h.DMARead(buf[:0], uint64(i%pages)*core.PageSize, core.PageSize); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*core.PageSize/dram.CachelineSize), "ns/line")
}
