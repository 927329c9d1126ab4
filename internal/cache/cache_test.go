package cache

import (
	"bytes"
	"testing"
)

func tiny() *Cache {
	// 2 sets x 4 ways x 64B = 512B cache for deterministic eviction tests.
	return mustNew(Config{SizeBytes: 512, Ways: 4})
}

func mustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// dirty reports whether the line is cached and dirty.
func dirty(c *Cache, addr uint64) bool {
	i := c.lookup(addr)
	return i != -1 && c.dirty[i]
}

func lineData(b byte) []byte { return bytes.Repeat([]byte{b}, LineSize) }

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{SizeBytes: 512, Ways: 0}); err == nil {
		t.Error("0 ways accepted")
	}
	if _, err := New(Config{SizeBytes: 500, Ways: 4}); err == nil {
		t.Error("non-divisible size accepted")
	}
	if _, err := New(Config{SizeBytes: 3 * 4 * 64, Ways: 4}); err == nil {
		t.Error("non-power-of-two set count accepted")
	}
	if _, err := New(DefaultXeonLLC()); err != nil {
		t.Errorf("default LLC invalid: %v", err)
	}
}

func TestReadMissFillHit(t *testing.T) {
	c := tiny()
	buf := make([]byte, LineSize)
	if c.Read(0x1000, ClassCPU, buf) {
		t.Fatal("cold read hit")
	}
	if v := c.Fill(0x1000, ClassCPU, lineData(0xAA)); v != nil {
		t.Fatal("fill into empty cache evicted")
	}
	if !c.Read(0x1000, ClassCPU, buf) {
		t.Fatal("read after fill missed")
	}
	if !bytes.Equal(buf, lineData(0xAA)) {
		t.Fatal("read data wrong")
	}
	st := c.Stats()
	if st.Accesses[ClassCPU] != 2 || st.Misses[ClassCPU] != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWriteDirtyAndWriteback(t *testing.T) {
	c := tiny()
	c.Fill(0x1000, ClassCPU, lineData(0))
	if !c.Write(0x1000, ClassCPU, lineData(0xBB)) {
		t.Fatal("write to present line missed")
	}
	if !dirty(c, 0x1000) {
		t.Fatal("write did not mark dirty")
	}
	v := c.flush(0x1000)
	if v == nil || !v.Dirty || v.Addr != 0x1000 {
		t.Fatalf("flush victim %+v", v)
	}
	if !bytes.Equal(v.Data[:], lineData(0xBB)) {
		t.Fatal("writeback data wrong")
	}
	if c.Contains(0x1000) {
		t.Fatal("line survived flush")
	}
	if c.Stats().Writebacks != 1 {
		t.Fatal("writeback not counted")
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny() // 2 sets, 4 ways; same-set stride = 2*64 = 128
	base := uint64(0)
	// Fill 4 ways of set 0.
	for i := 0; i < 4; i++ {
		c.Fill(base+uint64(i)*128, ClassCPU, lineData(byte(i)))
	}
	// Touch line 0 so line 1 becomes LRU.
	buf := make([]byte, LineSize)
	c.Read(base, ClassCPU, buf)
	v := c.Fill(base+4*128, ClassCPU, lineData(4))
	if v == nil || v.Addr != base+1*128 {
		t.Fatalf("expected LRU victim at %#x, got %+v", base+128, v)
	}
	if v.Dirty {
		t.Fatal("clean victim marked dirty")
	}
}

func TestFillDirtyVictimCarriesData(t *testing.T) {
	c := tiny()
	for i := 0; i < 4; i++ {
		c.FillDirty(uint64(i)*128, ClassCPU, lineData(byte(i)))
	}
	v := c.FillDirty(4*128, ClassCPU, lineData(9))
	if v == nil || !v.Dirty {
		t.Fatalf("dirty victim expected, got %+v", v)
	}
	if !bytes.Equal(v.Data[:], lineData(0)) {
		t.Fatal("victim data wrong")
	}
}

func TestCATWayMaskRestrictsAllocation(t *testing.T) {
	c := tiny()
	c.cfg.WayMask[ClassDMA] = 0b0001 // DMA may only use way 0
	// Two DMA fills to the same set must evict each other.
	if v := c.FillDirty(0, ClassDMA, lineData(1)); v != nil {
		t.Fatal("first DMA fill evicted")
	}
	if v2 := c.FillDirty(128, ClassDMA, lineData(2)); v2 == nil || v2.Addr != 0 {
		t.Fatalf("second DMA fill should evict the first, got %+v", v2)
	}
	// CPU fills are unrestricted and do not evict the DMA line.
	c.Fill(256, ClassCPU, lineData(3))
	if !c.Contains(128) {
		t.Fatal("CPU fill evicted DMA line despite free ways")
	}
	// The set's last two ways take CPU fills without an eviction.
	for i := uint64(2); i < 4; i++ {
		c.Fill(i*256, ClassCPU, lineData(byte(i)))
	}
	if !c.Contains(128) || !c.Contains(256) {
		t.Fatal("CPU fills evicted a line with CPU-usable ways free")
	}
}

func TestDDIOLeakToDRAM(t *testing.T) {
	// Observation 3: DMA data with long usage distance leaks to DRAM.
	// With DDIO limited to 2 ways, streaming DMA fills evict earlier DMA
	// lines before the CPU reads them.
	c := mustNew(Config{SizeBytes: 64 * 1024, Ways: 8, WayMask: [numClasses]uint64{ClassDMA: 0b11}})
	leaked := 0
	var addrs []uint64
	for i := 0; i < 1024; i++ {
		addr := uint64(i) * LineSize
		addrs = append(addrs, addr)
		if v := c.FillDirty(addr, ClassDMA, lineData(byte(i))); v != nil && v.Dirty {
			leaked++
		}
	}
	if leaked == 0 {
		t.Fatal("no DDIO leakage under streaming DMA")
	}
	// The CPU now consumes the buffers: most reads must miss.
	buf := make([]byte, LineSize)
	misses := 0
	for _, a := range addrs {
		if !c.Read(a, ClassCPU, buf) {
			misses++
		}
	}
	if misses < len(addrs)/2 {
		t.Fatalf("only %d/%d misses; DDIO model not leaking", misses, len(addrs))
	}
}

func TestFlushRange(t *testing.T) {
	c := tiny()
	c.FillDirty(0, ClassCPU, lineData(1))
	c.Fill(64, ClassCPU, lineData(2))
	// 0x2000 not cached.
	var wbs []Victim
	present := c.FlushRange(0, 192, func(v *Victim) { wbs = append(wbs, *v) })
	if present != 2 {
		t.Fatalf("present = %d, want 2", present)
	}
	if len(wbs) != 1 || wbs[0].Addr != 0 {
		t.Fatalf("writebacks = %+v", wbs)
	}
	if c.Contains(0) || c.Contains(64) {
		t.Fatal("lines survived FlushRange")
	}
}

func TestOccupancyOf(t *testing.T) {
	c := tiny()
	c.Fill(0, ClassCPU, lineData(1))
	c.Fill(64, ClassCPU, lineData(2))
	for a, want := range map[uint64]bool{0: true, 64: true, 128: false, 192: false, 1024: false, 1088: false} {
		if c.Contains(a) != want {
			t.Fatalf("Contains(%#x) = %v, want %v", a, !want, want)
		}
	}
}

func TestSampleMissRateWindow(t *testing.T) {
	c := tiny()
	buf := make([]byte, LineSize)
	c.Read(0, ClassCPU, buf) // miss
	c.Fill(0, ClassCPU, lineData(0))
	c.Read(0, ClassCPU, buf) // hit
	if r := c.SampleMissRate(); r != 0.5 {
		t.Fatalf("window miss rate = %v, want 0.5", r)
	}
	// Window reset: no accesses since sample.
	if r := c.SampleMissRate(); r != 0 {
		t.Fatalf("empty window = %v, want 0", r)
	}
	c.Read(0, ClassCPU, buf)
	if r := c.SampleMissRate(); r != 0 {
		t.Fatalf("all-hit window = %v", r)
	}
}

// The sampled miss rate aggregates the classes' Stats.
func TestStatsMissRate(t *testing.T) {
	c := tiny()
	if c.SampleMissRate() != 0 {
		t.Fatal("idle miss rate should be 0")
	}
	buf := make([]byte, LineSize)
	for a := uint64(0); a < 20; a++ {
		addr, class := a%3*128, ClassCPU // 3 CPU lines, 1 DMA line
		if a >= 10 {
			addr, class = 64, ClassDMA
		}
		if !c.Read(addr, class, buf) {
			c.Fill(addr, class, lineData(0))
		}
	}
	st := c.Stats()
	if st.Accesses != [numClasses]uint64{10, 10} || st.Misses != [numClasses]uint64{3, 1} {
		t.Fatalf("stats %+v, want 10/10 accesses, 3/1 misses", st)
	}
	if got := c.SampleMissRate(); got != 0.2 {
		t.Fatalf("miss rate = %v, want 0.2", got)
	}
}

func TestFillExistingLinePreservesDirty(t *testing.T) {
	c := tiny()
	c.FillDirty(0, ClassCPU, lineData(1))
	c.Fill(0, ClassCPU, lineData(2)) // re-fill clean over dirty line
	if !dirty(c, 0) {
		t.Fatal("re-fill cleared dirty bit")
	}
	buf := make([]byte, LineSize)
	c.Read(0, ClassCPU, buf)
	if !bytes.Equal(buf, lineData(2)) {
		t.Fatal("re-fill did not update data")
	}
}

func TestClassString(t *testing.T) {
	if ClassCPU.String() != "cpu" || ClassDMA.String() != "dma" {
		t.Fatal("class names")
	}
}

func BenchmarkCacheReadHit(b *testing.B) {
	c := mustNew(DefaultXeonLLC())
	c.Fill(0x4000, ClassCPU, lineData(1))
	buf := make([]byte, LineSize)
	b.SetBytes(LineSize)
	for i := 0; i < b.N; i++ {
		c.Read(0x4000, ClassCPU, buf)
	}
}
