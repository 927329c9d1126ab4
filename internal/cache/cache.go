// Package cache models a last-level cache with the two features the
// paper's evaluation leans on:
//
//   - Direct Cache Access (Intel DDIO): DMA traffic from the NIC and
//     storage allocates into a restricted subset of ways, and when the
//     "usage distance" of DMA data is long the lines leak to DRAM before
//     the CPU consumes them (§II, Observation 3);
//   - Cache Allocation Technology (CAT): way masks shrink the LLC seen
//     by an allocation class, which is how Fig. 10 provisions 10-50MB
//     LLCs for the scratchpad-equilibrium experiment.
//
// The cache is functional: lines carry their 64 bytes of data, so dirty
// writebacks deliver real content to the DIMM model — that is the
// mechanism behind SmartDIMM's self-recycling (§IV-B), where an LLC
// writeback of a destination-buffer cacheline triggers the wrCAS that
// swaps in the DSA's result.
package cache

import "fmt"

// LineSize is the cache line size in bytes.
const LineSize = 64

// Class labels an allocation class for CAT masking and statistics.
type Class int

// Allocation classes used by the system model.
const (
	ClassCPU Class = iota // demand traffic from cores
	ClassDMA              // device DMA via DDIO
	numClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassCPU:
		return "cpu"
	case ClassDMA:
		return "dma"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Victim describes a line evicted or flushed from the cache.
type Victim struct {
	Addr  uint64
	Dirty bool
	Data  [LineSize]byte
}

// Stats tracks per-class access outcomes plus writeback counts.
type Stats struct {
	Accesses   [numClasses]uint64
	Misses     [numClasses]uint64
	Writebacks uint64 // dirty evictions + dirty flushes
	Fills      uint64
}

// line is one way's payload and replacement state. Its tag and valid
// bit live in Cache.keys, so a lookup scans one word per way, all in
// a row, instead of one line per way.
type line struct {
	data    [LineSize]byte
	lastUse uint64
	dirty   bool
}

// validKey marks a live entry of Cache.keys; the rest of the key is the
// line's tag (address / LineSize, which never reaches bit 63).
const validKey = 1 << 63

// Config sizes the cache.
type Config struct {
	SizeBytes int
	Ways      int
	// WayMask[class] restricts which ways the class may allocate into;
	// zero means "all ways". Lookups always search every way.
	WayMask [numClasses]uint64
}

// DefaultXeonLLC returns the testbed-like LLC: the Xeon Gold 6242 has a
// 22MB L3; we model 22MB, 11 ways (2MB per way, matching CAT's way
// granularity on that part), with DDIO limited to 2 ways.
func DefaultXeonLLC() Config {
	return Config{
		SizeBytes: 22 << 20,
		Ways:      11,
		WayMask:   [numClasses]uint64{ClassDMA: 0b11},
	}
}

// Cache is a set-associative, write-back, write-allocate cache with LRU
// replacement and per-class way masking. Set s occupies ways
// [s*Ways, (s+1)*Ways) of both keys and lines.
type Cache struct {
	cfg     Config
	keys    []uint64 // tag | validKey per set x way; 0 is an empty way
	lines   []line
	setMask uint64
	tick    uint64
	stats   Stats
	// window counters for miss-rate sampling (adaptive offload probe)
	winAcc, winMiss uint64
	// victim is the line FlushRange hands to its writeback callback.
	victim Victim
}

// New builds a cache; SizeBytes must be a multiple of Ways*LineSize and
// the resulting set count a power of two.
func New(cfg Config) (*Cache, error) {
	if cfg.Ways <= 0 || cfg.Ways > 64 {
		return nil, fmt.Errorf("cache: ways = %d out of range", cfg.Ways)
	}
	if cfg.SizeBytes <= 0 || cfg.SizeBytes%(cfg.Ways*LineSize) != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible by ways*linesize", cfg.SizeBytes)
	}
	nSets := cfg.SizeBytes / (cfg.Ways * LineSize)
	if nSets&(nSets-1) != 0 {
		return nil, fmt.Errorf("cache: %d sets is not a power of two", nSets)
	}
	n := nSets * cfg.Ways
	return &Cache{cfg: cfg, keys: make([]uint64, n), lines: make([]line, n), setMask: uint64(nSets - 1)}, nil
}

// Stats returns a copy of the statistics.
func (c *Cache) Stats() Stats { return c.stats }

// SizeBytes returns the configured capacity.
func (c *Cache) SizeBytes() int { return c.cfg.SizeBytes }

// setBase returns the index of way 0 of addr's set.
func (c *Cache) setBase(addr uint64) int {
	return int((addr/LineSize)&c.setMask) * c.cfg.Ways
}

// lookup returns the keys/lines index holding addr, or -1.
func (c *Cache) lookup(addr uint64) int {
	base := c.setBase(addr)
	key := addr/LineSize | validKey
	for w, k := range c.keys[base : base+c.cfg.Ways] {
		if k == key {
			return base + w
		}
	}
	return -1
}

// Contains reports whether the line is cached, without touching LRU or
// statistics (a probe, not an access).
func (c *Cache) Contains(addr uint64) bool { return c.lookup(addr) != -1 }

// Read performs a demand read of the line containing addr. On a hit the
// line data is copied into dst (which must hold 64 bytes) and ok=true.
// On a miss ok=false and the caller must obtain the line from memory and
// call Fill.
func (c *Cache) Read(addr uint64, class Class, dst []byte) (ok bool) {
	c.tick++
	c.stats.Accesses[class]++
	c.winAcc++
	i := c.lookup(addr)
	if i == -1 {
		c.stats.Misses[class]++
		c.winMiss++
		return false
	}
	l := &c.lines[i]
	l.lastUse = c.tick
	copy(dst, l.data[:])
	return true
}

// Write performs a demand write of a full line. On a hit the line is
// updated and marked dirty. On a miss ok=false; with write-allocate the
// caller Fills the line (fetching old content if the write is partial)
// and retries, or uses FillDirty directly for a full-line write.
func (c *Cache) Write(addr uint64, class Class, src []byte) (ok bool) {
	c.tick++
	c.stats.Accesses[class]++
	c.winAcc++
	i := c.lookup(addr)
	if i == -1 {
		c.stats.Misses[class]++
		c.winMiss++
		return false
	}
	l := &c.lines[i]
	l.lastUse = c.tick
	l.dirty = true
	copy(l.data[:], src)
	return true
}

// Fill installs a clean line fetched from memory, evicting per class
// mask + LRU if needed. When ok, v is the evicted line, which the caller
// must write back if it is dirty.
func (c *Cache) Fill(addr uint64, class Class, data []byte) (v Victim, ok bool) {
	return c.fill(addr, class, data, false)
}

// FillDirty installs a line that is immediately dirty: a full-line CPU
// store miss (no fetch needed) or a DDIO DMA write from a device.
func (c *Cache) FillDirty(addr uint64, class Class, data []byte) (v Victim, ok bool) {
	return c.fill(addr, class, data, true)
}

func (c *Cache) fill(addr uint64, class Class, data []byte, dirty bool) (v Victim, ok bool) {
	c.tick++
	c.stats.Fills++

	// If present already (races between fill paths), update in place.
	if i := c.lookup(addr); i != -1 {
		l := &c.lines[i]
		copy(l.data[:], data)
		l.dirty = l.dirty || dirty
		l.lastUse = c.tick
		return Victim{}, false
	}

	base := c.setBase(addr)
	keys, lines := c.keys[base:base+c.cfg.Ways], c.lines[base:base+c.cfg.Ways]
	mask := c.cfg.WayMask[class]
	if mask == 0 {
		mask = ^uint64(0)
	}
	// Prefer an invalid allowed way.
	victimWay := -1
	var oldest uint64 = ^uint64(0)
	for w := range keys {
		if mask&(1<<uint(w)) == 0 {
			continue
		}
		if keys[w] == 0 {
			victimWay = w
			break
		}
		if lines[w].lastUse < oldest {
			victimWay = w
			oldest = lines[w].lastUse
		}
	}
	if victimWay == -1 {
		// Mask excluded every way (misconfigured CAT): fall back to way 0
		// behaviourally rather than dropping the line.
		victimWay = 0
	}
	l := &lines[victimWay]
	if k := keys[victimWay]; k != 0 {
		v, ok = Victim{Addr: (k &^ validKey) * LineSize, Dirty: l.dirty, Data: l.data}, true
		if v.Dirty {
			c.stats.Writebacks++
		}
	}
	keys[victimWay] = addr/LineSize | validKey
	l.dirty, l.lastUse = dirty, c.tick
	n := copy(l.data[:], data)
	clear(l.data[n:])
	return v, ok
}

// flush removes the line containing addr (clflush semantics), describing
// it in v for writeback if it is dirty, and reports whether it was
// present; clean lines are simply invalidated.
func (c *Cache) flush(addr uint64, v *Victim) bool {
	i := c.lookup(addr)
	if i == -1 {
		return false
	}
	l := &c.lines[i]
	v.Addr, v.Dirty, v.Data = (c.keys[i]&^validKey)*LineSize, l.dirty, l.data
	c.keys[i] = 0
	if v.Dirty {
		c.stats.Writebacks++
	}
	return true
}

// FlushRange flushes every line in [addr, addr+size), invoking wb for
// each dirty victim in address order. The victim is the cache's own and
// is valid only during the call. FlushRange returns how many lines were
// present (dirty or clean) — the §IV-A flush-cost claim depends on how
// much of the range was actually cached.
func (c *Cache) FlushRange(addr uint64, size int, wb func(*Victim)) int {
	present := 0
	start := addr &^ (LineSize - 1)
	for a := start; a < addr+uint64(size); a += LineSize {
		if c.flush(a, &c.victim) {
			present++
			if c.victim.Dirty && wb != nil {
				wb(&c.victim)
			}
		}
	}
	return present
}

// SampleMissRate returns the miss rate since the previous sample and
// resets the window — the probe the adaptive offload policy calls
// periodically (§IV goals, §V-C).
func (c *Cache) SampleMissRate() float64 {
	if c.winAcc == 0 {
		return 0
	}
	r := float64(c.winMiss) / float64(c.winAcc)
	c.winAcc, c.winMiss = 0, 0
	return r
}
