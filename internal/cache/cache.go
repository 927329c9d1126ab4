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

// Victim describes a line evicted or flushed from the cache. Data holds
// the line's bytes only when Dirty: a clean victim needs no writeback.
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
// replacement and per-class way masking. Each way's state sits in four
// dense arrays indexed set*Ways + way, so a lookup and a victim choice
// each scan one word per way, all in a row, and a line's bytes fill one
// host cache line of their own.
type Cache struct {
	cfg     Config
	keys    []uint64 // tag | validKey; 0 is an empty way
	ages    []uint64 // tick of the way's last use (LRU)
	dirty   []bool
	data    [][LineSize]byte
	setMask uint64
	tick    uint64
	stats   Stats
	// window counters for miss-rate sampling (adaptive offload probe)
	winAcc, winMiss uint64
	// victim is the line a fill evicts or FlushRange flushes, handed
	// out by pointer.
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
	return &Cache{
		cfg: cfg, keys: make([]uint64, n), ages: make([]uint64, n),
		dirty: make([]bool, n), data: make([][LineSize]byte, n),
		setMask: uint64(nSets - 1),
	}, nil
}

// Stats returns a copy of the statistics.
func (c *Cache) Stats() Stats { return c.stats }

// SizeBytes returns the configured capacity.
func (c *Cache) SizeBytes() int { return c.cfg.SizeBytes }

// setBase returns the index of way 0 of addr's set.
func (c *Cache) setBase(addr uint64) int {
	return int((addr/LineSize)&c.setMask) * c.cfg.Ways
}

// lookup returns the index of the way holding addr, or -1.
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
	c.ages[i] = c.tick
	copy(dst, c.data[i][:])
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
	c.ages[i] = c.tick
	c.dirty[i] = true
	copy(c.data[i][:], src)
	return true
}

// Fill installs a clean line fetched from memory, evicting per class
// mask + LRU if needed. It returns the evicted line, or nil; the caller
// must write a dirty victim back. The victim is the cache's own and is
// valid until the next call that fills or flushes.
func (c *Cache) Fill(addr uint64, class Class, data []byte) *Victim {
	return c.fill(addr, class, data, false)
}

// FillDirty installs a line that is immediately dirty: a full-line CPU
// store miss (no fetch needed) or a DDIO DMA write from a device. It
// returns the victim as Fill does.
func (c *Cache) FillDirty(addr uint64, class Class, data []byte) *Victim {
	return c.fill(addr, class, data, true)
}

func (c *Cache) fill(addr uint64, class Class, data []byte, dirty bool) *Victim {
	// If present already (races between fill paths), update in place.
	if i := c.lookup(addr); i != -1 {
		c.tick++
		c.stats.Fills++
		copy(c.data[i][:], data)
		c.dirty[i] = c.dirty[i] || dirty
		c.ages[i] = c.tick
		return nil
	}
	return c.FillMissed(addr, class, data, dirty)
}

// FillMissed installs the line at addr that the caller's Read or Write
// has just missed, clean (fetched from memory) or dirty (a full-line
// store), without looking for it in the set again: Fill or FillDirty
// for a line known to be absent. It returns the victim as Fill does.
func (c *Cache) FillMissed(addr uint64, class Class, data []byte, dirty bool) *Victim {
	c.tick++
	c.stats.Fills++
	base := c.setBase(addr)
	ways := c.cfg.Ways
	keys, ages := c.keys[base:base+ways], c.ages[base:base+ways]
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
		if ages[w] < oldest {
			victimWay = w
			oldest = ages[w]
		}
	}
	if victimWay == -1 {
		// Mask excluded every way (misconfigured CAT): fall back to way 0
		// behaviourally rather than dropping the line.
		victimWay = 0
	}
	i := base + victimWay
	var v *Victim
	if c.keys[i] != 0 {
		v = c.evict(i)
	}
	c.keys[i], c.ages[i], c.dirty[i] = addr/LineSize|validKey, c.tick, dirty
	n := copy(c.data[i][:], data)
	clear(c.data[i][n:])
	return v
}

// evict describes the valid line at index i in c.victim, copying its
// bytes only when it is dirty, and returns it. The caller reuses or
// invalidates the way.
func (c *Cache) evict(i int) *Victim {
	v := &c.victim
	v.Addr, v.Dirty = (c.keys[i]&^validKey)*LineSize, c.dirty[i]
	if v.Dirty {
		v.Data = c.data[i]
		c.stats.Writebacks++
	}
	return v
}

// flush removes the line containing addr (clflush semantics) and
// returns it, or nil when it was absent; only a dirty victim needs a
// writeback, a clean line is simply invalidated.
func (c *Cache) flush(addr uint64) *Victim {
	i := c.lookup(addr)
	if i == -1 {
		return nil
	}
	v := c.evict(i)
	c.keys[i] = 0
	return v
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
		if v := c.flush(a); v != nil {
			present++
			if v.Dirty && wb != nil {
				wb(v)
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
