package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/dram"
	"repro/internal/memsys"
	"repro/internal/telemetry"
)

// Errors returned by the CompCpy path. ErrNoScratchpad, ErrDSAFault and
// ErrTranslationInsert are degradable: the offload layer falls back to
// the CPU software path when it sees them (errors.Is).
var (
	// ErrNoScratchpad means the Scratchpad (or Config Memory) could not
	// supply enough pages even after Force-Recycle.
	ErrNoScratchpad = errors.New("core: scratchpad exhausted")
	// ErrNotAligned mirrors Algorithm 2's page-alignment check.
	ErrNotAligned = errors.New("core: buffers must be 4KB page aligned")
	// ErrTranslationInsert means the device's Translation Table could not
	// accept a registration (cuckoo + CAM full, or an injected fault).
	ErrTranslationInsert = errors.New("core: translation table insert failed")
	// ErrDSAFault means the device aborted the record because a DSA
	// faulted mid-offload; the destination buffer holds no usable data.
	ErrDSAFault = errors.New("core: DSA fault aborted the offload")
)

// Host is the memory-system interface CompCpy drives: cached loads and
// stores, cache-line flushes, memory barriers, and uncached MMIO
// accesses to the SmartDIMM config space. internal/memsys implements it.
type Host interface {
	Read64(core int, addr uint64, dst []byte) (int64, error)
	Write64(core int, addr uint64, src []byte) (int64, error)
	Read(dst []byte, core int, addr uint64, n int) ([]byte, int64, error)
	Flush(addr uint64, size int) (int64, error)
	Membar() error
	MMIOWrite(addr uint64, src []byte) (int64, error)
	MMIORead(addr uint64, dst []byte) (int64, error)
}

// DriverStats counts software-side events.
type DriverStats struct {
	CompCpyCalls      uint64
	ForceRecycleCalls uint64
	StatusReads       uint64 // lazy freePages refreshes (Algorithm 2 line 9)
	BytesOffloaded    uint64
	PagesAllocated    uint64
	PagesFreed        uint64
	OffloadAborts     uint64 // CompCpy calls that failed and aborted the record
}

// Driver is the SmartDIMM kernel-driver model (§V-C): it owns the
// device's physical range, allocates offload buffers to applications,
// and implements CompCpy (Algorithm 2) and Force-Recycle (Algorithm 1).
type Driver struct {
	host Host
	// Base is the global physical address where the SmartDIMM range
	// starts; MMIOBase is the global address of the config space.
	Base     uint64
	MMIOBase uint64

	// AbortProbe, when non-nil, reports the device's cumulative record
	// aborts (DeviceStats.RecordAborts). CompCpy samples it around the
	// copy to detect a DSA fault that the data path cannot signal — the
	// hardware would raise an interrupt; the model reads a counter. The
	// simulator is synchronous, so a delta can only come from this call's
	// own record.
	AbortProbe func() uint64

	// Clock, when non-nil, supplies the current simulated time in
	// picoseconds (sim.Engine.Now); Tracer then records one span per
	// CompCpy call and an instant per Force-Recycle on TraceTrack.
	Clock      func() int64
	Tracer     *telemetry.Tracer
	TraceTrack telemetry.TrackID

	mu        sync.Mutex
	freePages int64 // lazily refreshed Scratchpad page estimate
	nextPage  uint64
	limitPage uint64
	freeLists map[int][]uint64 // free buffer lists keyed by page count
	stats     DriverStats
	// line is the 64-byte buffer of every host access on the CompCpy
	// path. A stack array passed through the Host interface would move
	// to the heap on each call; the host copies what it keeps.
	line [dram.CachelineSize]byte
}

// NewDriver binds a driver to the host memory system. base is the global
// address of the SmartDIMM module's range, devCapacity its size in
// bytes, and mmioPages the pages reserved at the top for config space.
func NewDriver(host Host, base uint64, devCapacity uint64, mmioPages int) *Driver {
	return &Driver{
		host:      host,
		Base:      base,
		MMIOBase:  base + devCapacity - uint64(mmioPages)*PageSize,
		freePages: -1, // unknown until first refresh, as in Algorithm 2
		nextPage:  base / PageSize,
		limitPage: (base + devCapacity - uint64(mmioPages)*PageSize) / PageSize,
		freeLists: make(map[int][]uint64),
	}
}

// Stats returns a copy of the driver statistics.
func (d *Driver) Stats() DriverStats { return d.stats }

// Collect implements telemetry.Collector.
func (s DriverStats) Collect(emit func(telemetry.Sample)) {
	emit(telemetry.Sample{Name: "compcpy_calls", Value: float64(s.CompCpyCalls)})
	emit(telemetry.Sample{Name: "force_recycles", Value: float64(s.ForceRecycleCalls)})
	emit(telemetry.Sample{Name: "status_reads", Value: float64(s.StatusReads)})
	emit(telemetry.Sample{Name: "bytes_offloaded", Value: float64(s.BytesOffloaded)})
	emit(telemetry.Sample{Name: "pages_allocated", Value: float64(s.PagesAllocated)})
	emit(telemetry.Sample{Name: "pages_freed", Value: float64(s.PagesFreed)})
	emit(telemetry.Sample{Name: "offload_aborts", Value: float64(s.OffloadAborts)})
}

// nowPs samples the simulated clock, or 0 when no clock is wired.
func (d *Driver) nowPs() int64 {
	if d.Clock == nil {
		return 0
	}
	return d.Clock()
}

// OutstandingPages returns the pages currently allocated to offload
// buffers (allocated minus freed). The fleet's cross-device conservation
// invariant sums this over every rank's driver.
func (d *Driver) OutstandingPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int(d.stats.PagesAllocated - d.stats.PagesFreed)
}

// SetAllocRange narrows the page allocator to [start, end) so the
// driver can share the device's address range with other users (e.g.
// the OS using SmartDIMM capacity as regular memory, Benefit B2).
func (d *Driver) SetAllocRange(start, end uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextPage = start / PageSize
	d.limitPage = end / PageSize
	d.freeLists = make(map[int][]uint64)
}

// AllocPages reserves n contiguous 4KB pages on SmartDIMM, returning the
// global physical address.
func (d *Driver) AllocPages(n int) (uint64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("core: alloc of %d pages", n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if list := d.freeLists[n]; len(list) > 0 {
		addr := list[len(list)-1]
		d.freeLists[n] = list[:len(list)-1]
		d.stats.PagesAllocated += uint64(n)
		return addr, nil
	}
	if d.nextPage+uint64(n) > d.limitPage {
		return 0, fmt.Errorf("core: SmartDIMM address range exhausted")
	}
	addr := d.nextPage * PageSize
	d.nextPage += uint64(n)
	d.stats.PagesAllocated += uint64(n)
	return addr, nil
}

// FreePages returns a buffer of n pages to the allocator.
func (d *Driver) FreePages(addr uint64, n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.freeLists[n] = append(d.freeLists[n], addr)
	d.stats.PagesFreed += uint64(n)
}

// readStatus refreshes freePages from the device's MMIO status word.
func (d *Driver) readStatus() (free int64, pendingCount int64, err error) {
	buf := d.line[:]
	if _, err := d.host.MMIORead(d.MMIOBase, buf); err != nil {
		return 0, 0, err
	}
	d.stats.StatusReads++
	return int64(binary.LittleEndian.Uint64(buf[0:])),
		int64(binary.LittleEndian.Uint64(buf[8:])), nil
}

// forceRecycle implements Algorithm 1: read the pending-page list from
// the MMIO config space and flush those pages so their LLC-resident
// cachelines write back and recycle Scratchpad lines.
func (d *Driver) forceRecycle(requiredToBeFree int) error {
	d.stats.ForceRecycleCalls++
	d.Tracer.Instant(d.TraceTrack, "force-recycle", d.nowPs())
	_, pending, err := d.readStatus()
	if err != nil {
		return err
	}
	freed := 0
	buf := d.line[:]
	for chunk := 0; int64(chunk*8) < pending; chunk++ {
		if _, err := d.host.MMIORead(d.MMIOBase+uint64(chunk+1)*dram.CachelineSize, buf); err != nil {
			return err
		}
		for i := 0; i < 8 && int64(chunk*8+i) < pending; i++ {
			page := binary.LittleEndian.Uint64(buf[i*8:])
			if page == 0 {
				continue
			}
			if _, err := d.host.Flush(page*PageSize, PageSize); err != nil {
				return err
			}
			freed++
			if freed > requiredToBeFree {
				return nil
			}
		}
	}
	return nil
}

// CompCpy is Algorithm 2: transform size bytes from sbuf into dbuf using
// the DSA selected by ctx while copying. Both buffers must be 4KB
// aligned global addresses inside the SmartDIMM range. ordered forces a
// memory barrier between 64-byte copies (required by the sequential
// (de)compression DSAs). It returns the modelled elapsed time in
// picoseconds.
func (d *Driver) CompCpy(core int, dbuf, sbuf uint64, size int, ctx *OffloadContext, ordered bool) (int64, error) {
	if dbuf%PageSize != 0 || sbuf%PageSize != 0 {
		return 0, ErrNotAligned
	}
	if size <= 0 {
		return 0, fmt.Errorf("core: CompCpy size %d", size)
	}
	nPages := (size + PageSize - 1) / PageSize
	var elapsed int64

	// Lines 7-17: reserve Scratchpad pages under the lock, refreshing
	// the lazy freePages counter and force-recycling only when low.
	d.mu.Lock()
	if d.freePages <= int64(nPages) {
		free, _, err := d.readStatus()
		if err != nil {
			d.mu.Unlock()
			return 0, err
		}
		d.freePages = free
		if d.freePages <= int64(nPages) { // unlikely (§VII-A)
			if err := d.forceRecycle(nPages); err != nil {
				d.mu.Unlock()
				return 0, err
			}
			free, _, err = d.readStatus()
			if err != nil {
				d.mu.Unlock()
				return 0, err
			}
			d.freePages = free
			if d.freePages <= int64(nPages) {
				d.mu.Unlock()
				return 0, ErrNoScratchpad
			}
		}
	}
	d.freePages -= int64(nPages)
	d.stats.CompCpyCalls++
	d.stats.BytesOffloaded += uint64(size)
	d.mu.Unlock()

	// Line 19: flush sbuf to DRAM so the DIMM observes the source bytes.
	lat, err := d.host.Flush(sbuf, size)
	if err != nil {
		return 0, err
	}
	elapsed += lat

	// Snapshot the device's abort counter: a DSA fault mid-offload tears
	// the record down device-side without an error on the data path, so
	// the driver detects it by the counter moving.
	var abortsBefore uint64
	if d.AbortProbe != nil {
		abortsBefore = d.AbortProbe()
	}

	// Lines 21-23: register source and destination ranges plus context.
	lat, err = d.register(sbuf, dbuf, size, nPages, ctx)
	if err != nil {
		d.abortOffload(sbuf)
		return 0, err
	}
	elapsed += lat

	// Lines 24-31: the copy itself, optionally ordered. The copy
	// overlaps outstanding misses (memsys.Overlap); the ordered variant
	// also serializes on the fence between 64-byte segments, which is
	// not overlapped.
	line := d.line[:]
	var copyLat int64
	for off := 0; off < size; off += dram.CachelineSize {
		rl, err := d.host.Read64(core, sbuf+uint64(off), line)
		if err != nil {
			d.abortOffload(sbuf)
			return 0, err
		}
		wl, err := d.host.Write64(core, dbuf+uint64(off), line)
		if err != nil {
			d.abortOffload(sbuf)
			return 0, err
		}
		copyLat += rl + wl
		if ordered {
			if err := d.host.Membar(); err != nil {
				return 0, err
			}
		}
	}
	if d.AbortProbe != nil && d.AbortProbe() > abortsBefore {
		d.mu.Lock()
		d.stats.OffloadAborts++
		d.mu.Unlock()
		return 0, fmt.Errorf("core: record aborted mid-offload: %w", ErrDSAFault)
	}
	elapsed += memsys.Overlap(copyLat)
	if ordered {
		elapsed += int64((size+dram.CachelineSize-1)/dram.CachelineSize) * membarPs
	}
	if d.Tracer != nil {
		d.Tracer.Span(d.TraceTrack, "CompCpy", d.nowPs(), elapsed)
	}
	return elapsed, nil
}

// abortOffload best-effort tears down a record the driver gave up on
// (registration or copy failure), so the device's Scratchpad, Config
// Memory and Translation Table entries are reclaimed instead of leaking.
func (d *Driver) abortOffload(sbuf uint64) {
	d.mu.Lock()
	d.stats.OffloadAborts++
	d.mu.Unlock()
	var hdr [dram.CachelineSize]byte
	binary.LittleEndian.PutUint16(hdr[0:], regMagic)
	hdr[2] = opAbort
	binary.LittleEndian.PutUint64(hdr[8:], d.localPage(sbuf))
	d.host.MMIOWrite(d.MMIOBase, hdr[:]) // best effort; errors are moot here
}

// AbortBuffer tears down any in-flight record registered on the n-page
// buffer at addr (a global address within this driver's range). The
// fleet calls it before freeing a migrating connection's buffers: a
// record stranded by a failed operation must not keep Scratchpad,
// Config Memory or Translation Table entries alive past the buffer's
// lifetime. Pages with no registered record are no-ops on the device.
func (d *Driver) AbortBuffer(addr uint64, n int) {
	var hdr [dram.CachelineSize]byte
	binary.LittleEndian.PutUint16(hdr[0:], regMagic)
	hdr[2] = opAbort
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(hdr[8:], d.localPage(addr)+uint64(i))
		// A stranded record silently corrupts later buffer reuse, so
		// unlike the single-shot abort on the CompCpy error path this
		// one retries through transient channel faults.
		for try := 0; try < 4; try++ {
			if _, err := d.host.MMIOWrite(d.MMIOBase, hdr[:]); err == nil {
				break
			}
		}
	}
}

// membarPs is the modelled cost of the store fence inserted between
// ordered 64-byte copies (Algorithm 2, line 27).
const membarPs = 25_000

// register transmits the per-page registration headers and the record
// context through the MMIO window (S17).
func (d *Driver) register(sbuf, dbuf uint64, size, nPages int, ctx *OffloadContext) (int64, error) {
	var buf [maxContextBytes]byte
	raw, err := marshalContext(buf[:0], ctx)
	if err != nil {
		return 0, err
	}
	recordLen := ctx.Length
	switch ctx.Op {
	case OpTLSEncrypt, OpTLSDecrypt:
		recordLen = ctx.Length + TagSize
	}
	if recordLen > size {
		return 0, fmt.Errorf("core: record length %d exceeds CompCpy size %d", recordLen, size)
	}
	var elapsed int64
	hdr := d.line[:]
	for p := 0; p < nPages; p++ {
		clear(hdr)
		binary.LittleEndian.PutUint16(hdr[0:], regMagic)
		hdr[2] = byte(ctx.Op)
		ctxLen := 0
		if p == 0 {
			ctxLen = len(raw)
		}
		binary.LittleEndian.PutUint16(hdr[4:], uint16(ctxLen))
		binary.LittleEndian.PutUint16(hdr[6:], uint16(p))
		binary.LittleEndian.PutUint64(hdr[8:], d.localPage(sbuf)+uint64(p))
		binary.LittleEndian.PutUint64(hdr[16:], d.localPage(dbuf)+uint64(p))
		binary.LittleEndian.PutUint32(hdr[24:], uint32(recordLen))
		binary.LittleEndian.PutUint64(hdr[28:], d.localPage(sbuf))
		lat, err := d.host.MMIOWrite(d.MMIOBase, hdr)
		if err != nil {
			return 0, err
		}
		elapsed += lat
		if p == 0 {
			for off := 0; off < len(raw); off += dram.CachelineSize {
				clear(hdr[copy(hdr, raw[off:]):])
				k := off / dram.CachelineSize
				lat, err := d.host.MMIOWrite(d.MMIOBase+uint64(k+1)*dram.CachelineSize, hdr)
				if err != nil {
					return 0, err
				}
				elapsed += lat
			}
		}
	}
	return elapsed, nil
}

// localPage converts a global physical address to the device-local page
// number carried in registration headers.
func (d *Driver) localPage(global uint64) uint64 {
	return (global - d.Base) / PageSize
}

// Use implements the USE step of Algorithm 2 (lines 32-34): flush the
// destination buffer so stale cached copies write back (recycling the
// Scratchpad) and then read the transformed bytes.
func (d *Driver) Use(core int, dbuf uint64, size int) ([]byte, int64, error) {
	lat, err := d.host.Flush(dbuf, size)
	if err != nil {
		return nil, 0, err
	}
	out, rl, err := d.host.Read(nil, core, dbuf, size)
	if err != nil {
		return nil, 0, err
	}
	return out, lat + rl, nil
}
