package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/cuckoo"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// regMagic marks a valid MMIO registration header.
const regMagic = 0x5D1A

// opAbort is the registration-header op byte that tears down an
// in-flight record instead of starting one (driver-initiated abort after
// a failed CompCpy).
const opAbort = 0xFF

// DeviceConfig sizes the buffer device. The zero value is invalid; use
// PaperDeviceConfig (8MB Scratchpad, 8MB Config Memory, 12288-entry
// Translation Table — §VI) or override fields for ablations.
type DeviceConfig struct {
	Geometry        dram.Geometry
	ScratchpadPages int
	ConfigPages     int
}

const (
	// dsaLatencyCycles is the DRAM-cycle latency from a source rdCAS to
	// the corresponding result being ready in the Scratchpad: 32 DRAM
	// cycles = 8 buffer-device cycles. The §IV-D slack argument needs
	// this well under the controller's read-to-write gap; the TLS DSA
	// sustains DDR line rate, so a handful of buffer clock cycles (= 4
	// DRAM cycles each) suffices.
	dsaLatencyCycles = 32
	// mmioPages reserves the top of the address range as config space.
	mmioPages = 1
)

// PaperDeviceConfig returns the §VI configuration over the given
// geometry: 2048 Scratchpad pages (8MB), 2048 Config Memory pages (8MB).
func PaperDeviceConfig(geo dram.Geometry) DeviceConfig {
	return DeviceConfig{
		Geometry:        geo,
		ScratchpadPages: 2048,
		ConfigPages:     2048,
	}
}

// DeviceStats counts arbiter outcomes, keyed to the Fig. 6 states.
type DeviceStats struct {
	Registrations   uint64
	SourceReads     uint64 // rdCAS in a source acceleration range (S6)
	DSALinesFed     uint64
	SelfRecycles    uint64 // wrCAS swapped with Scratchpad data (§IV-B)
	PagesRecycled   uint64 // Scratchpad pages fully freed
	IgnoredWrites   uint64 // S7: write while computation pending
	ScratchpadReads uint64 // S10: read served from Scratchpad
	Alerts          uint64 // S13: ALERT_N asserted
	SourceWrites    uint64 // writes into a registered source range
	NormalReads     uint64
	NormalWrites    uint64
	MMIOReads       uint64
	MMIOWrites      uint64
	AuthFailures    uint64 // TLS decrypt tag verification failures
	StaleEvictions  uint64 // re-registrations that retired a stale allocation
	DSAErrors       uint64
	RecordAborts    uint64 // records torn down after a DSA fault or abort op
	BufferCycles    int64  // buffer-device clock (1/4 DRAM clock) high-water
}

// Device is the SmartDIMM buffer device: a dram.Module interposed
// between the memory controller and the DRAM chips.
type Device struct {
	cfg    DeviceConfig
	chips  *dram.Chips
	mapper *dram.Mapper
	bank   []int32 // the buffer device's own Bank Table (§IV-C)
	tt     *cuckoo.Table[*translation]
	// memoTr is the Translation Table entry of page memoPage, nil when
	// the page has none: the one-entry memo translate keeps for the
	// page the CAS stream is on. track and untrack, the only callers
	// that change the table, clear it.
	memoPage uint64
	memoTr   *translation
	sp       *scratchpad
	// cfgFree counts the free Config Memory pages (§IV-C): a source page
	// holds one while registered. The context bytes themselves are
	// parsed as the last of them arrives, so only the count is kept.
	cfgFree  int
	mmioBase uint64
	// reg is the in-flight registration awaiting context bytes (none
	// while reg.rec is nil); the CompCpy lock serializes registrations so
	// a single cursor suffices.
	reg   regState
	stats DeviceStats
	// records maps the record's first source page to its record for
	// multi-page attach.
	records map[uint64]*record
	// freeRecs and freeTrs hold retired records and Translation Table
	// entries for reuse (takeFree).
	freeRecs []*record
	freeTrs  []*translation
	// keys holds the TLS DSA state: the key schedules of recent
	// records, at most one per Config Memory page, and retired DSAs.
	keys *scheduleCache
	// enc holds retired (de)compression DSAs, the hinted compression
	// work units and the framer.
	enc encoderSlot
	// out is the sink every DSA puts its destination lines in, kept in
	// the device so passing it as a lineSink allocates nothing.
	out destSpace
	// Faults, when non-nil, injects device-side faults: "core.alert"
	// (spurious ALERT_N on a data read), "core.dsa" (DSA processing
	// fault, aborting the record), and "core.ttinsert" (Translation
	// Table insert failure during registration).
	Faults *fault.Injector
	// Tracer, when non-nil, records arbiter instants (page recycles,
	// record aborts) on TraceTrack. TraceCycPs converts the device's
	// DRAM-cycle clock to picoseconds (the controller's tCK); the
	// per-cacheline S6/S10 paths are never instrumented.
	Tracer     *telemetry.Tracer
	TraceTrack telemetry.TrackID
	TraceCycPs int64
	lastCycle  int64
}

type regState struct {
	rec    *record
	ctxLen int
	// ctx accumulates the context bytes; every registration reuses its
	// buffer.
	ctx []byte
}

// NewDevice builds a SmartDIMM over fresh DRAM chips.
func NewDevice(cfg DeviceConfig) (*Device, error) {
	if cfg.ScratchpadPages <= 0 || cfg.ConfigPages <= 0 {
		return nil, fmt.Errorf("core: scratchpad/config pages must be positive")
	}
	chips, err := dram.NewChips(cfg.Geometry)
	if err != nil {
		return nil, err
	}
	d := &Device{
		cfg:      cfg,
		chips:    chips,
		mapper:   chips.Mapper(),
		bank:     make([]int32, cfg.Geometry.TotalBanks()),
		tt:       cuckoo.New[*translation](3 * (cfg.ScratchpadPages + cfg.ConfigPages)),
		memoPage: noPage,
		sp:       newScratchpad(cfg.ScratchpadPages),
		cfgFree:  cfg.ConfigPages,
		records:  make(map[uint64]*record),
		keys:     newScheduleCache(cfg.ConfigPages),
	}
	for i := range d.bank {
		d.bank[i] = -1
	}
	cap := cfg.Geometry.CapacityBytes()
	d.mmioBase = cap - mmioPages*PageSize
	return d, nil
}

// Mapper implements dram.Module.
func (d *Device) Mapper() *dram.Mapper { return d.mapper }

// Stats returns a copy of the arbiter statistics.
func (d *Device) Stats() DeviceStats { return d.stats }

// Collect implements telemetry.Collector.
func (s DeviceStats) Collect(emit func(telemetry.Sample)) {
	emit(telemetry.Sample{Name: "registrations", Value: float64(s.Registrations)})
	emit(telemetry.Sample{Name: "source_reads", Value: float64(s.SourceReads)})
	emit(telemetry.Sample{Name: "dsa_lines_fed", Value: float64(s.DSALinesFed)})
	emit(telemetry.Sample{Name: "self_recycles", Value: float64(s.SelfRecycles)})
	emit(telemetry.Sample{Name: "pages_recycled", Value: float64(s.PagesRecycled)})
	emit(telemetry.Sample{Name: "ignored_writes", Value: float64(s.IgnoredWrites)})
	emit(telemetry.Sample{Name: "scratchpad_reads", Value: float64(s.ScratchpadReads)})
	emit(telemetry.Sample{Name: "alerts", Value: float64(s.Alerts)})
	emit(telemetry.Sample{Name: "auth_failures", Value: float64(s.AuthFailures)})
	emit(telemetry.Sample{Name: "stale_evictions", Value: float64(s.StaleEvictions)})
	emit(telemetry.Sample{Name: "dsa_errors", Value: float64(s.DSAErrors)})
	emit(telemetry.Sample{Name: "record_aborts", Value: float64(s.RecordAborts)})
}

// traceInstant timestamps an arbiter event with the last command cycle.
func (d *Device) traceInstant(name string) {
	d.Tracer.Instant(d.TraceTrack, name, d.lastCycle*d.TraceCycPs)
}

// ScratchpadOccupancyBytes returns un-recycled Scratchpad bytes (Fig 10).
func (d *Device) ScratchpadOccupancyBytes() int { return d.sp.occupancyBytes() }

// ScratchpadFreePages returns the free Scratchpad page count.
func (d *Device) ScratchpadFreePages() int { return d.sp.freePages() }

// ConfigFreePages returns the free Config Memory page count (the chaos
// soak's conservation invariant reads it alongside ScratchpadFreePages).
func (d *Device) ConfigFreePages() int { return d.cfgFree }

// TranslationCount returns the live Translation Table entry count.
func (d *Device) TranslationCount() int { return d.tt.Len() }

// InFlightRecords returns the number of registered, un-retired records.
func (d *Device) InFlightRecords() int { return len(d.records) }

// HandleCommand implements dram.Module: the arbiter of Fig. 6.
func (d *Device) HandleCommand(cycle int64, cmd dram.Command, wdata, rdata []byte) (bool, error) {
	if bc := cycle / 4; bc > d.stats.BufferCycles {
		d.stats.BufferCycles = bc // buffer device runs at 1/4 DRAM clock
	}
	d.lastCycle = cycle
	switch cmd.Kind {
	case dram.CmdACT:
		d.bank[d.mapper.BankIndex(cmd.Rank, cmd.BG, cmd.BA)] = int32(cmd.Row)
		return false, d.chips.Activate(cmd.Rank, cmd.BG, cmd.BA, cmd.Row)
	case dram.CmdPRE:
		d.bank[d.mapper.BankIndex(cmd.Rank, cmd.BG, cmd.BA)] = -1
		d.chips.Precharge(cmd.Rank, cmd.BG, cmd.BA)
		return false, nil
	case dram.CmdREF:
		return false, nil
	case dram.CmdRd:
		return d.handleRead(cycle, cmd, rdata)
	case dram.CmdWr:
		return d.handleWrite(cycle, cmd, wdata)
	default:
		return false, fmt.Errorf("core: unknown command %v", cmd.Kind)
	}
}

// physOf regenerates the physical address of a CAS from the buffer
// device's Bank Table (the real hardware does not see the Row on CAS
// commands; §IV-C's Addr Remap).
func (d *Device) physOf(cmd dram.Command) (uint64, error) {
	row := d.bank[d.mapper.BankIndex(cmd.Rank, cmd.BG, cmd.BA)]
	if row == -1 {
		return 0, fmt.Errorf("core: CAS to precharged bank (bank table)")
	}
	if int(row) != cmd.Row {
		return 0, fmt.Errorf("core: bank table row %d disagrees with controller row %d", row, cmd.Row)
	}
	return d.mapper.Encode(cmd.Rank, cmd.BG, cmd.BA, int(row), cmd.Col), nil
}

// noPage is the memo's page when it holds none: no address divides to
// it.
const noPage = ^uint64(0)

// translate returns page's Translation Table entry, or nil, through the
// one-entry memo: a run of CAS commands to one page looks it up once.
func (d *Device) translate(page uint64) *translation {
	if page != d.memoPage {
		d.memoTr, _ = d.tt.Lookup(page)
		d.memoPage = page
	}
	return d.memoTr
}

func (d *Device) handleRead(cycle int64, cmd dram.Command, rdata []byte) (bool, error) {
	phys, err := d.physOf(cmd)
	if err != nil {
		return false, err
	}
	if phys >= d.mmioBase {
		d.stats.MMIOReads++
		return false, d.mmioRead(phys, cmd, rdata)
	}
	if d.Faults.Fire("core.alert", cycle) {
		// Spurious device-side ALERT_N: the controller retries under its
		// backoff schedule and the next attempt proceeds normally.
		d.stats.Alerts++
		return true, nil
	}
	tr := d.translate(phys / PageSize)
	if tr == nil {
		d.stats.NormalReads++
		return false, d.chips.Read(&cmd, phys, rdata)
	}
	if tr.isSource {
		// S6: pass the data through and feed the DSA.
		if err := d.chips.Read(&cmd, phys, rdata); err != nil {
			return false, err
		}
		d.stats.SourceReads++
		d.feedDSA(cycle, tr, phys, rdata)
		return false, nil
	}
	// Destination page: S8-S13.
	sp := d.sp.pages[tr.spIdx]
	lineIdx := int(phys%PageSize) / dram.CachelineSize
	switch sp.state[lineIdx] {
	case lineRecycled:
		d.stats.NormalReads++
		return false, d.chips.Read(&cmd, phys, rdata)
	case lineReady:
		if cycle < sp.readyAt[lineIdx] {
			d.stats.Alerts++ // S13: result still in the DSA pipeline
			return true, nil
		}
		// S10: serve from the Scratchpad; the line stays pending until a
		// writeback recycles it.
		settle(sp.rec)
		copy(rdata, sp.line(lineIdx)[:])
		d.stats.ScratchpadReads++
		return false, nil
	default: // linePending
		d.stats.Alerts++ // S13
		return true, nil
	}
}

func (d *Device) handleWrite(cycle int64, cmd dram.Command, wdata []byte) (bool, error) {
	phys, err := d.physOf(cmd)
	if err != nil {
		return false, err
	}
	if phys >= d.mmioBase {
		d.stats.MMIOWrites++
		return false, d.mmioWrite(phys, wdata)
	}
	tr := d.translate(phys / PageSize)
	if tr == nil {
		d.stats.NormalWrites++
		return false, d.chips.Write(&cmd, phys, wdata)
	}
	if tr.isSource {
		// Writes into a registered source range pass through; mutating a
		// source mid-offload is an API violation the stats surface.
		d.stats.SourceWrites++
		return false, d.chips.Write(&cmd, phys, wdata)
	}
	sp := d.sp.pages[tr.spIdx]
	lineIdx := int(phys%PageSize) / dram.CachelineSize
	switch sp.state[lineIdx] {
	case lineReady:
		if cycle < sp.readyAt[lineIdx] {
			d.stats.IgnoredWrites++ // S7: result not out of the pipeline yet
			return false, nil
		}
		// Self-Recycle (§IV-B): replace the wrCAS data with the
		// Scratchpad's, write to DRAM, and invalidate the Scratchpad line.
		settle(sp.rec)
		if err := d.chips.Write(&cmd, phys, sp.line(lineIdx)[:]); err != nil {
			return false, err
		}
		sp.state[lineIdx] = lineRecycled
		sp.remaining--
		d.stats.SelfRecycles++
		if sp.remaining == 0 {
			d.retirePage(tr, sp)
		}
		return false, nil
	case linePending:
		d.stats.IgnoredWrites++ // S7
		return false, nil
	default: // lineRecycled: behave as a regular DIMM
		d.stats.NormalWrites++
		return false, d.chips.Write(&cmd, phys, wdata)
	}
}

// feedDSA sends one source cacheline to the record's DSA, which puts the
// destination lines it produces in the Scratchpad. After the last
// source line the DSA may hand its datapath to the worker pool
// (datapath.go).
func (d *Device) feedDSA(cycle int64, tr *translation, phys uint64, data []byte) {
	rec := tr.owner()
	if rec == nil || rec.dsa == nil {
		d.stats.DSAErrors++
		if rec != nil {
			d.abortRecord(rec)
		}
		return
	}
	recOff := tr.pageIndex*PageSize + int(phys%PageSize)
	clIdx := recOff / dram.CachelineSize
	if clIdx >= len(rec.processed) || rec.processed[clIdx] {
		return // beyond the record or already fed (repeat read)
	}
	end := recOff + dram.CachelineSize
	if end > rec.length {
		end = rec.length
	}
	if end <= recOff {
		return
	}
	rec.processed[clIdx] = true
	rec.fed++
	d.stats.DSALinesFed++
	if d.Faults.Fire("core.dsa", cycle) {
		// Injected DSA fault: abort the whole record so its buffers fall
		// back to plain-DIMM behaviour instead of stranding pending lines
		// that would assert ALERT_N forever. The driver detects the abort
		// and degrades to the CPU software path.
		d.stats.DSAErrors++
		d.abortRecord(rec)
		return
	}
	d.out = destSpace{d: d, rec: rec, cycle: cycle}
	if err := rec.dsa.ProcessSourceLine(recOff, data[:end-recOff], &d.out); err != nil {
		d.stats.DSAErrors++
		d.abortRecord(rec)
		return
	}
	if rec.fed == len(rec.processed) {
		d.offer(rec)
	}
}

// destSpace is the device's lineSink for one source line: it puts a
// record's destination lines in the Scratchpad page that covers their
// record offset, and marks them ready dsaLatencyCycles after the
// source rdCAS.
type destSpace struct {
	d     *Device
	rec   *record
	cycle int64
}

func (s *destSpace) put(off int) *[dram.CachelineSize]byte {
	d, rec := s.d, s.rec
	pageIdx := off / PageSize
	if pageIdx >= len(rec.destPages) {
		d.stats.DSAErrors++
		return nil
	}
	// A page stale-evicted and re-registered by another record is that
	// record's now. The memo stays on the source page the CAS stream
	// reads.
	tr := d.memoTr
	if page := rec.destPages[pageIdx]; page != d.memoPage {
		tr, _ = d.tt.Lookup(page)
	}
	if tr == nil || tr.isSource || tr.owner() != rec {
		d.stats.DSAErrors++
		return nil
	}
	sp := d.sp.pages[tr.spIdx]
	lineIdx := off % PageSize / dram.CachelineSize
	if sp.state[lineIdx] == linePending {
		sp.state[lineIdx] = lineReady
		sp.readyAt[lineIdx] = s.cycle + dsaLatencyCycles
	}
	return sp.line(lineIdx)
}

func (s *destSpace) authFailed() { s.d.stats.AuthFailures++ }

// evictStale force-retires a leftover allocation on page, if any.
func (d *Device) evictStale(page uint64) {
	tr, ok := d.tt.Lookup(page)
	if !ok {
		return
	}
	d.stats.StaleEvictions++
	if tr.isSource {
		// Source translations normally retire with their record; a
		// straggler means the record's destinations are being reused.
		d.cfgFree++
		d.untrack(page, tr)
		return
	}
	d.retirePage(tr, d.sp.pages[tr.spIdx])
}

// retirePage frees a fully recycled Scratchpad page and, when the whole
// record is done, its Config Memory pages and source translations.
func (d *Device) retirePage(tr *translation, sp *spPage) {
	rec := sp.rec
	settle(rec)
	d.sp.release(tr.spIdx)
	d.untrack(sp.dbufPage, tr)
	d.stats.PagesRecycled++
	d.traceInstant("page-recycled")
	rec.donePages++
	if rec.donePages == len(rec.destPages) {
		for _, src := range rec.srcPages {
			// Only drop translations still belonging to this record — a
			// buffer-reusing successor may have registered the same page.
			if st, ok := d.tt.Lookup(src); ok && st.isSource && st.owner() == rec {
				d.cfgFree++
				d.untrack(src, st)
			}
		}
		if d.records[rec.srcPages[0]] == rec {
			delete(d.records, rec.srcPages[0])
		}
		d.freeRecord(rec)
	}
}

// abortRecord tears down an in-flight offload after a DSA fault or a
// driver-issued abort op: every translation, Scratchpad page and Config
// Memory page of the record is freed, so its buffers behave like a plain
// DIMM again (no stranded pending lines asserting ALERT_N forever).
func (d *Device) abortRecord(rec *record) {
	settle(rec)
	for _, dp := range rec.destPages {
		if tr, ok := d.tt.Lookup(dp); ok && !tr.isSource && tr.owner() == rec {
			d.sp.release(tr.spIdx)
			d.untrack(dp, tr)
		}
	}
	for _, sp := range rec.srcPages {
		if tr, ok := d.tt.Lookup(sp); ok && tr.isSource && tr.owner() == rec {
			d.cfgFree++
			d.untrack(sp, tr)
		}
	}
	if len(rec.srcPages) > 0 && d.records[rec.srcPages[0]] == rec {
		delete(d.records, rec.srcPages[0])
	}
	d.freeRecord(rec)
	d.stats.RecordAborts++
	d.traceInstant("record-abort")
}

// abortByPage resolves a record from any of its registered pages and
// aborts it; unknown pages are a no-op (the record may already have
// retired or aborted).
func (d *Device) abortByPage(page uint64) {
	if rec, ok := d.records[page]; ok {
		d.abortRecord(rec)
		return
	}
	if tr, ok := d.tt.Lookup(page); ok {
		if rec := tr.owner(); rec != nil {
			d.abortRecord(rec)
		}
	}
}

// newRecord takes a retired record from the free list, or makes one,
// and starts it as an op record of length bytes.
func (d *Device) newRecord(op Opcode, length int) *record {
	rec := takeFree(&d.freeRecs)
	lines := (length + dram.CachelineSize - 1) / dram.CachelineSize
	rec.op, rec.length, rec.donePages, rec.fed = op, length, 0, 0
	rec.srcPages, rec.destPages = rec.srcPages[:0], rec.destPages[:0]
	rec.processed = slices.Grow(rec.processed[:0], lines)[:lines]
	clear(rec.processed)
	return rec
}

// freeRecord retires rec once nothing maps to it any more and its
// datapath has settled: its DSA state returns to the device's free
// lists, and the generation bump disowns any translation (and any
// hand-off) that still names it before the struct itself joins the
// free list.
func (d *Device) freeRecord(rec *record) {
	d.releaseDSA(rec)
	if d.reg.rec == rec {
		d.reg.rec = nil
	}
	rec.gen++
	d.freeRecs = append(d.freeRecs, rec)
}

// track inserts entry t for page into the Translation Table, stamped
// with its record's generation, in a struct from the free list, and
// clears the memo.
func (d *Device) track(page uint64, t translation) error {
	tr := takeFree(&d.freeTrs)
	*tr = t
	tr.gen = t.rec.gen
	d.memoPage = noPage
	if err := d.tt.Insert(page, tr); err != nil {
		d.freeTrs = append(d.freeTrs, tr)
		return err
	}
	return nil
}

// untrack deletes page's Translation Table entry tr, keeps tr for reuse
// and clears the memo.
func (d *Device) untrack(page uint64, tr *translation) {
	d.memoPage = noPage
	d.tt.Delete(page)
	d.freeTrs = append(d.freeTrs, tr)
}

// --- MMIO config space ---------------------------------------------------

// mmioRead serves status (offset 0) and the pending-page list (offsets
// 64, 128, ...; eight page numbers per 64-byte read).
func (d *Device) mmioRead(phys uint64, cmd dram.Command, dst []byte) error {
	off := phys - d.mmioBase
	clear(dst[:dram.CachelineSize])
	if off == 0 {
		binary.LittleEndian.PutUint64(dst[0:], uint64(d.sp.freePages()))
		binary.LittleEndian.PutUint64(dst[8:], uint64(d.sp.usedPages()))
		binary.LittleEndian.PutUint64(dst[16:], d.stats.AuthFailures)
		binary.LittleEndian.PutUint64(dst[24:], uint64(d.sp.occupancyBytes()))
		return nil
	}
	chunk := int(off/dram.CachelineSize) - 1
	var pend [dram.CachelineSize / 8]uint64
	for i, page := range pend[:d.sp.pendingFrom(chunk*len(pend), pend[:])] {
		binary.LittleEndian.PutUint64(dst[i*8:], page)
	}
	return nil
}

// mmioWrite handles registration headers (offset 0) and context chunks
// (offsets 64, 128, ...), S17 in Fig. 6.
func (d *Device) mmioWrite(phys uint64, src []byte) error {
	off := phys - d.mmioBase
	if off == 0 {
		return d.register(src)
	}
	// Context chunk for the in-flight registration.
	r := &d.reg
	if r.rec == nil {
		return fmt.Errorf("core: context write with no registration in flight")
	}
	r.ctx = append(r.ctx, src[:min(r.ctxLen-len(r.ctx), dram.CachelineSize)]...)
	if len(r.ctx) >= r.ctxLen {
		return d.finishRegistration()
	}
	return nil
}

// register parses a 64-byte registration header.
func (d *Device) register(src []byte) error {
	if len(src) < dram.CachelineSize {
		return fmt.Errorf("core: short registration write")
	}
	if binary.LittleEndian.Uint16(src[0:]) != regMagic {
		return fmt.Errorf("core: bad registration magic")
	}
	if src[2] == opAbort {
		d.abortByPage(binary.LittleEndian.Uint64(src[8:]))
		return nil
	}
	op := Opcode(src[2])
	ctxLen := int(binary.LittleEndian.Uint16(src[4:]))
	pageIndex := int(binary.LittleEndian.Uint16(src[6:]))
	sbufPage := binary.LittleEndian.Uint64(src[8:])
	dbufPage := binary.LittleEndian.Uint64(src[16:])
	recordLen := int(binary.LittleEndian.Uint32(src[24:]))
	ctxPage := binary.LittleEndian.Uint64(src[28:])
	d.stats.Registrations++

	// Re-registering a page whose previous offload never fully recycled
	// (e.g. an S7-ignored writeback left lines stranded in the
	// Scratchpad) implicitly retires the stale allocation: by reusing
	// the buffer the software has declared the old record's content
	// consumed, so dropping the un-written-back lines is safe.
	d.evictStale(sbufPage)
	d.evictStale(dbufPage)
	if d.tt.Contains(sbufPage) || d.tt.Contains(dbufPage) {
		return fmt.Errorf("core: page still registered after stale eviction (sbuf %#x / dbuf %#x)", sbufPage, dbufPage)
	}

	var rec *record
	if pageIndex == 0 {
		if recordLen <= 0 {
			return fmt.Errorf("core: record length %d invalid", recordLen)
		}
	} else {
		var ok bool
		rec, ok = d.records[ctxPage]
		if !ok {
			return fmt.Errorf("core: page %d references unknown record %#x", pageIndex, ctxPage)
		}
		if pageIndex != len(rec.srcPages) {
			return fmt.Errorf("core: out-of-order page registration %d", pageIndex)
		}
	}
	if d.cfgFree == 0 || d.sp.freePages() == 0 {
		return ErrNoScratchpad
	}
	if pageIndex == 0 {
		rec = d.newRecord(op, recordLen)
		d.records[sbufPage] = rec
	}
	d.cfgFree--
	spIdx := d.sp.alloc(dbufPage, rec)
	// Lines beyond the record's destination coverage in this page can
	// never be produced by the DSA; pre-mark them recycled so the page
	// retires once the covered lines are written back.
	covered := destCoverage(op, recordLen, pageIndex)
	sp := d.sp.pages[spIdx]
	for l := (covered + dram.CachelineSize - 1) / dram.CachelineSize; l < LinesPerPage; l++ {
		sp.state[l] = lineRecycled
		sp.remaining--
	}
	rec.srcPages = append(rec.srcPages, sbufPage)
	rec.destPages = append(rec.destPages, dbufPage)

	if d.Faults.Fire("core.ttinsert", int64(d.stats.Registrations)) {
		d.failRegistration(rec, spIdx, pageIndex)
		return fmt.Errorf("core: translation insert (injected): %w", ErrTranslationInsert)
	}
	if err := d.track(sbufPage, translation{isSource: true, pageIndex: pageIndex, rec: rec}); err != nil {
		d.failRegistration(rec, spIdx, pageIndex)
		return fmt.Errorf("core: translation insert (%v): %w", err, ErrTranslationInsert)
	}
	if err := d.track(dbufPage, translation{spIdx: spIdx, rec: rec}); err != nil {
		tr, _ := d.tt.Lookup(sbufPage)
		d.untrack(sbufPage, tr)
		d.failRegistration(rec, spIdx, pageIndex)
		return fmt.Errorf("core: translation insert (%v): %w", err, ErrTranslationInsert)
	}

	if pageIndex == 0 {
		d.reg = regState{rec: rec, ctxLen: ctxLen, ctx: d.reg.ctx[:0]}
		if ctxLen == 0 {
			return d.finishRegistration()
		}
	}
	return nil
}

// failRegistration unwinds a page registration that could not complete:
// its Config Memory and Scratchpad allocations return to the free lists
// and the record forgets the page, so nothing leaks on the error path.
// A record that fails on its first page is retired outright. (Earlier
// pages of a multi-page record stay registered; the driver aborts the
// whole record when registration fails partway.)
func (d *Device) failRegistration(rec *record, spIdx, pageIndex int) {
	d.cfgFree++
	d.sp.release(spIdx)
	if pageIndex == 0 {
		delete(d.records, rec.srcPages[0])
		d.freeRecord(rec)
		return
	}
	rec.srcPages = rec.srcPages[:pageIndex]
	rec.destPages = rec.destPages[:pageIndex]
}

// destCoverage returns how many bytes of the destination page at
// pageIndex the DSA will produce: TLS output matches the record length
// (payload + trailer); the page-granular (de)compression DSAs always
// fill whole pages.
func destCoverage(op Opcode, recordLen, pageIndex int) int {
	switch op {
	case OpTLSEncrypt, OpTLSDecrypt:
		n := recordLen - pageIndex*PageSize
		if n < 0 {
			n = 0
		}
		if n > PageSize {
			n = PageSize
		}
		return n
	default:
		return PageSize
	}
}

// finishRegistration builds the DSA from the accumulated context; a
// compression record adopts the unit hinted for its source page.
func (d *Device) finishRegistration() error {
	rec := d.reg.rec
	d.reg.rec = nil
	dsa, err := buildDSA(rec.op, rec.length, d.reg.ctx, d.keys, &d.enc, rec.srcPages[0])
	if err != nil {
		d.stats.DSAErrors++
		d.abortRecord(rec)
		return fmt.Errorf("core: DSA build: %w", err)
	}
	rec.dsa = dsa
	return nil
}
