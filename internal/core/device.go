package core

import (
	"encoding/binary"
	"fmt"

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
	cfg      DeviceConfig
	chips    *dram.Chips
	mapper   *dram.Mapper
	bank     []int32 // the buffer device's own Bank Table (§IV-C)
	tt       *cuckoo.Table[*translation]
	sp       *scratchpad
	cm       *configMem
	mmioBase uint64
	// reg is the in-flight registration awaiting context bytes; the
	// CompCpy lock serializes registrations so a single cursor suffices.
	reg   *regState
	stats DeviceStats
	// records maps the record's first source page to its record for
	// multi-page attach.
	records map[uint64]*record
	// keys holds the TLS key schedules of recent records, at most one
	// per Config Memory page.
	keys *scheduleCache
	// enc holds the Deflate DSA encoder of the last compression record.
	enc encoderSlot
	// lines is the buffer every DSA appends its destination lines to;
	// feedDSA places them before the next source line is fed.
	lines []destLine
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
	rec     *record
	ctxLen  int
	rx      int
	cfgIdx  int
	srcPage uint64
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
		cfg:     cfg,
		chips:   chips,
		mapper:  chips.Mapper(),
		bank:    make([]int32, cfg.Geometry.TotalBanks()),
		tt:      cuckoo.New[*translation](3*(cfg.ScratchpadPages+cfg.ConfigPages), cuckoo.DefaultWays, cuckoo.DefaultCAMEntries),
		sp:      newScratchpad(cfg.ScratchpadPages),
		cm:      newConfigMem(cfg.ConfigPages),
		records: make(map[uint64]*record),
		keys:    newScheduleCache(cfg.ConfigPages),
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

// MMIOBase returns the channel-local base address of the config space.
func (d *Device) MMIOBase() uint64 { return d.mmioBase }

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

// PendingPages returns the destination pages not yet fully recycled.
func (d *Device) PendingPages() []uint64 { return d.sp.pendingPages() }

// TranslationStats exposes the cuckoo table statistics for the §IV-C
// ablation.
func (d *Device) TranslationStats() cuckoo.Stats { return d.tt.Stats() }

// ConfigFreePages returns the free Config Memory page count (the chaos
// soak's conservation invariant reads it alongside ScratchpadFreePages).
func (d *Device) ConfigFreePages() int { return d.cm.freePages() }

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
	page := phys / PageSize
	tr, ok := d.tt.Lookup(page)
	if !ok {
		d.stats.NormalReads++
		return false, d.chips.Read(cmd, rdata)
	}
	if tr.isSource {
		// S6: pass the data through and feed the DSA.
		if err := d.chips.Read(cmd, rdata); err != nil {
			return false, err
		}
		d.stats.SourceReads++
		d.feedDSA(cycle, tr, phys, rdata)
		return false, nil
	}
	// Destination page: S8-S13.
	sp := &d.sp.pages[tr.spIdx]
	lineIdx := int(phys%PageSize) / dram.CachelineSize
	switch sp.state[lineIdx] {
	case lineRecycled:
		d.stats.NormalReads++
		return false, d.chips.Read(cmd, rdata)
	case lineReady:
		if cycle < sp.readyAt[lineIdx] {
			d.stats.Alerts++ // S13: result still in the DSA pipeline
			return true, nil
		}
		// S10: serve from the Scratchpad; the line stays pending until a
		// writeback recycles it.
		off := lineIdx * dram.CachelineSize
		copy(rdata, sp.data[off:off+dram.CachelineSize])
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
	page := phys / PageSize
	tr, ok := d.tt.Lookup(page)
	if !ok {
		d.stats.NormalWrites++
		return false, d.chips.Write(cmd, wdata)
	}
	if tr.isSource {
		// Writes into a registered source range pass through; mutating a
		// source mid-offload is an API violation the stats surface.
		d.stats.SourceWrites++
		return false, d.chips.Write(cmd, wdata)
	}
	sp := &d.sp.pages[tr.spIdx]
	lineIdx := int(phys%PageSize) / dram.CachelineSize
	switch sp.state[lineIdx] {
	case lineReady:
		if cycle < sp.readyAt[lineIdx] {
			d.stats.IgnoredWrites++ // S7: result not out of the pipeline yet
			return false, nil
		}
		// Self-Recycle (§IV-B): replace the wrCAS data with the
		// Scratchpad's, write to DRAM, and invalidate the Scratchpad line.
		off := lineIdx * dram.CachelineSize
		if err := d.chips.Write(cmd, sp.data[off:off+dram.CachelineSize]); err != nil {
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
		return false, d.chips.Write(cmd, wdata)
	}
}

// feedDSA sends one source cacheline to the record's DSA and stores the
// produced destination lines in the Scratchpad.
func (d *Device) feedDSA(cycle int64, tr *translation, phys uint64, data []byte) {
	rec := tr.rec
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
	lines, err := rec.dsa.ProcessSourceLine(recOff, data[:end-recOff], d.lines[:0])
	if err != nil {
		d.stats.DSAErrors++
		d.abortRecord(rec)
		return
	}
	d.lines = lines
	if t, ok := rec.dsa.(*tlsDSA); ok && t.AuthFailed() {
		d.stats.AuthFailures++
	}
	for i := range lines {
		d.placeDestLine(cycle, rec, &lines[i])
	}
}

// placeDestLine stores one DSA output line into the Scratchpad page of
// the destination page that covers its record offset.
func (d *Device) placeDestLine(cycle int64, rec *record, dl *destLine) {
	pageIdx := dl.RecOff / PageSize
	if pageIdx >= len(rec.destPages) {
		d.stats.DSAErrors++
		return
	}
	tr, ok := d.tt.Lookup(rec.destPages[pageIdx])
	if !ok || tr.isSource {
		d.stats.DSAErrors++
		return
	}
	sp := &d.sp.pages[tr.spIdx]
	off := dl.RecOff % PageSize
	lineIdx := off / dram.CachelineSize
	copy(sp.data[off:off+dram.CachelineSize], dl.Data[:])
	if sp.state[lineIdx] == linePending {
		sp.state[lineIdx] = lineReady
		sp.readyAt[lineIdx] = cycle + dsaLatencyCycles
	}
}

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
		d.cm.release(tr.cfgIdx)
		d.tt.Delete(page)
		return
	}
	sp := &d.sp.pages[tr.spIdx]
	d.retirePage(tr, sp)
}

// retirePage frees a fully recycled Scratchpad page and, when the whole
// record is done, its Config Memory pages and source translations.
func (d *Device) retirePage(tr *translation, sp *spPage) {
	rec := sp.rec
	d.tt.Delete(sp.dbufPage)
	d.sp.release(tr.spIdx)
	d.stats.PagesRecycled++
	d.traceInstant("page-recycled")
	rec.donePages++
	if rec.donePages == len(rec.destPages) {
		for _, src := range rec.srcPages {
			// Only drop translations still belonging to this record — a
			// buffer-reusing successor may have registered the same page.
			if st, ok := d.tt.Lookup(src); ok && st.isSource && st.rec == rec {
				d.cm.release(st.cfgIdx)
				d.tt.Delete(src)
			}
		}
		if d.records[rec.srcPages[0]] == rec {
			delete(d.records, rec.srcPages[0])
		}
	}
}

// abortRecord tears down an in-flight offload after a DSA fault or a
// driver-issued abort op: every translation, Scratchpad page and Config
// Memory page of the record is freed, so its buffers behave like a plain
// DIMM again (no stranded pending lines asserting ALERT_N forever).
func (d *Device) abortRecord(rec *record) {
	for _, dp := range rec.destPages {
		if tr, ok := d.tt.Lookup(dp); ok && !tr.isSource && tr.rec == rec {
			d.sp.release(tr.spIdx)
			d.tt.Delete(dp)
		}
	}
	for _, sp := range rec.srcPages {
		if tr, ok := d.tt.Lookup(sp); ok && tr.isSource && tr.rec == rec {
			d.cm.release(tr.cfgIdx)
			d.tt.Delete(sp)
		}
	}
	if len(rec.srcPages) > 0 && d.records[rec.srcPages[0]] == rec {
		delete(d.records, rec.srcPages[0])
	}
	if d.reg != nil && d.reg.rec == rec {
		d.reg = nil
	}
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
	if tr, ok := d.tt.Lookup(page); ok && tr.rec != nil {
		d.abortRecord(tr.rec)
	}
}

// --- MMIO config space ---------------------------------------------------

// mmioRead serves status (offset 0) and the pending-page list (offsets
// 64, 128, ...; eight page numbers per 64-byte read).
func (d *Device) mmioRead(phys uint64, cmd dram.Command, dst []byte) error {
	off := phys - d.mmioBase
	for i := 0; i < dram.CachelineSize; i++ {
		dst[i] = 0
	}
	if off == 0 {
		binary.LittleEndian.PutUint64(dst[0:], uint64(d.sp.freePages()))
		pend := d.sp.pendingPages()
		binary.LittleEndian.PutUint64(dst[8:], uint64(len(pend)))
		binary.LittleEndian.PutUint64(dst[16:], d.stats.AuthFailures)
		binary.LittleEndian.PutUint64(dst[24:], uint64(d.sp.occupancyBytes()))
		return nil
	}
	chunk := int(off/dram.CachelineSize) - 1
	pend := d.sp.pendingPages()
	for i := 0; i < 8; i++ {
		idx := chunk*8 + i
		if idx >= len(pend) {
			break
		}
		binary.LittleEndian.PutUint64(dst[i*8:], pend[idx])
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
	if d.reg == nil {
		return fmt.Errorf("core: context write with no registration in flight")
	}
	r := d.reg
	take := r.ctxLen - r.rx
	if take > dram.CachelineSize {
		take = dram.CachelineSize
	}
	cp := &d.cm.pages[r.cfgIdx]
	cp.raw = append(cp.raw, src[:take]...)
	r.rx += take
	if r.rx >= r.ctxLen {
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
		rec = &record{
			op:        op,
			length:    recordLen,
			processed: make([]bool, (recordLen+dram.CachelineSize-1)/dram.CachelineSize),
		}
		d.records[sbufPage] = rec
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

	cfgIdx := d.cm.alloc(rec)
	if cfgIdx == -1 {
		if pageIndex == 0 {
			delete(d.records, sbufPage)
		}
		return ErrNoScratchpad
	}
	spIdx := d.sp.alloc(dbufPage, rec)
	if spIdx == -1 {
		d.cm.release(cfgIdx)
		if pageIndex == 0 {
			delete(d.records, sbufPage)
		}
		return ErrNoScratchpad
	}
	// Lines beyond the record's destination coverage in this page can
	// never be produced by the DSA; pre-mark them recycled so the page
	// retires once the covered lines are written back.
	covered := destCoverage(op, recordLen, pageIndex)
	sp := &d.sp.pages[spIdx]
	for l := (covered + dram.CachelineSize - 1) / dram.CachelineSize; l < LinesPerPage; l++ {
		sp.state[l] = lineRecycled
		sp.remaining--
	}
	if pageIndex == 0 {
		rec.cfgIdx = cfgIdx
	}
	rec.srcPages = append(rec.srcPages, sbufPage)
	rec.destPages = append(rec.destPages, dbufPage)

	srcTr := &translation{isSource: true, cfgIdx: cfgIdx, destPage: dbufPage, pageIndex: pageIndex, rec: rec}
	if d.Faults.Fire("core.ttinsert", int64(d.stats.Registrations)) {
		d.failRegistration(rec, cfgIdx, spIdx, pageIndex)
		return fmt.Errorf("core: translation insert (injected): %w", ErrTranslationInsert)
	}
	if err := d.tt.Insert(sbufPage, srcTr); err != nil {
		d.failRegistration(rec, cfgIdx, spIdx, pageIndex)
		return fmt.Errorf("core: translation insert (%v): %w", err, ErrTranslationInsert)
	}
	dstTr := &translation{spIdx: spIdx, rec: rec}
	if err := d.tt.Insert(dbufPage, dstTr); err != nil {
		d.tt.Delete(sbufPage)
		d.failRegistration(rec, cfgIdx, spIdx, pageIndex)
		return fmt.Errorf("core: translation insert (%v): %w", err, ErrTranslationInsert)
	}

	if pageIndex == 0 {
		d.reg = &regState{rec: rec, ctxLen: ctxLen, cfgIdx: cfgIdx, srcPage: sbufPage}
		if ctxLen == 0 {
			return d.finishRegistration()
		}
	}
	return nil
}

// failRegistration unwinds a page registration that could not complete:
// its Config Memory and Scratchpad allocations return to the free lists
// and the record forgets the page, so nothing leaks on the error path.
// (Earlier pages of a multi-page record stay registered; the driver
// aborts the whole record when registration fails partway.)
func (d *Device) failRegistration(rec *record, cfgIdx, spIdx, pageIndex int) {
	d.cm.release(cfgIdx)
	d.sp.release(spIdx)
	rec.srcPages = rec.srcPages[:pageIndex]
	rec.destPages = rec.destPages[:pageIndex]
	if pageIndex == 0 && len(rec.srcPages) == 0 {
		for page, r := range d.records {
			if r == rec {
				delete(d.records, page)
			}
		}
	}
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

// finishRegistration builds the DSA from the accumulated context.
func (d *Device) finishRegistration() error {
	r := d.reg
	d.reg = nil
	dsa, err := buildDSA(r.rec.op, r.rec.length, d.cm.pages[r.cfgIdx].raw, d.keys, &d.enc)
	if err != nil {
		d.stats.DSAErrors++
		d.abortRecord(r.rec)
		return fmt.Errorf("core: DSA build: %w", err)
	}
	r.rec.dsa = dsa
	return nil
}
