// Package core implements the paper's primary contribution: the
// SmartDIMM buffer device (§IV) and the CompCpy offload API (§IV-A,
// Algorithm 2). The buffer device is a dram.Module — it is "solely
// controlled by read and write commands received at the DIMM's buffer
// device" — that interposes between the memory controller and the DRAM
// chips:
//
//   - a Bank Table mirrors open rows from ACT/PRE commands so CAS
//     commands can be remapped to physical addresses (Addr Remap);
//   - a Translation Table (3-ary cuckoo hash + CAM, internal/cuckoo)
//     maps physical page numbers to Scratchpad or Config Memory pages;
//   - the Arbiter implements the Fig. 6 decision flow: feeding source
//     reads to the DSA, swapping destination writebacks with Scratchpad
//     contents (Self-Recycle), serving still-pending destination reads
//     from the Scratchpad (S10) or asserting ALERT_N (S13);
//   - Domain-Specific Accelerators perform TLS (de/en)cryption
//     (internal/aesgcm's out-of-order cacheline engine) and Deflate
//     (de)compression (internal/deflate's hardware-style encoder).
package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/dram"
)

// PageSize is the offload granularity (4KB OS pages).
const PageSize = dram.PageSize

// LinesPerPage is the number of 64-byte cachelines per page.
const LinesPerPage = PageSize / dram.CachelineSize

// lineState tracks one destination cacheline in the Scratchpad.
type lineState uint8

const (
	linePending  lineState = iota // DSA has not produced this line yet
	lineReady                     // result in Scratchpad, awaiting recycle
	lineRecycled                  // written back to DRAM, slot free
)

// spPage is one 4KB Scratchpad page holding a destination buffer's DSA
// results until LLC writebacks recycle them into DRAM. Only a lineReady
// line's bytes are ever read, and they are written before the line
// turns ready, so a reused page never needs its data cleared.
type spPage struct {
	inUse     bool
	dbufPage  uint64 // physical page number served by this scratchpad page
	data      [PageSize]byte
	state     [LinesPerPage]lineState
	readyAt   [LinesPerPage]int64 // DRAM cycle when the DSA result lands; valid while lineReady
	remaining int                 // lines not yet recycled
	rec       *record
}

// scratchpad manages the on-chip SRAM pages (§IV-B/C). A page is backed
// by host memory when a record first takes it; the free list is LIFO,
// so a run backs only as many pages as it ever holds at once.
type scratchpad struct {
	pages []*spPage // nil until the page's first alloc
	free  []int     // free page indices (LIFO)
}

func newScratchpad(nPages int) *scratchpad {
	s := &scratchpad{pages: make([]*spPage, nPages), free: make([]int, 0, nPages)}
	for i := nPages - 1; i >= 0; i-- {
		s.free = append(s.free, i)
	}
	return s
}

// alloc reserves a page for dbufPage, or returns -1 when full.
func (s *scratchpad) alloc(dbufPage uint64, rec *record) int {
	if len(s.free) == 0 {
		return -1
	}
	idx := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	p := s.pages[idx]
	if p == nil {
		p = new(spPage)
		s.pages[idx] = p
	}
	p.inUse, p.dbufPage, p.remaining, p.rec = true, dbufPage, LinesPerPage, rec
	p.state = [LinesPerPage]lineState{} // every line linePending
	return idx
}

// line returns the page's i-th 64-byte line.
func (p *spPage) line(i int) *[dram.CachelineSize]byte {
	return (*[dram.CachelineSize]byte)(p.data[i*dram.CachelineSize:])
}

// release returns a fully recycled page to the free list.
func (s *scratchpad) release(idx int) {
	p := s.pages[idx]
	p.inUse, p.rec = false, nil
	s.free = append(s.free, idx)
}

// freePages returns the number of available pages.
func (s *scratchpad) freePages() int { return len(s.free) }

// usedPages returns the number of allocated pages.
func (s *scratchpad) usedPages() int { return len(s.pages) - len(s.free) }

// occupancyBytes returns the bytes of Scratchpad currently holding
// un-recycled results — the quantity Fig. 10 plots.
func (s *scratchpad) occupancyBytes() int {
	n := 0
	for _, p := range s.pages {
		if p != nil && p.inUse {
			n += p.remaining * dram.CachelineSize
		}
	}
	return n
}

// pendingFrom fills dst with the physical page numbers of in-use (not
// fully recycled) destination pages, in page order from the skip-th
// one, and returns how many it filled: the list Force-Recycle reads from
// the MMIO config space (Algorithm 1), one chunk at a time.
func (s *scratchpad) pendingFrom(skip int, dst []uint64) int {
	n := 0
	for _, p := range s.pages {
		if n == len(dst) {
			break
		}
		if p == nil || !p.inUse {
			continue
		}
		if skip > 0 {
			skip--
			continue
		}
		dst[n] = p.dbufPage
		n++
	}
	return n
}

// translation is a Translation Table entry: the paper differentiates
// Config Memory and Scratchpad mappings with a single-bit flag; source
// entries also carry the page's index within the record. Entries are
// pooled by the device, as are records, so an entry names its record
// incarnation by (rec, gen).
type translation struct {
	isSource  bool
	pageIndex int // source pages: index of this page within the record
	spIdx     int // destination pages: Scratchpad page index
	rec       *record
	gen       uint64 // rec.gen when the entry was made
}

// owner returns the record the entry belongs to, or nil once that
// record has retired and its struct serves a later record.
func (tr *translation) owner() *record {
	if tr.rec == nil || tr.rec.gen != tr.gen {
		return nil
	}
	return tr.rec
}

// record is one in-flight offload: a ULP message spanning one or more
// 4KB pages, processed by one DSA instance. The device recycles retired
// records; gen counts the incarnations.
type record struct {
	// phase is the datapath hand-off word, tagged with gen
	// (datapath.go); it is the only field a worker reads without
	// owning the record.
	phase     atomic.Uint64
	op        Opcode
	dsa       dsaInstance
	srcPages  []uint64 // physical page numbers, record order
	destPages []uint64
	length    int // total record bytes
	// processed tracks which source cachelines have been fed to the DSA
	// (S6/S7 bookkeeping); indexed by record cacheline index.
	processed []bool
	fed       int // source cachelines fed to the DSA
	donePages int // destination pages fully recycled
	gen       uint64
}

func (r *record) String() string {
	return fmt.Sprintf("record(op=%v len=%d pages=%d)", r.op, r.length, len(r.srcPages))
}
