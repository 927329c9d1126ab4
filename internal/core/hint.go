package core

import (
	"slices"
	"sync/atomic"

	"repro/internal/deflate"
)

// A compression record's datapath, deflate plus framing, starts from a
// hint, before the record registers. A request's payload is staged in
// the server's parse stage and registered by CompCpy only in its ULP
// stage, after waiting in the server's queue (deflate4k-dimm: 2.2 ms of
// host time at the median, against ~50 us to frame a page). So when
// the server has staged a record, it passes the device the bytes
// (Driver.Staged, Device.Hint); the device copies them into a work unit
// and queues the unit's framing on the datapath pool. The record that
// later registers the same source page and length adopts the unit. The
// hint is only a prediction: the claim's last line checks the fed bytes
// against the unit's snapshot, and frames the fed bytes inline when
// they differ or no worker framed the snapshot. The hint makes no
// memory access, consults no fault, draws no random number and
// moves no counter, so it can never change a byte, a readyAt or a KPI.

// maxUnits bounds the hinted units a device holds; a hint that finds
// the device full is skipped, and its record frames inline. Each unit
// is ~5.5 KB on deflate4k-dimm (a 4 KB snapshot and the compact framed
// page). Three repetitions of that workload's spec (64 connections, one
// page-sized record per request; 2-vCPU host, seed 1) counted the share
// of hints whose record adopted the unit: 25% at 8 units, 50% at 16,
// 74% at 24, 96% at 32 and 99% at 48 or 64. The bench's live_heap_mb,
// 5.748 without hints, read 5.79, 5.85, 5.90, 5.95, 6.05 and 6.15 at
// those bounds: 32 units cost +3.5%, 48 already +5.2%.
const maxUnits = 32

// staleHints is the age, in hints the device has taken since, past
// which a unit whose page never registered (its request failed before
// CompCpy, or its connection moved or closed) gives up its slot to a
// new hint. An adopted unit lives about one pass of the server's
// queue, at most a few tens of hints, and no unit reached this age in
// the runs above.
const staleHints = 8 * maxUnits

// minCompressHandOff is the smallest compression input a hint starts a
// unit for; smaller records frame inline at their last line, like the
// 4-byte second record of each deflate4k-dimm request. Hinting those
// too gave each request two units: in the runs above, at 32 units, only
// 51% of the page-sized records then adopted one.
const minCompressHandOff = PageSize / 2

// frameUnit is one hinted compression: the snapshot of the staged bytes
// a worker frames, keyed by the source page and length a record must
// register with to adopt it, and the framed page, header plus
// payload, compact (empty until a worker framed the snapshot). It holds
// no encoder: each worker keeps its own framer.
type frameUnit struct {
	// phase is the unit's hand-off word, tagged with gen (datapath.go);
	// each hint queues a new incarnation.
	phase  atomic.Uint64
	gen    uint64
	page   uint64
	length int
	// hinted is the device's hint count when the unit was hinted.
	hinted uint64
	framed []byte
	snap   [PageSize]byte
}

// phaseWord and run make a unit a job: framing its snapshot.
func (u *frameUnit) phaseWord() *atomic.Uint64 { return &u.phase }

func (u *frameUnit) run(f *framer) {
	u.framed = append(u.framed[:0], f.frame(u.snap[:u.length])...)
}

// framer frames pages: an encoder of the paper's configuration, built
// on the first page, and the page it frames into. The device's thread
// keeps one for the records it frames inline, and each pool worker
// keeps one of its own.
type framer struct {
	enc  *deflate.HWEncoder
	page [PageSize]byte
}

// frame frames src (at most MaxCompressInput bytes) and returns the
// framed prefix of the framer's page.
func (f *framer) frame(src []byte) []byte {
	if f.enc == nil {
		f.enc = deflate.NewHWEncoder(deflate.PaperHWConfig())
	}
	return framePage(&f.page, src, f.enc)
}

// Hint tells the device that src is staged, ahead of its CompCpy, as
// the source of a record of context ctx whose first source page is
// page. For a compression record of at least minCompressHandOff bytes
// it snapshots src into a work unit and queues the unit's framing on
// the datapath pool. Any other record, a hint the device has no room
// for, and every hint at GOMAXPROCS=1 (no pool) are dropped. Hint
// touches no simulated state.
func (d *Device) Hint(page uint64, ctx OffloadContext, src []byte) {
	if ctx.Op != OpCompress || len(src) != ctx.Length || len(src) < minCompressHandOff ||
		len(src) > MaxCompressInput || !startDatapathPool() {
		return
	}
	d.enc.hint(datapathPool.jobs, page, src)
}

// hint starts a unit for src on page and queues it on jobs: a newer
// hint for the page replaces the older one's unit, and a full table
// gives up its oldest unit only once that unit is stale.
func (s *encoderSlot) hint(jobs chan<- settleJob, page uint64, src []byte) {
	s.hints++
	var u *frameUnit
	if i := s.find(page); i >= 0 {
		u = s.remove(i)
	} else if len(s.units) < maxUnits {
		u = takeFree(&s.spare)
	} else if s.hints-s.units[0].hinted > staleHints {
		u = s.remove(0)
	} else {
		return
	}
	reclaim(&u.phase, u.gen)
	u.page, u.length, u.hinted = page, len(src), s.hints
	u.framed = u.framed[:0]
	copy(u.snap[:], src)
	u.gen++
	if !enqueue(jobs, u, u.gen) {
		s.spare = append(s.spare, u)
		return
	}
	s.units = append(s.units, u)
}

// adopt hands the unit hinted for page to the record registering it,
// when the record's length is the hint's; a unit that does not match is
// given up.
func (s *encoderSlot) adopt(page uint64, length int) *frameUnit {
	i := s.find(page)
	if i < 0 {
		return nil
	}
	u := s.remove(i)
	if u.length != length {
		reclaim(&u.phase, u.gen)
		s.spare = append(s.spare, u)
		return nil
	}
	return u
}

// find returns the index of page's unit, or -1.
func (s *encoderSlot) find(page uint64) int {
	for i, u := range s.units {
		if u.page == page {
			return i
		}
	}
	return -1
}

// remove takes the unit at index i out of the table, keeping the rest
// in hint order. A worker may still be framing it.
func (s *encoderSlot) remove(i int) *frameUnit {
	u := s.units[i]
	s.units = slices.Delete(s.units, i, i+1)
	return u
}
