// Package memsys composes the LLC model, memory controllers and DIMM
// modules into the host memory system the rest of the reproduction
// drives: cached reads/writes from cores, DDIO DMA writes from devices,
// cache-line flushes, memory barriers, and uncached MMIO accesses to
// SmartDIMM's config space.
//
// Address space layout follows the AxDIMM prototype's single-channel
// mode (§V, §VI): each DIMM module owns a contiguous physical range, so
// 4KB pages map entirely to one DIMM.
package memsys

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/memctrl"
)

// Latencies (in picoseconds) for the non-DRAM components of an access.
// DRAM time comes from the memctrl timing model.
const (
	LLCHitPs     = 20_000 // ~20ns LLC hit
	LLCMissTagPs = 5_000  // tag check before going to memory
	FlushBasePs  = 4_000  // per-line clflush issue cost
	MMIOPs       = 80_000 // uncached MMIO round trip
)

// Channel binds one memory controller to one DIMM module.
type Channel struct {
	Ctl *memctrl.Controller
	Mod dram.Module
	// Base is the start of this channel's physical range.
	Base uint64
	Size uint64
}

// Hierarchy is the host memory system: one shared LLC in front of one or
// more channels.
type Hierarchy struct {
	LLC      *cache.Cache
	Channels []Channel

	// Clock, when set (the discrete-event engine's Now), enables the
	// bandwidth-contention model: DRAM demand from all actors within a
	// window inflates access latencies M/M/1-style. This is what makes
	// co-running workloads interfere through the memory channel (the
	// Table I mechanism) beyond plain LLC capacity contention.
	Clock func() int64

	winStartPs int64
	winBusyPs  int64
	loadFactor float64

	// tail is the zero-filled last line of a bulk write whose length is
	// not a line multiple. A stack array would escape: the walker hands
	// the same line slice to the reads, whose dst leaks into the
	// controller.
	tail [dram.CachelineSize]byte
}

// Contention-model constants: the pure burst occupancy of one 64-byte
// access on a DDR4-3200 channel, the averaging window, and the maximum
// modelled utilization (queueing theory blows up at 1.0).
const (
	burstBusyPs     = 2_500
	contentionWinPs = 100 * 1000 * 1000 // 100us
	maxRho          = 0.85
)

// accountDRAM records channel demand and returns the latency inflated by
// the current load factor.
func (h *Hierarchy) accountDRAM(latPs int64, accesses int) int64 {
	if h.Clock == nil {
		return latPs
	}
	now := h.Clock()
	if h.winStartPs == 0 {
		h.winStartPs = now
		h.loadFactor = 1
	}
	if elapsed := now - h.winStartPs; elapsed >= contentionWinPs {
		rho := float64(h.winBusyPs) / float64(elapsed) / float64(len(h.Channels))
		if rho > maxRho {
			rho = maxRho
		}
		h.loadFactor = 1 / (1 - rho)
		h.winStartPs = now
		h.winBusyPs = 0
	}
	h.winBusyPs += int64(accesses) * burstBusyPs
	if h.loadFactor <= 1 {
		return latPs
	}
	return int64(float64(latPs) * h.loadFactor)
}

// LoadFactor exposes the current contention multiplier (for tests).
func (h *Hierarchy) LoadFactor() float64 {
	if h.loadFactor < 1 {
		return 1
	}
	return h.loadFactor
}

// New builds a hierarchy over the given channels; channel bases are
// assigned contiguously in order.
func New(llc *cache.Cache, chans ...Channel) (*Hierarchy, error) {
	if len(chans) == 0 {
		return nil, fmt.Errorf("memsys: need at least one channel")
	}
	base := uint64(0)
	for i := range chans {
		geo := chans[i].Mod.Mapper().Geometry()
		chans[i].Base = base
		chans[i].Size = geo.CapacityBytes()
		base += chans[i].Size
	}
	return &Hierarchy{LLC: llc, Channels: chans}, nil
}

// route returns the channel and channel-local address for phys.
func (h *Hierarchy) route(phys uint64) (*Channel, uint64, error) {
	for i := range h.Channels {
		c := &h.Channels[i]
		if phys >= c.Base && phys < c.Base+c.Size {
			return c, phys - c.Base, nil
		}
	}
	return nil, 0, fmt.Errorf("memsys: address %#x unmapped", phys)
}

// ChannelOf returns the index of the channel serving phys (for tests and
// the single-channel-mapping checks of §V-D).
func (h *Hierarchy) ChannelOf(phys uint64) (int, error) {
	ch, _, err := h.route(phys)
	if err != nil {
		return -1, err
	}
	for i := range h.Channels {
		if &h.Channels[i] == ch {
			return i, nil
		}
	}
	return -1, fmt.Errorf("memsys: channel not found")
}

// writeback pushes a dirty victim to its channel.
func (h *Hierarchy) writeback(v *cache.Victim) error {
	ch, local, err := h.route(v.Addr)
	if err != nil {
		return err
	}
	h.accountDRAM(0, 1) // posted write: consumes bandwidth, adds no latency
	_, err = ch.Ctl.Write(local, -1, v.Data[:])
	return err
}

// Read64 performs a cached 64-byte read. It returns the modelled latency
// in picoseconds.
func (h *Hierarchy) Read64(core int, addr uint64, dst []byte) (int64, error) {
	addr &^= dram.CachelineSize - 1
	if h.LLC.Read(addr, cache.ClassCPU, dst) {
		return LLCHitPs, nil
	}
	ch, local, err := h.route(addr)
	if err != nil {
		return 0, err
	}
	start := ch.Ctl.Now()
	done, err := ch.Ctl.Read(local, core, dst)
	if err != nil {
		return 0, err
	}
	if v, ok := h.LLC.Fill(addr, cache.ClassCPU, dst); ok && v.Dirty {
		if err := h.writeback(&v); err != nil {
			return 0, err
		}
	}
	lat := LLCMissTagPs + h.accountDRAM(ch.Ctl.CycleToPs(done-start), 1)
	return lat, nil
}

// Write64 performs a cached full-line store (write-allocate without
// fetch, since the whole line is overwritten). Latency in picoseconds.
func (h *Hierarchy) Write64(core int, addr uint64, src []byte) (int64, error) {
	addr &^= dram.CachelineSize - 1
	if h.LLC.Write(addr, cache.ClassCPU, src) {
		return LLCHitPs, nil
	}
	if v, ok := h.LLC.FillDirty(addr, cache.ClassCPU, src); ok && v.Dirty {
		if err := h.writeback(&v); err != nil {
			return 0, err
		}
	}
	return LLCHitPs, nil
}

// DMAWrite64 models a device delivering one cacheline via DDIO: the line
// allocates into the DMA ways of the LLC; evicted dirty lines leak to
// DRAM — the Observation 3 mechanism.
func (h *Hierarchy) DMAWrite64(addr uint64, src []byte) error {
	addr &^= dram.CachelineSize - 1
	if v, ok := h.LLC.FillDirty(addr, cache.ClassDMA, src); ok && v.Dirty {
		return h.writeback(&v)
	}
	return nil
}

// PeerDMAWrite64 models an RDMA-capable NIC writing one cacheline
// directly into device-adjacent memory (peer DMA / PCIe peer-to-peer):
// the store bypasses the LLC's DDIO ways entirely and is issued to the
// owning channel's controller, so rank timing and the channel bandwidth
// meter price the deposit. Stale cached copies of the line are
// invalidated, not written back — the target region is device-owned
// (an RDMA MR inside a SmartDIMM lower-half buffer) and the peer write
// wins by protocol, exactly like a DMA overwrite of an uncached region.
func (h *Hierarchy) PeerDMAWrite64(addr uint64, src []byte) (int64, error) {
	addr &^= dram.CachelineSize - 1
	h.LLC.FlushRange(addr, dram.CachelineSize, nil)
	ch, local, err := h.route(addr)
	if err != nil {
		return 0, err
	}
	start := ch.Ctl.Now()
	done, err := ch.Ctl.Write(local, -1, src)
	if err != nil {
		return 0, err
	}
	return h.accountDRAM(ch.Ctl.CycleToPs(done-start), 1), nil
}

// DMARead64 models a device reading one cacheline (NIC TX DMA): served
// from the LLC when present, otherwise from DRAM without allocation.
func (h *Hierarchy) DMARead64(addr uint64, dst []byte) (int64, error) {
	addr &^= dram.CachelineSize - 1
	if h.LLC.Read(addr, cache.ClassDMA, dst) {
		return LLCHitPs, nil
	}
	ch, local, err := h.route(addr)
	if err != nil {
		return 0, err
	}
	start := ch.Ctl.Now()
	done, err := ch.Ctl.Read(local, -1, dst)
	if err != nil {
		return 0, err
	}
	return h.accountDRAM(ch.Ctl.CycleToPs(done-start), 1), nil
}

// Flush performs clflush over [addr, addr+size): dirty lines are written
// back, all lines invalidated, and the affected channels' write queues
// drained so the data is observable at the DIMM (clflush + sfence).
// It returns the modelled latency in picoseconds; per §IV-A this is
// substantially cheaper when the range is not cached.
func (h *Hierarchy) Flush(addr uint64, size int) (int64, error) {
	lines := (size + dram.CachelineSize - 1) / dram.CachelineSize
	lat := int64(lines) * FlushBasePs
	// The CPU spends real time issuing clflush per line; advance the
	// controllers so the resulting writebacks carry those cycles. This
	// is also what keeps the S7 race of Fig. 6 rare: by the time the
	// flush-induced wrCAS reaches the DIMM, the DSA result is ready.
	for i := range h.Channels {
		ctl := h.Channels[i].Ctl
		ctl.AdvanceTo(ctl.Now() + lat/ctl.CycleToPs(1))
	}
	var wbErr error
	dirty := 0
	h.LLC.FlushRange(addr, size, func(v *cache.Victim) {
		dirty++
		if err := h.writeback(v); err != nil && wbErr == nil {
			wbErr = err
		}
	})
	if wbErr != nil {
		return 0, wbErr
	}
	if dirty > 0 {
		for i := range h.Channels {
			start := h.Channels[i].Ctl.Now()
			done, err := h.Channels[i].Ctl.DrainWrites()
			if err != nil {
				return 0, err
			}
			lat += h.Channels[i].Ctl.CycleToPs(done - start)
		}
	}
	return lat, nil
}

// Membar drains every channel's write queue — the fence CompCpy inserts
// between ordered 64-byte copies (Algorithm 2, lines 25-28).
func (h *Hierarchy) Membar() error {
	for i := range h.Channels {
		if _, err := h.Channels[i].Ctl.DrainWrites(); err != nil {
			return err
		}
	}
	return nil
}

// MMIOWrite performs an uncached 64-byte write (WC/UC mapping of the
// SmartDIMM config space). It bypasses the LLC and the write queue so
// the device observes it immediately and in order.
func (h *Hierarchy) MMIOWrite(addr uint64, src []byte) (int64, error) {
	ch, local, err := h.route(addr)
	if err != nil {
		return 0, err
	}
	if _, err := ch.Ctl.Write(local, -1, src); err != nil {
		return 0, err
	}
	if _, err := ch.Ctl.DrainWrites(); err != nil {
		return 0, err
	}
	return MMIOPs, nil
}

// MMIORead performs an uncached 64-byte read from config space.
func (h *Hierarchy) MMIORead(addr uint64, dst []byte) (int64, error) {
	ch, local, err := h.route(addr)
	if err != nil {
		return 0, err
	}
	if _, err := ch.Ctl.Read(local, -1, dst); err != nil {
		return 0, err
	}
	return MMIOPs, nil
}
