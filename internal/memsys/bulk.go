package memsys

import (
	"slices"

	"repro/internal/dram"
)

// mlp is the memory-level parallelism of a bulk access (DESIGN §7): an
// out-of-order core, or a NIC's DMA engine, keeps several cacheline
// misses outstanding, so an N-line stream costs its summed per-line
// latency divided by mlp, not the serial sum. Without it a pure-copy
// path (CompCpy) is unrealistically penalized against a compute-bound
// one.
const mlp = 4

// Overlap returns the time of a bulk access whose per-line latencies
// sum to sum. It is the one place the overlap rule is applied: the
// bulk forms below and CompCpy's copy loop (which walks its lines
// itself, because the DSA must see each Read64 → Write64 in order)
// both charge through it.
func Overlap(sum int64) int64 { return sum / mlp }

// access names the per-line operation a bulk form walks.
type access uint8

const (
	cpuRead   access = iota // Read64
	cpuWrite                // Write64
	dmaRead                 // DMARead64
	dmaWrite                // DMAWrite64
	peerWrite               // PeerDMAWrite64
)

// Write stores data at addr through the cache (CPU stores), the bulk
// form of Write64. The last line's tail past len(data) is written as
// zeros. It returns the overlapped latency.
func (h *Hierarchy) Write(core int, addr uint64, data []byte) (int64, error) {
	_, sum, err := h.walk(cpuWrite, core, addr, data, len(data))
	return Overlap(sum), err
}

// Read reads n bytes at addr through the cache (CPU loads), the bulk
// form of Read64. It appends them to dst and returns the extended slice
// and the overlapped latency. A caller that needs only the latency
// passes a buffer it keeps, buf[:0]. On error dst comes back as passed.
func (h *Hierarchy) Read(dst []byte, core int, addr uint64, n int) ([]byte, int64, error) {
	dst, sum, err := h.walk(cpuRead, core, addr, dst, n)
	return dst, Overlap(sum), err
}

// DMAWrite models a device (NIC RX or storage) delivering data via
// DDIO, the bulk form of DMAWrite64.
func (h *Hierarchy) DMAWrite(addr uint64, data []byte) error {
	_, _, err := h.walk(dmaWrite, -1, addr, data, len(data))
	return err
}

// PeerDMAWrite models an RDMA NIC depositing data directly into
// device-adjacent memory, the bulk form of PeerDMAWrite64: every line
// goes to the owning rank's controller without touching the LLC's DDIO
// ways. The NIC's write engine keeps lines outstanding like a core, so
// the latency is overlapped.
func (h *Hierarchy) PeerDMAWrite(addr uint64, data []byte) (int64, error) {
	_, sum, err := h.walk(peerWrite, -1, addr, data, len(data))
	return Overlap(sum), err
}

// DMARead models NIC TX DMA reading n bytes at addr, the bulk form of
// DMARead64. Like Read it appends to dst, and the NIC's DMA engine
// pipelines outstanding reads, so the latency is overlapped.
func (h *Hierarchy) DMARead(dst []byte, addr uint64, n int) ([]byte, int64, error) {
	dst, sum, err := h.walk(dmaRead, -1, addr, dst, n)
	return dst, Overlap(sum), err
}

// walk runs op over the lines of [addr, addr+n) in address order and
// returns the summed per-line latency. A read appends the n bytes to
// buf, each line landing in buf's spare capacity; a write stores buf's
// n bytes, with the last line's tail zero-filled. On error buf comes
// back as passed.
func (h *Hierarchy) walk(op access, core int, addr uint64, buf []byte, n int) ([]byte, int64, error) {
	const line = dram.CachelineSize
	read := op == cpuRead || op == dmaRead
	start := len(buf)
	if read {
		buf = slices.Grow(buf, (n+line-1)/line*line)
	}
	var sum int64
	for off := 0; off < n; off += line {
		take := min(n-off, line)
		var b []byte
		switch {
		case read:
			b = buf[len(buf) : len(buf)+line]
		case take < line:
			clear(h.tail[copy(h.tail[:], buf[off:]):])
			b = h.tail[:]
		default:
			b = buf[off : off+line]
		}
		lat, err := h.accessLine(op, core, addr+uint64(off), b)
		if err != nil {
			return buf[:start], 0, err
		}
		sum += lat
		if read {
			buf = buf[:len(buf)+take]
		}
	}
	return buf, sum, nil
}

// accessLine runs one line of a bulk form.
func (h *Hierarchy) accessLine(op access, core int, addr uint64, b []byte) (int64, error) {
	switch op {
	case cpuRead:
		return h.Read64(core, addr, b)
	case cpuWrite:
		return h.Write64(core, addr, b)
	case dmaRead:
		return h.DMARead64(addr, b)
	case dmaWrite:
		return 0, h.DMAWrite64(addr, b)
	}
	return h.PeerDMAWrite64(addr, b)
}
