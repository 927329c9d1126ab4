// Package offload implements the four ULP accelerator placements the
// paper's evaluation compares (§VI): processing on the CPU with AES-NI,
// autonomous SmartNIC offload (ConnectX-6 style), PCIe-card offload
// (QuickAssist style), and SmartDIMM via CompCpy — all behind one
// Backend interface driven by the server model.
//
// Each backend executes its real memory traffic against the shared
// system model (internal/sim.System), so the CPU-utilization and
// memory-bandwidth numbers of Fig. 11/12 are measured, not asserted:
// the CPU path streams payloads through the LLC twice and pays compute
// time; the PCIe path pays descriptor/doorbell/poll latencies plus DMA
// passes; the SmartDIMM path pays CompCpy's copy and registration and
// nothing else.
package offload

import (
	"errors"
	"fmt"

	"repro/internal/aesgcm"
	"repro/internal/core"
	"repro/internal/deflate"
	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/ulp"
)

// Degradable reports whether a CompCpy failure is one the software
// stack recovers from by processing the chunk on the CPU instead:
// scratchpad exhaustion that Force-Recycle could not relieve, a
// translation-table insert failure, a DSA fault that aborted the
// record, or an ALERT_N retry budget burned by injected DRAM faults.
// Anything else (misuse, broken invariants) still propagates.
func Degradable(err error) bool {
	return errors.Is(err, core.ErrNoScratchpad) ||
		errors.Is(err, core.ErrTranslationInsert) ||
		errors.Is(err, core.ErrDSAFault) ||
		errors.Is(err, memctrl.ErrAlertRetryExhausted)
}

// ULP selects the upper-layer protocol being offloaded.
type ULP int

// The two ULPs of the paper's evaluation.
const (
	TLS ULP = iota
	Compression
)

// String names the ULP.
func (u ULP) String() string {
	if u == TLS {
		return "tls"
	}
	return "compression"
}

// MaxTLSPayload is the largest payload per TLS record: sized so that
// payload+tag is exactly four 4KB pages, keeping SmartDIMM records
// page-aligned with no overlap between consecutive records.
const MaxTLSPayload = 16384 - aesgcm.TagSize

// Layout describes how a message is split into ULP records and where
// each record's source and destination live within the connection
// buffers. All backends share one layout so their memory behaviour is
// comparable.
type Layout struct {
	MaxChunk  int // payload bytes per record
	SrcStride int // source bytes reserved per record (page multiple)
	DstStride int // destination bytes reserved per record (page multiple)
}

// LayoutFor returns the record layout of a ULP.
func LayoutFor(u ULP) Layout {
	if u == TLS {
		// Source: 16368B payload in a 16KB window. Destination: header +
		// ciphertext + tag needs 16389B; reserve 5 pages.
		return Layout{MaxChunk: MaxTLSPayload, SrcStride: 16384, DstStride: 20480}
	}
	return Layout{MaxChunk: core.MaxCompressInput, SrcStride: core.PageSize, DstStride: core.PageSize}
}

// Chunks returns the per-record payload sizes for a message.
func (l Layout) Chunks(payloadLen int) []int {
	var out []int
	for k := range l.records(payloadLen) {
		out = append(out, l.chunk(k, payloadLen))
	}
	return out
}

// records returns how many records a payloadLen-byte message takes. With
// chunk it is the allocation-free walk of Chunks every backend takes:
// record k carries chunk(k, payloadLen) bytes.
func (l Layout) records(payloadLen int) int {
	return (max(payloadLen, 0) + l.MaxChunk - 1) / l.MaxChunk
}

// chunk returns the payload bytes of record k of a payloadLen-byte
// message.
func (l Layout) chunk(k, payloadLen int) int {
	return min(payloadLen-k*l.MaxChunk, l.MaxChunk)
}

// chunkOf returns record k's part of payload.
func (l Layout) chunkOf(payload []byte, k int) []byte {
	off := k * l.MaxChunk
	return payload[off : off+l.chunk(k, len(payload))]
}

// BufBytes returns the buffer size needed for a message of msgSize.
func (l Layout) BufBytes(msgSize int) int {
	n := (msgSize + l.MaxChunk - 1) / l.MaxChunk
	if n == 0 {
		n = 1
	}
	stride := l.SrcStride
	if l.DstStride > stride {
		stride = l.DstStride
	}
	return n * stride
}

// Span is one destination region the NIC must DMA for transmission.
type Span struct {
	Off int // offset within conn.Dst
	Len int
}

// Result reports the cost breakdown of one ULP operation.
type Result struct {
	// CPUPs is CPU busy time charged to the worker core.
	CPUPs int64
	// DevicePs is time spent on the accelerator while the CPU waits
	// (synchronous offloads) — included in latency, not CPU utilization.
	DevicePs int64
	// TXBytes is the post-ULP byte count handed to the NIC.
	TXBytes int
	// Records is how many ULP records/chunks were produced.
	Records int
	// DstSpans lists the destination regions for NIC TX DMA. It may
	// share a buffer the backend reuses on its next Process call, so a
	// caller that keeps the spans copies them.
	DstSpans []Span
	// DstFlushNeeded marks destinations whose cached (stale) copies must
	// be flushed before TX DMA — the USE step of Algorithm 2. Only the
	// SmartDIMM path sets it; the flush is what recycles the Scratchpad
	// in the common case, and it happens at transmission time, not
	// inside Process, so Scratchpad pages live across the gap between
	// ULP processing and TCP transmission (the Fig. 10 dynamics).
	DstFlushNeeded bool
}

// WallPs is the latency contribution of the operation.
func (r Result) WallPs() int64 { return r.CPUPs + r.DevicePs }

// Conn is per-connection state: buffer addresses in the system's
// memory, the TLS session key material, and a record sequence counter.
type Conn struct {
	ID   int
	U    ULP
	Src  uint64 // staging buffer holding the (plain) payload
	Dst  uint64 // record buffer holding the ULP output
	Size int    // per-buffer size in bytes

	Key    []byte // fixed for the connection's lifetime
	ivBase [12]byte
	seq    uint64
	aead   *aesgcm.GCM // Key's codec, built on first use by gcm

	// State is the software compressor's per-connection state region
	// (zlib-style sliding window + hash tables). Only the CPU
	// compression path touches it; the Deflate DSA keeps its candidate
	// state in on-chip Config Memory instead (§V-B) — that asymmetry is
	// a large part of Fig. 12's memory-bandwidth gap.
	State      uint64
	StateBytes int

	onSmartDIMM bool
}

// NextIV derives the per-record nonce (TLS 1.3 xors the sequence number
// into the static IV).
func (c *Conn) NextIV() []byte {
	c.seq++
	return ulp.Nonce(c.ivBase, c.seq-1)
}

// gcm returns the connection's AES-GCM codec. The key never changes, so
// the key schedule and GHASH table are built once, not per record.
func (c *Conn) gcm() (*aesgcm.GCM, error) {
	if c.aead == nil {
		g, err := aesgcm.NewGCM(c.Key)
		if err != nil {
			return nil, err
		}
		c.aead = g
	}
	return c.aead, nil
}

// Backend is one accelerator placement.
type Backend interface {
	Name() string
	// NewConn allocates connection buffers able to hold msgSize-byte
	// messages of the given ULP.
	NewConn(u ULP, id, msgSize int) (*Conn, error)
	// Process runs the ULP over the payload already staged in conn.Src
	// (per LayoutFor(u)) and leaves the output in conn.Dst, ready for
	// NIC TX DMA over the returned DstSpans.
	Process(u ULP, coreID int, conn *Conn, payloadLen int) (Result, error)
	// Supports reports whether the placement can run the ULP at all
	// (SmartNICs cannot offload non-size-preserving compression, §III).
	Supports(u ULP) bool
	// InlineSource reports whether the backend consumes the page-cache
	// resident payload directly from conn.Src without a separate staging
	// copy. SmartDIMM piggybacks its offload on the existing copy (§IV
	// goals: "minimized data movement"), so the server keeps file data
	// in conn.Src (on-DIMM page cache, Benefit B2) and skips staging.
	InlineSource() bool
	// Staged tells an inline-source backend that conn.Src holds payload,
	// staged per LayoutFor(u), ahead of the Process that will consume
	// it, so a device may start the records' datapath while the request
	// waits (core.Device.Hint). It is a prediction the device verifies
	// against the bytes Process feeds it: it makes no memory access,
	// consults no fault, draws no random number and moves no counter,
	// so it changes no byte and no simulated time.
	Staged(u ULP, conn *Conn, payload []byte)
}

// StagePayloadCPU writes a message into conn.Src per the ULP layout via
// CPU stores (the app copying from the page cache), returning CPU time.
func StagePayloadCPU(sys *sim.System, coreID int, conn *Conn, payload []byte) (int64, error) {
	l := LayoutFor(conn.U)
	var lat int64
	for k := range l.records(len(payload)) {
		w, err := sys.Hier.Write(coreID, conn.Src+uint64(k*l.SrcStride), l.chunkOf(payload, k))
		if err != nil {
			return 0, err
		}
		lat += w
	}
	return lat, nil
}

// StagePayloadDMA delivers a message into conn.Src via device DMA
// (storage or NIC RX through DDIO).
func StagePayloadDMA(sys *sim.System, conn *Conn, payload []byte) error {
	l := LayoutFor(conn.U)
	for k := range l.records(len(payload)) {
		if err := sys.Hier.DMAWrite(conn.Src+uint64(k*l.SrcStride), l.chunkOf(payload, k)); err != nil {
			return err
		}
	}
	return nil
}

// ReadOutput reads the transformed records back through the cache (test
// verification helper; not part of the serving path). When the result
// requires a destination flush (SmartDIMM), it performs the USE step
// first so the reads observe the DSA output.
func ReadOutput(sys *sim.System, coreID int, conn *Conn, res Result) ([][]byte, error) {
	var out [][]byte
	for _, sp := range res.DstSpans {
		if res.DstFlushNeeded {
			if _, err := sys.Hier.Flush(conn.Dst+uint64(sp.Off), sp.Len); err != nil {
				return nil, err
			}
		}
		b, _, err := sys.Hier.Read(nil, coreID, conn.Dst+uint64(sp.Off), sp.Len)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// connKey derives deterministic per-connection key material.
func connKey(id int) ([]byte, [12]byte) {
	key := make([]byte, 16)
	var iv [12]byte
	for i := range key {
		key[i] = byte(id>>(i%4) + i*7)
	}
	for i := range iv {
		iv[i] = byte(id*13 + i)
	}
	return key, iv
}

// newPlainConn allocates connection buffers in regular memory.
// SoftDeflateStateBytes models the cache footprint of software
// deflate's working state (zlib's 32KB sliding window x2 plus hash
// heads and chains), the dominant source of cache pressure on the CPU
// compression path. It is a model: the functional path's
// compress/flate writer is host memory, pooled by
// core.SoftCompressPage.
const SoftDeflateStateBytes = 64 << 10

func newPlainConn(sys *sim.System, u ULP, id, msgSize int) (*Conn, error) {
	size := LayoutFor(u).BufBytes(msgSize)
	src, err := sys.AllocPlain(size)
	if err != nil {
		return nil, err
	}
	dst, err := sys.AllocPlain(size)
	if err != nil {
		return nil, err
	}
	key, iv := connKey(id)
	c := &Conn{ID: id, U: u, Src: src, Dst: dst, Size: size, Key: key, ivBase: iv}
	if u == Compression {
		st, err := sys.AllocPlain(SoftDeflateStateBytes)
		if err != nil {
			return nil, err
		}
		c.State = st
		c.StateBytes = SoftDeflateStateBytes
	}
	return c, nil
}

// estimateCompressed models a typical HTML compression ratio (~3x) for
// non-functional sweeps.
func estimateCompressed(n int) int { return 4 + n/3 }

// --- CPU backend ---------------------------------------------------------

// CPU processes ULPs on the host cores: AES-NI for TLS, software
// deflate for compression. Functional controls whether the actual
// transform runs (tests verify outputs) or only its memory traffic and
// compute time are modelled (large sweeps).
type CPU struct {
	Sys        *sim.System
	Functional bool
	// Process's buffers: the bytes a read returns, the zeros the
	// compressor's state update and a modelled output write, and the
	// spans it returns.
	buf, zeros []byte
	spans      []Span
}

// Name implements Backend.
func (b *CPU) Name() string { return "CPU" }

// Supports implements Backend: the CPU runs everything.
func (b *CPU) Supports(ULP) bool { return true }

// InlineSource implements Backend: the CPU path copies payloads from
// the page cache into its buffers before processing.
func (b *CPU) InlineSource() bool { return false }

// Staged implements Backend: the CPU has no device to hint.
func (b *CPU) Staged(ULP, *Conn, []byte) {}

// NewConn implements Backend.
func (b *CPU) NewConn(u ULP, id, msgSize int) (*Conn, error) {
	return newPlainConn(b.Sys, u, id, msgSize)
}

// Process implements Backend.
func (b *CPU) Process(u ULP, coreID int, conn *Conn, payloadLen int) (Result, error) {
	res := Result{DstSpans: b.spans[:0]}
	defer func() { b.spans = res.DstSpans }()
	p := b.Sys.Params
	l := LayoutFor(u)
	if u == Compression && conn.StateBytes > 0 {
		// The software compressor streams through its window and hash
		// state: half read, half updated, all through the LLC. Under
		// many concurrent connections this state is what thrashes.
		half := conn.StateBytes / 2
		var lat int64
		var err error
		b.buf, lat, err = b.Sys.Hier.Read(b.buf[:0], coreID, conn.State, half)
		if err != nil {
			return res, err
		}
		res.CPUPs += lat
		lat, err = b.Sys.Hier.Write(coreID, conn.State+uint64(half), zeroed(&b.zeros, half))
		if err != nil {
			return res, err
		}
		res.CPUPs += lat
	}
	for k := range l.records(payloadLen) {
		n := l.chunk(k, payloadLen)
		// Read the plaintext through the cache (first ULP pass).
		data, lat, err := b.Sys.Hier.Read(b.buf[:0], coreID, conn.Src+uint64(k*l.SrcStride), n)
		if err != nil {
			return res, err
		}
		b.buf = data
		res.CPUPs += lat
		if u == TLS {
			res.CPUPs += p.AESGCMComputePs(n)
		} else {
			res.CPUPs += p.DeflateComputePs(n)
		}
		out, err := transform(u, b.Functional, conn, data, &b.zeros)
		if err != nil {
			return res, err
		}
		// Write the record through the cache (second ULP pass).
		lat, err = b.Sys.Hier.Write(coreID, conn.Dst+uint64(k*l.DstStride), out)
		if err != nil {
			return res, err
		}
		res.CPUPs += lat
		res.TXBytes += len(out)
		res.Records++
		res.DstSpans = append(res.DstSpans, Span{Off: k * l.DstStride, Len: len(out)})
	}
	return res, nil
}

// transform is the software TX transform of one record, shared by the
// CPU and QuickAssist placements: the sealed TLS record (header,
// ciphertext, tag) or the deflate page of data. When not functional it
// returns zeros of the modelled size from the kept buffer *zeros
// instead. A TLS record draws its nonce from conn either way.
func transform(u ULP, functional bool, conn *Conn, data []byte, zeros *[]byte) ([]byte, error) {
	n := len(data)
	switch {
	case u == TLS && functional:
		g, err := conn.gcm()
		if err != nil {
			return nil, err
		}
		hdr := ulp.Header(n + aesgcm.TagSize)
		return g.Seal(hdr, conn.NextIV(), data, hdr)
	case u == TLS:
		conn.NextIV()
		return zeroed(zeros, ulp.RecordHeaderLen+n+aesgcm.TagSize), nil
	case functional:
		return core.SoftCompressPage(data), nil
	}
	return zeroed(zeros, estimateCompressed(n)), nil
}

// zeroed returns n zero bytes from the kept buffer *buf, growing it
// first when it is shorter. Nothing may write into what it returns.
func zeroed(buf *[]byte, n int) []byte {
	if len(*buf) < n {
		*buf = make([]byte, n)
	}
	return (*buf)[:n]
}

// --- SmartNIC backend ------------------------------------------------------

// SmartNIC models ConnectX-6 autonomous TLS offload (Pismenny et al.):
// the CPU builds the plaintext record and the TCP stack as usual; the
// NIC encrypts inline during TX. On packet loss or reordering the
// engine desynchronizes: the driver resynchronizes and the affected
// record falls back to CPU encryption — the Fig. 2 mechanism, whose
// cost nettcp.NICTLSHook charges per retransmission.
type SmartNIC struct {
	Sys *sim.System
	// Process's buffers: the plaintext read, the record it builds and
	// the spans it returns.
	buf, rec []byte
	spans    []Span
}

// Name implements Backend.
func (b *SmartNIC) Name() string { return "SmartNIC" }

// Supports implements Backend: autonomous NIC offload requires
// size-preserving transforms, so compression is out (§III, Obs. 1).
func (b *SmartNIC) Supports(u ULP) bool { return u == TLS }

// InlineSource implements Backend.
func (b *SmartNIC) InlineSource() bool { return false }

// Staged implements Backend: the NIC has nothing to start early.
func (b *SmartNIC) Staged(ULP, *Conn, []byte) {}

// NewConn implements Backend.
func (b *SmartNIC) NewConn(u ULP, id, msgSize int) (*Conn, error) {
	return newPlainConn(b.Sys, u, id, msgSize)
}

// Process implements Backend: the CPU builds the record with plaintext
// payload (the library "skips performing the offloaded operation in
// software"); encryption happens on the NIC at line rate with no CPU or
// host-memory cost beyond the TX DMA the server model already performs.
func (b *SmartNIC) Process(u ULP, coreID int, conn *Conn, payloadLen int) (Result, error) {
	res := Result{DstSpans: b.spans[:0]}
	defer func() { b.spans = res.DstSpans }()
	if u != TLS {
		return res, fmt.Errorf("offload: SmartNIC cannot offload %v", u)
	}
	p := b.Sys.Params
	l := LayoutFor(u)
	for k := range l.records(payloadLen) {
		n := l.chunk(k, payloadLen)
		data, lat, err := b.Sys.Hier.Read(b.buf[:0], coreID, conn.Src+uint64(k*l.SrcStride), n)
		if err != nil {
			return res, err
		}
		b.buf = data
		res.CPUPs += lat + p.NICCryptoSetupNs*sim.Ns
		var tag [aesgcm.TagSize]byte // placeholder
		out := append(b.rec[:0], ulp.Header(n+aesgcm.TagSize)...)
		out = append(out, data...) // plaintext: NIC encrypts in flight
		out = append(out, tag[:]...)
		b.rec = out
		conn.NextIV()
		lat, err = b.Sys.Hier.Write(coreID, conn.Dst+uint64(k*l.DstStride), out)
		if err != nil {
			return res, err
		}
		res.CPUPs += lat
		res.TXBytes += len(out)
		res.Records++
		res.DstSpans = append(res.DstSpans, Span{Off: k * l.DstStride, Len: len(out)})
	}
	return res, nil
}

// --- QuickAssist (PCIe) backend --------------------------------------------

// QAT models an Intel QuickAssist 8970 PCIe adapter in the synchronous
// mode the paper evaluates: per-offload descriptor setup and doorbell,
// CPU copies into/out of pinned DMA buffers, payload DMA over PCIe in
// both directions, and a spin-polling completion path that burns CPU for
// the whole device round trip (Observation 2: the notification mechanism
// bottlenecks PCIe-attached acceleration; the paper notes QAT "increases
// memory and CPU utilization due to high notification and memory copy
// overheads").
type QAT struct {
	Sys        *sim.System
	Functional bool
	// pinned DMA staging buffers, shared per backend (QAT instance).
	pinned     uint64
	pinnedSize int
	// Process's buffers: the plaintext read, the card's DMA read and
	// the result copied out of the pinned buffer, a modelled output, and
	// the spans it returns.
	buf, out, zeros []byte
	spans           []Span
}

// Name implements Backend.
func (b *QAT) Name() string { return "QuickAssist" }

// Supports implements Backend: QAT accelerates crypto and compression.
func (b *QAT) Supports(ULP) bool { return true }

// InlineSource implements Backend.
func (b *QAT) InlineSource() bool { return false }

// Staged implements Backend: the card is handed its payload in Process.
func (b *QAT) Staged(ULP, *Conn, []byte) {}

// NewConn implements Backend.
func (b *QAT) NewConn(u ULP, id, msgSize int) (*Conn, error) {
	if need := LayoutFor(u).BufBytes(msgSize) * 2; b.pinnedSize < need {
		addr, err := b.Sys.AllocPlain(need)
		if err != nil {
			return nil, err
		}
		b.pinned, b.pinnedSize = addr, need
	}
	return newPlainConn(b.Sys, u, id, msgSize)
}

// Process implements Backend.
func (b *QAT) Process(u ULP, coreID int, conn *Conn, payloadLen int) (Result, error) {
	res := Result{DstSpans: b.spans[:0]}
	defer func() { b.spans = res.DstSpans }()
	p := b.Sys.Params
	l := LayoutFor(u)
	for k := range l.records(payloadLen) {
		n := l.chunk(k, payloadLen)
		// CPU: copy the payload into the pinned DMA staging buffer
		// (the qatzip/QAT-engine flow), build the descriptor, doorbell.
		data, lat, err := b.Sys.Hier.Read(b.buf[:0], coreID, conn.Src+uint64(k*l.SrcStride), n)
		if err != nil {
			return res, err
		}
		b.buf = data
		res.CPUPs += lat
		lat, err = b.Sys.Hier.Write(coreID, b.pinned, data[:n])
		if err != nil {
			return res, err
		}
		res.CPUPs += lat + p.QATSetupNs*sim.Ns
		// Card DMA-reads the payload from the pinned buffer (real
		// channel traffic), computes, DMA-writes the result.
		var dmaLat int64
		b.out, dmaLat, err = b.Sys.Hier.DMARead(b.out[:0], b.pinned, n)
		if err != nil {
			return res, err
		}
		out, err := transform(u, b.Functional, conn, data, &b.zeros)
		if err != nil {
			return res, err
		}
		if err := b.Sys.Hier.DMAWrite(b.pinned+uint64(b.pinnedSize/2), out); err != nil {
			return res, err
		}
		// Synchronous mode: the CPU spin-polls for the whole device
		// round trip (PCIe RTT + both transfers), then copies the result
		// out of the pinned buffer into the record buffer.
		spin := int64(p.QATPCIeRTTUs*float64(sim.Us)) +
			p.PCIeTransferPs(n) + p.PCIeTransferPs(len(out)) + dmaLat +
			p.QATCompletionNs*sim.Ns
		res.CPUPs += spin
		out2, lat2, err := b.Sys.Hier.Read(b.out[:0], coreID, b.pinned+uint64(b.pinnedSize/2), len(out))
		if err != nil {
			return res, err
		}
		b.out = out2
		res.CPUPs += lat2
		lat2, err = b.Sys.Hier.Write(coreID, conn.Dst+uint64(k*l.DstStride), out2)
		if err != nil {
			return res, err
		}
		res.CPUPs += lat2
		res.TXBytes += len(out)
		res.Records++
		res.DstSpans = append(res.DstSpans, Span{Off: k * l.DstStride, Len: len(out)})
	}
	return res, nil
}

// --- SmartDIMM backend -------------------------------------------------------

// SmartDIMM offloads ULPs through CompCpy (§IV-V). Connection buffers
// are allocated from the device's offload range; the only CPU costs are
// the copy CompCpy performs anyway, the source flush, registration MMIO
// writes, and the destination flush before TX.
//
// When CompCpy fails with a degradable error (scratchpad exhaustion,
// translation-table insert failure, DSA fault, ALERT_N budget), the
// affected chunk is processed by the CPU software path into the same
// destination buffer — the degradation ladder's last rung — and counted
// in Degraded. TX and both RX paths run that ladder through offload.
type SmartDIMM struct {
	Sys *sim.System
	// Driver selects which rank's buffer device serves this backend; nil
	// uses the system's rank-0 driver (the single-device configuration).
	// internal/fleet builds one SmartDIMM per rank over the same system.
	Driver *core.Driver
	// Soft forces every chunk onto the CPU software rung without touching
	// the device — the processing path of a connection whose home device
	// failed and could not be re-homed (fleet drain with no survivors).
	Soft bool
	// Degraded counts chunks served by CompCpy vs the CPU fallback.
	Degraded stats.Degradation

	hw *deflate.HWEncoder // CPU-fallback encoder, built on first use by hwEncoder
	// Process's buffers: the spans it returns and the DMA peek at a
	// compressed page's first line.
	spans []Span
	peek  []byte
	// fallbackChunk's buffers: the chunk's source bytes and the sealed
	// record or framed page it writes.
	in, out []byte
	// A TLS record's offload context and the nonce, AAD, H and EIV it
	// points into; each record overwrites them.
	tls    core.TLSContext
	iv     [12]byte
	aad    [ulp.RecordHeaderLen]byte
	h, eiv [aesgcm.BlockSize]byte
}

// hwEncoder returns the backend's Deflate DSA-model encoder, which
// frames CPU-fallback pages exactly as the device would. It holds no
// per-connection state, so every connection's fallbacks share it.
func (b *SmartDIMM) hwEncoder() *deflate.HWEncoder {
	if b.hw == nil {
		b.hw = deflate.NewHWEncoder(deflate.PaperHWConfig())
	}
	return b.hw
}

// drv returns the backing driver: the explicitly bound rank, or the
// system's rank-0 driver.
func (b *SmartDIMM) drv() *core.Driver {
	if b.Driver != nil {
		return b.Driver
	}
	return b.Sys.Driver
}

// errSoftRung marks a chunk deliberately routed to the CPU rung by Soft
// mode; it is degradable by construction.
var errSoftRung = fmt.Errorf("offload: soft mode: %w", core.ErrNoScratchpad)

// Name implements Backend.
func (b *SmartDIMM) Name() string { return "SmartDIMM" }

// Supports implements Backend: SmartDIMM handles both ULPs (§V).
func (b *SmartDIMM) Supports(ULP) bool { return true }

// InlineSource implements Backend: CompCpy piggybacks on the existing
// copy out of the page cache; conn.Src holds the file data itself.
func (b *SmartDIMM) InlineSource() bool { return true }

// Staged implements Backend: it passes the device each compression
// record of the staged message, at its source page, with the context
// Process will register it with. A TLS record's context draws its nonce
// in Process, and a Soft backend never reaches the device, so both
// return at once.
func (b *SmartDIMM) Staged(u ULP, conn *Conn, payload []byte) {
	if u != Compression || b.Soft {
		return
	}
	drv := b.drv()
	if drv == nil {
		return
	}
	l := LayoutFor(u)
	for k := range l.records(len(payload)) {
		chunk := l.chunkOf(payload, k)
		drv.Staged(conn.Src+uint64(k*l.SrcStride), compressContext(len(chunk)), chunk)
	}
}

// compressContext is the offload context of an n-byte compression
// record, at the paper's DSA configuration.
func compressContext(n int) core.OffloadContext {
	return core.OffloadContext{Op: core.OpCompress, Length: n}
}

// NewConn implements Backend: buffers come from the SmartDIMM driver.
func (b *SmartDIMM) NewConn(u ULP, id, msgSize int) (*Conn, error) {
	drv := b.drv()
	if drv == nil {
		return nil, fmt.Errorf("offload: system has no SmartDIMM")
	}
	size := LayoutFor(u).BufBytes(msgSize)
	pages := (size + core.PageSize - 1) / core.PageSize
	src, err := drv.AllocPages(pages)
	if err != nil {
		return nil, err
	}
	dst, err := drv.AllocPages(pages)
	if err != nil {
		return nil, err
	}
	key, iv := connKey(id)
	return &Conn{ID: id, U: u, Src: src, Dst: dst, Size: size, Key: key, ivBase: iv,
		onSmartDIMM: true}, nil
}

// Process implements Backend.
func (b *SmartDIMM) Process(u ULP, coreID int, conn *Conn, payloadLen int) (Result, error) {
	res := Result{DstSpans: b.spans[:0]}
	defer func() { b.spans = res.DstSpans }()
	l := LayoutFor(u)
	for k := range l.records(payloadLen) {
		n := l.chunk(k, payloadLen)
		sbuf := conn.Src + uint64(k*l.SrcStride)
		dbuf := conn.Dst + uint64(k*l.DstStride)
		ctx := compressContext(n)
		size := core.PageSize
		if u == TLS {
			var err error
			if ctx, err = b.tlsContext(conn, core.OpTLSEncrypt, n); err != nil {
				return res, err
			}
			size = n + core.TagSize
			res.TXBytes += ulp.RecordHeaderLen + n + core.TagSize
			res.DstSpans = append(res.DstSpans, Span{Off: k * l.DstStride, Len: n + core.TagSize})
		}
		lat, _, err := b.offload(coreID, dbuf, sbuf, size, &ctx, func() (int64, error) {
			return b.fallbackChunk(u, coreID, conn, &ctx, sbuf, dbuf, n)
		})
		if err != nil {
			return res, err
		}
		res.CPUPs += lat
		if u == Compression {
			// Wire bytes: the compressed payload length from the page
			// header. Flush just that line so the DMA peek observes the
			// DSA's output rather than the stale cached copy.
			flat, err := b.Sys.Hier.Flush(dbuf, 64)
			if err != nil {
				return res, err
			}
			res.CPUPs += flat
			b.peek, _, err = b.Sys.Hier.DMARead(b.peek[:0], dbuf, 64)
			if err != nil {
				return res, err
			}
			clen, err := core.CompressedPayloadLen(b.peek)
			if err != nil {
				return res, err
			}
			res.TXBytes += 4 + clen
			res.DstSpans = append(res.DstSpans, Span{Off: k * l.DstStride, Len: 4 + clen})
		}
		res.Records++
	}
	res.DstFlushNeeded = true
	if tr := b.Sys.Tracer; tr != nil {
		tr.Span(tr.Track("offload"), u.String(), b.Sys.Engine.Now(), res.WallPs())
	}
	return res, nil
}

// offload runs one record down the degradation ladder: CompCpy of size
// bytes from sbuf into dbuf unless the backend is Soft, then, if that
// fails with a degradable error, cpuRung, which processes the record in
// software into the same destination. The (de)compression DSAs get an
// ordered copy. It counts the record in Degraded, returns the CPU time
// charged, and reports whether the device served the record (so a
// receive runs USE on its output).
func (b *SmartDIMM) offload(coreID int, dbuf, sbuf uint64, size int, ctx *core.OffloadContext, cpuRung func() (int64, error)) (int64, bool, error) {
	err := errSoftRung
	if !b.Soft {
		ordered := ctx.Op == core.OpCompress || ctx.Op == core.OpDecompress
		var lat int64
		if lat, err = b.drv().CompCpy(coreID, dbuf, sbuf, size, ctx, ordered); err == nil {
			b.Degraded.PrimaryOps++
			return lat, true, nil
		}
	}
	if !Degradable(err) {
		return 0, false, err
	}
	// CompCpy already tried Force-Recycle; process this record on the
	// CPU into the same destination.
	if tr := b.Sys.Tracer; tr != nil {
		tr.Instant(tr.Track("offload"), "cpu-fallback", b.Sys.Engine.Now())
	}
	lat, ferr := cpuRung()
	if ferr != nil {
		return 0, false, fmt.Errorf("offload: CPU fallback after %v: %w", err, ferr)
	}
	b.Degraded.FallbackOps++
	return lat, false, nil
}

// tlsContext builds the offload context of one TLS record of n payload
// bytes, for either direction (op). It draws the record's nonce from
// conn. The context and every byte it points to live in the backend's
// buffers, which the next record overwrites, so a record allocates
// nothing.
func (b *SmartDIMM) tlsContext(conn *Conn, op core.Opcode, n int) (core.OffloadContext, error) {
	copy(b.iv[:], conn.NextIV())
	g, err := conn.gcm()
	if err != nil {
		return core.OffloadContext{}, err
	}
	eiv, err := g.AppendEIV(b.eiv[:0], b.iv[:])
	if err != nil {
		return core.OffloadContext{}, err
	}
	copy(b.h[:], g.H())
	copy(b.aad[:], ulp.Header(n+aesgcm.TagSize))
	dir := aesgcm.Encrypt
	if op == core.OpTLSDecrypt {
		dir = aesgcm.Decrypt
	}
	b.tls = core.TLSContext{
		Direction: dir, Key: conn.Key, IV: b.iv[:],
		H: b.h[:], EIV: eiv, AAD: b.aad[:], PayloadLen: n,
	}
	return core.OffloadContext{Op: op, TLS: &b.tls, Length: n}, nil
}

// fallbackChunk runs one chunk of a failed offload on the CPU software
// path, writing the same wire format the DSA would have produced into
// the destination buffer. Returns the CPU time charged.
func (b *SmartDIMM) fallbackChunk(u ULP, coreID int, conn *Conn, ctx *core.OffloadContext, sbuf, dbuf uint64, n int) (int64, error) {
	p := b.Sys.Params
	data, lat, err := b.Sys.Hier.Read(b.in[:0], coreID, sbuf, n)
	if err != nil {
		return 0, err
	}
	b.in = data
	out := b.out[:0]
	switch u {
	case TLS:
		g, err := conn.gcm()
		if err != nil {
			return 0, err
		}
		// Same IV and AAD the DSA was registered with, so the peer
		// decrypts the record identically.
		if out, err = g.Seal(out, ctx.TLS.IV, data, ctx.TLS.AAD); err != nil {
			return 0, err
		}
		lat += p.AESGCMComputePs(n)
	case Compression:
		if out, err = core.AppendCompressedPage(out, data, b.hwEncoder()); err != nil {
			return 0, err
		}
		lat += p.DeflateComputePs(n)
	}
	b.out = out
	wlat, err := b.Sys.Hier.Write(coreID, dbuf, out)
	if err != nil {
		return 0, err
	}
	return lat + wlat, nil
}

// --- Adaptive backend -----------------------------------------------------

// Adaptive is the §V-C policy: probe the LLC miss rate periodically and
// offload to SmartDIMM only under contention, processing on the CPU
// otherwise.
type Adaptive struct {
	Sys           *sim.System
	CPUBackend    *CPU
	DIMM          *SmartDIMM
	ProbeInterval int // requests between miss-rate samples

	reqs         int
	offloading   bool
	OffloadedN   uint64
	OnCPUN       uint64
	LastMissRate float64
}

// Name implements Backend.
func (b *Adaptive) Name() string { return "SmartDIMM-adaptive" }

// Supports implements Backend.
func (b *Adaptive) Supports(ULP) bool { return true }

// InlineSource implements Backend: both adaptive paths read the on-DIMM
// page cache directly.
func (b *Adaptive) InlineSource() bool { return true }

// Staged implements Backend: it hints the SmartDIMM path while the last
// probe has the backend offloading.
func (b *Adaptive) Staged(u ULP, conn *Conn, payload []byte) {
	if b.offloading {
		b.DIMM.Staged(u, conn, payload)
	}
}

// NewConn implements Backend: buffers live on SmartDIMM so both paths
// can use them (its capacity counts toward system memory, Benefit B2).
func (b *Adaptive) NewConn(u ULP, id, msgSize int) (*Conn, error) {
	return b.DIMM.NewConn(u, id, msgSize)
}

// Process implements Backend.
func (b *Adaptive) Process(u ULP, coreID int, conn *Conn, payloadLen int) (Result, error) {
	interval := b.ProbeInterval
	if interval <= 0 {
		interval = 64
	}
	if b.reqs%interval == 0 {
		b.LastMissRate = b.Sys.LLCMissRateSample()
		b.offloading = b.LastMissRate >= b.Sys.Params.AdaptiveMissRateThreshold
	}
	b.reqs++
	if b.offloading {
		b.OffloadedN++
		return b.DIMM.Process(u, coreID, conn, payloadLen)
	}
	b.OnCPUN++
	return b.CPUBackend.Process(u, coreID, conn, payloadLen)
}
