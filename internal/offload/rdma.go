package offload

import (
	"fmt"

	"repro/internal/rdma"
)

// Ingestor is the peer-DMA ingress contract: a backend that can land an
// inbound record directly in the connection's device-side buffer,
// without bouncing through host DRAM. The server model routes stage-0
// payload staging here when the system's data path is DataPathPeer.
type Ingestor interface {
	// Ingest deposits payload into conn's staging buffer over the RDMA
	// path and returns the modelled device time.
	Ingest(conn *Conn, payload []byte) (int64, error)
	// Preload stages payload at construction time (before the measured
	// epoch): functionally identical, no wire or doorbell occupancy.
	Preload(conn *Conn, payload []byte) error
}

// RDMA wraps an inline backend (SmartDIMM or a fleet) with a zero-copy
// ingress path: every connection's Src buffer is registered as an RDMA
// memory region and inbound records arrive as one-sided WRITEs through
// the NIC model instead of storage DMA through DDIO. Processing is
// delegated unchanged — the per-chunk copy stage the host-mediated CPU
// placement pays stays elided (InlineSource), and the host-DRAM bounce
// the inline placements still paid on page-cache misses disappears.
type RDMA struct {
	Inner Backend
	NIC   *rdma.NIC
}

// NewRDMA validates the pairing: peer deposits only make sense when the
// inner backend consumes records from device-side buffers in place.
func NewRDMA(inner Backend, nic *rdma.NIC) (*RDMA, error) {
	if inner == nil || nic == nil {
		return nil, fmt.Errorf("offload: RDMA backend needs an inner backend and a NIC")
	}
	if !inner.InlineSource() {
		return nil, fmt.Errorf("offload: RDMA ingress over %s: peer deposits need an inline (device-buffer) backend", inner.Name())
	}
	return &RDMA{Inner: inner, NIC: nic}, nil
}

// Name implements Backend.
func (b *RDMA) Name() string { return b.Inner.Name() + "+rdma" }

// Supports implements Backend.
func (b *RDMA) Supports(u ULP) bool { return b.Inner.Supports(u) }

// InlineSource implements Backend: the page cache lives in conn.Src on
// the device, exactly like the inner backend.
func (b *RDMA) InlineSource() bool { return true }

// Staged implements Backend by delegation.
func (b *RDMA) Staged(u ULP, conn *Conn, payload []byte) { b.Inner.Staged(u, conn, payload) }

// NewConn implements Backend: allocate through the inner backend, then
// register the staging buffer as a remotely-writable MR and bind a QP
// to it. Fleet migrations re-register through the same NIC (the fleet
// holds the NIC via its Config.RNIC), so the QP's binding follows the
// buffer wherever placement moves it.
func (b *RDMA) NewConn(u ULP, id, msgSize int) (*Conn, error) {
	conn, err := b.Inner.NewConn(u, id, msgSize)
	if err != nil {
		return nil, err
	}
	rkey, err := b.NIC.RegisterMR(conn.Src, conn.Size)
	if err != nil {
		return nil, fmt.Errorf("offload: conn %d MR: %w", id, err)
	}
	if err := b.NIC.CreateQP(id, rkey); err != nil {
		return nil, fmt.Errorf("offload: conn %d QP: %w", id, err)
	}
	return conn, nil
}

// Process implements Backend by delegation: the records are already in
// place, so the ULP pass is identical to the host-mediated inline path.
func (b *RDMA) Process(u ULP, coreID int, conn *Conn, payloadLen int) (Result, error) {
	return b.Inner.Process(u, coreID, conn, payloadLen)
}

// Ingest implements Ingestor: the record is chunked to the ULP's source
// layout (the same strides StagePayloadDMA uses) and deposited through
// the NIC — MTU-sized WQEs, batched doorbells, RNR retries and all.
func (b *RDMA) Ingest(conn *Conn, payload []byte) (int64, error) {
	l := LayoutFor(conn.U)
	var lat int64
	for k := range l.records(len(payload)) {
		d, err := b.NIC.Deposit(conn.ID, k*l.SrcStride, l.chunkOf(payload, k))
		lat += d
		if err != nil {
			return lat, fmt.Errorf("offload: ingest conn %d: %w", conn.ID, err)
		}
	}
	return lat, nil
}

// Preload implements Ingestor.
func (b *RDMA) Preload(conn *Conn, payload []byte) error {
	l := LayoutFor(conn.U)
	for k := range l.records(len(payload)) {
		if err := b.NIC.Preload(conn.ID, k*l.SrcStride, l.chunkOf(payload, k)); err != nil {
			return err
		}
	}
	return nil
}
