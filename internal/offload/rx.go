package offload

// The receive path (§V-C): TLS decryption and body decompression of
// records the NIC DMA'd into a connection's staging buffer. The Linux
// TCP ULP infrastructure invokes the ULP after TCP reassembly on RX —
// the same spot where SmartDIMM offloading is initiated "before the
// packet is transferred to the remaining network stack or userspace".
//
// RX staging convention: record k's ciphertext||tag (TLS) or compressed
// page (deflate) sits at k*SrcStride within conn.Src, mirroring the TX
// layout; decrypted/decompressed output lands at k*DstStride in
// conn.Dst.

import (
	"fmt"

	"repro/internal/aesgcm"
	"repro/internal/core"
	"repro/internal/sim"
)

// RXResult is the cost and outcome breakdown of receive-side processing.
type RXResult struct {
	CPUPs    int64
	DevicePs int64
	// AuthOK reports whether every record's tag verified.
	AuthOK bool
	// Payload is the reassembled plaintext/decompressed body.
	Payload []byte
	Records int
}

// StageRXRecordsDMA delivers wire records into conn.Src via NIC RX DMA
// (DDIO): records[k] is placed at k*SrcStride.
func StageRXRecordsDMA(sys *sim.System, conn *Conn, records [][]byte) error {
	l := LayoutFor(conn.U)
	for k, rec := range records {
		if len(rec) > l.SrcStride {
			return fmt.Errorf("offload: RX record %d (%dB) exceeds stride", k, len(rec))
		}
		if err := sys.DMAIn(conn.Src+uint64(k*l.SrcStride), rec); err != nil {
			return err
		}
	}
	return nil
}

// ReceiveTLS decrypts staged records on the CPU with AES-NI:
// payloadLens[k] is record k's plaintext length.
func (b *CPU) ReceiveTLS(coreID int, conn *Conn, payloadLens []int) (RXResult, error) {
	res := RXResult{AuthOK: true}
	p := b.Sys.Params
	l := LayoutFor(TLS)
	var gcm *aesgcm.GCM
	if b.Functional {
		var err error
		gcm, err = conn.gcm()
		if err != nil {
			return res, err
		}
	}
	for k, n := range payloadLens {
		sealed, lat, err := b.Sys.ReadBytes(coreID, conn.Src+uint64(k*l.SrcStride), n+aesgcm.TagSize)
		if err != nil {
			return res, err
		}
		res.CPUPs += lat + p.AESGCMComputePs(n)
		var pt []byte
		if b.Functional {
			pt, err = gcm.Open(nil, conn.NextIV(), sealed, tlsAAD(n))
			if err != nil {
				res.AuthOK = false
				pt = make([]byte, n)
			}
		} else {
			conn.NextIV()
			pt = make([]byte, n)
		}
		lat, err = b.Sys.WriteBytes(coreID, conn.Dst+uint64(k*l.DstStride), pt)
		if err != nil {
			return res, err
		}
		res.CPUPs += lat
		res.Payload = append(res.Payload, pt...)
		res.Records++
	}
	return res, nil
}

// ReceiveTLS decrypts staged records through CompCpy: the DSA decrypts
// each record in flight and verifies its tag near memory; the trailer's
// first byte carries the verification verdict (§V-A decrypt path).
func (b *SmartDIMM) ReceiveTLS(coreID int, conn *Conn, payloadLens []int) (RXResult, error) {
	res := RXResult{AuthOK: true}
	drv := b.drv()
	l := LayoutFor(TLS)
	for k, n := range payloadLens {
		sbuf := conn.Src + uint64(k*l.SrcStride)
		dbuf := conn.Dst + uint64(k*l.DstStride)
		iv := conn.NextIV()
		g, err := conn.gcm()
		if err != nil {
			return res, err
		}
		eiv, err := g.EIV(iv)
		if err != nil {
			return res, err
		}
		ctx := &core.OffloadContext{
			Op: core.OpTLSDecrypt,
			TLS: &core.TLSContext{
				Direction: aesgcm.Decrypt, Key: conn.Key, IV: iv,
				H: g.H(), EIV: eiv, AAD: tlsAAD(n), PayloadLen: n,
			},
			Length: n,
		}
		lat := int64(0)
		err = errSoftRung
		if !b.Soft {
			lat, err = drv.CompCpy(coreID, dbuf, sbuf, n+core.TagSize, ctx, false)
		}
		if err != nil {
			if !degradable(err) {
				return res, err
			}
			// CPU fallback: decrypt the staged record with AES-NI.
			sealed, rlat, rerr := b.Sys.ReadBytes(coreID, sbuf, n+core.TagSize)
			if rerr != nil {
				return res, rerr
			}
			pt, oerr := g.Open(nil, iv, sealed, tlsAAD(n))
			if oerr != nil {
				res.AuthOK = false
				pt = make([]byte, n)
			}
			wlat, werr := b.Sys.WriteBytes(coreID, dbuf, pt)
			if werr != nil {
				return res, werr
			}
			res.CPUPs += rlat + wlat + b.Sys.Params.AESGCMComputePs(n)
			res.Payload = append(res.Payload, pt...)
			res.Records++
			b.Degraded.FallbackOps++
			continue
		}
		res.CPUPs += lat
		b.Degraded.PrimaryOps++
		// USE: flush and read the plaintext plus the verification byte.
		out, lat, err := drv.Use(coreID, dbuf, n+core.TagSize)
		if err != nil {
			return res, err
		}
		res.CPUPs += lat
		if out[n] != 1 {
			res.AuthOK = false
		}
		res.Payload = append(res.Payload, out[:n]...)
		res.Records++
	}
	return res, nil
}

// ReceiveCompressed inflates staged compressed pages on the CPU.
func (b *CPU) ReceiveCompressed(coreID int, conn *Conn, pageLens []int) (RXResult, error) {
	res := RXResult{AuthOK: true}
	p := b.Sys.Params
	l := LayoutFor(Compression)
	for k, n := range pageLens {
		page, lat, err := b.Sys.ReadBytes(coreID, conn.Src+uint64(k*l.SrcStride), n)
		if err != nil {
			return res, err
		}
		res.CPUPs += lat
		var orig []byte
		if b.Functional {
			orig, err = core.DecodeCompressedPage(page)
			if err != nil {
				return res, fmt.Errorf("offload: RX page %d: %w", k, err)
			}
		} else {
			orig = make([]byte, core.MaxCompressInput)
		}
		res.CPUPs += p.InflateComputePs(len(orig))
		lat, err = b.Sys.WriteBytes(coreID, conn.Dst+uint64(k*l.DstStride), orig)
		if err != nil {
			return res, err
		}
		res.CPUPs += lat
		res.Payload = append(res.Payload, orig...)
		res.Records++
	}
	return res, nil
}

// ReceiveCompressed inflates staged pages through the Inflate DSA.
func (b *SmartDIMM) ReceiveCompressed(coreID int, conn *Conn, pageLens []int) (RXResult, error) {
	res := RXResult{AuthOK: true}
	drv := b.drv()
	l := LayoutFor(Compression)
	for k := range pageLens {
		sbuf := conn.Src + uint64(k*l.SrcStride)
		dbuf := conn.Dst + uint64(k*l.DstStride)
		ctx := &core.OffloadContext{Op: core.OpDecompress, Length: core.PageSize}
		var lat int64
		err := errSoftRung
		if !b.Soft {
			lat, err = drv.CompCpy(coreID, dbuf, sbuf, core.PageSize, ctx, true)
		}
		if err != nil {
			if !degradable(err) {
				return res, err
			}
			// CPU fallback: inflate the staged page in software. Output
			// is padded to the page size to match the Inflate DSA.
			page, rlat, rerr := b.Sys.ReadBytes(coreID, sbuf, core.PageSize)
			if rerr != nil {
				return res, rerr
			}
			orig, derr := core.DecodeCompressedPage(page)
			if derr != nil {
				return res, fmt.Errorf("offload: RX fallback page %d: %w", k, derr)
			}
			padded := make([]byte, core.PageSize)
			copy(padded, orig)
			wlat, werr := b.Sys.WriteBytes(coreID, dbuf, padded)
			if werr != nil {
				return res, werr
			}
			res.CPUPs += rlat + wlat + b.Sys.Params.InflateComputePs(len(orig))
			res.Payload = append(res.Payload, padded...)
			res.Records++
			b.Degraded.FallbackOps++
			continue
		}
		res.CPUPs += lat
		b.Degraded.PrimaryOps++
		out, lat, err := drv.Use(coreID, dbuf, core.PageSize)
		if err != nil {
			return res, err
		}
		res.CPUPs += lat
		// The original length comes from the framing the peer sent; the
		// caller trims. Here each page holds up to MaxCompressInput bytes.
		res.Payload = append(res.Payload, out...)
		res.Records++
	}
	return res, nil
}
