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
	"repro/internal/ulp"
)

// RXResult is the cost and outcome breakdown of receive-side processing.
type RXResult struct {
	CPUPs int64
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
		if err := sys.Hier.DMAWrite(conn.Src+uint64(k*l.SrcStride), rec); err != nil {
			return err
		}
	}
	return nil
}

// ReceiveTLS decrypts staged records on the CPU with AES-NI:
// payloadLens[k] is record k's plaintext length.
func (b *CPU) ReceiveTLS(coreID int, conn *Conn, payloadLens []int) (RXResult, error) {
	res := RXResult{AuthOK: true}
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
		pt, ok, lat, err := openRecord(b.Sys, coreID, gcm, conn.NextIV(),
			conn.Src+uint64(k*l.SrcStride), conn.Dst+uint64(k*l.DstStride), n)
		if err != nil {
			return res, err
		}
		res.CPUPs += lat
		res.AuthOK = res.AuthOK && ok
		res.Payload = append(res.Payload, pt...)
		res.Records++
	}
	return res, nil
}

// openRecord is the software TLS receive of one record, shared by the
// CPU placement and SmartDIMM's CPU rung: read the sealed record of n
// payload bytes at src through the cache, open it with g under nonce
// iv, and write the plaintext to dst. A nil g models the cost only. ok
// is false when the tag does not verify; the plaintext is then zeros.
// It returns the CPU time charged.
func openRecord(sys *sim.System, coreID int, g *aesgcm.GCM, iv []byte, src, dst uint64, n int) (pt []byte, ok bool, lat int64, err error) {
	sealed, lat, err := sys.Hier.Read(nil, coreID, src, n+aesgcm.TagSize)
	if err != nil {
		return nil, false, 0, err
	}
	lat += sys.Params.AESGCMComputePs(n)
	ok = true
	if g != nil {
		pt, err = g.Open(nil, iv, sealed, ulp.Header(n+aesgcm.TagSize))
		ok = err == nil
	}
	if g == nil || !ok {
		pt = make([]byte, n)
	}
	wlat, err := sys.Hier.Write(coreID, dst, pt)
	if err != nil {
		return nil, false, 0, err
	}
	return pt, ok, lat + wlat, nil
}

// ReceiveTLS decrypts staged records through CompCpy: the DSA decrypts
// each record in flight and verifies its tag near memory; the trailer's
// first byte carries the verification verdict (§V-A decrypt path).
func (b *SmartDIMM) ReceiveTLS(coreID int, conn *Conn, payloadLens []int) (RXResult, error) {
	res := RXResult{AuthOK: true}
	l := LayoutFor(TLS)
	for k, n := range payloadLens {
		sbuf := conn.Src + uint64(k*l.SrcStride)
		dbuf := conn.Dst + uint64(k*l.DstStride)
		ctx, err := b.tlsContext(conn, core.OpTLSDecrypt, n)
		if err != nil {
			return res, err
		}
		var pt []byte
		ok := true
		lat, onDevice, err := b.offload(coreID, dbuf, sbuf, n+core.TagSize, &ctx, func() (lat int64, err error) {
			g, err := conn.gcm()
			if err != nil {
				return 0, err
			}
			pt, ok, lat, err = openRecord(b.Sys, coreID, g, ctx.TLS.IV, sbuf, dbuf, n)
			return lat, err
		})
		if err != nil {
			return res, err
		}
		res.CPUPs += lat
		if onDevice {
			// USE: flush and read the plaintext plus the verification byte.
			out, lat, err := b.drv().Use(coreID, dbuf, n+core.TagSize)
			if err != nil {
				return res, err
			}
			res.CPUPs += lat
			pt, ok = out[:n], out[n] == 1
		}
		res.AuthOK = res.AuthOK && ok
		res.Payload = append(res.Payload, pt...)
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
		page, lat, err := b.Sys.Hier.Read(nil, coreID, conn.Src+uint64(k*l.SrcStride), n)
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
		lat, err = b.Sys.Hier.Write(coreID, conn.Dst+uint64(k*l.DstStride), orig)
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
	l := LayoutFor(Compression)
	for k := range pageLens {
		sbuf := conn.Src + uint64(k*l.SrcStride)
		dbuf := conn.Dst + uint64(k*l.DstStride)
		ctx := core.OffloadContext{Op: core.OpDecompress, Length: core.PageSize}
		var page []byte
		lat, onDevice, err := b.offload(coreID, dbuf, sbuf, core.PageSize, &ctx, func() (int64, error) {
			// Inflate the staged page in software. Output is padded to
			// the page size to match the Inflate DSA.
			src, rlat, err := b.Sys.Hier.Read(nil, coreID, sbuf, core.PageSize)
			if err != nil {
				return 0, err
			}
			orig, err := core.DecodeCompressedPage(src)
			if err != nil {
				return 0, fmt.Errorf("offload: RX fallback page %d: %w", k, err)
			}
			page = make([]byte, core.PageSize)
			copy(page, orig)
			wlat, err := b.Sys.Hier.Write(coreID, dbuf, page)
			if err != nil {
				return 0, err
			}
			return rlat + wlat + b.Sys.Params.InflateComputePs(len(orig)), nil
		})
		if err != nil {
			return res, err
		}
		res.CPUPs += lat
		if onDevice {
			out, lat, err := b.drv().Use(coreID, dbuf, core.PageSize)
			if err != nil {
				return res, err
			}
			res.CPUPs += lat
			// The original length comes from the framing the peer sent;
			// the caller trims. Each page holds up to MaxCompressInput
			// bytes.
			page = out
		}
		res.Payload = append(res.Payload, page...)
		res.Records++
	}
	return res, nil
}
