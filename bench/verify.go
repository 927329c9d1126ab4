package main

import (
	"bytes"
	"compress/flate"
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/offload"
	"repro/internal/sim"
)

// verifyPs is the simulated window whose every record the output check
// opens with the standard library, before the timed repetitions.
const verifyPs = sim.Ms / 2

// verify builds w with a checker around Backend.Process and runs the first
// verifyPs of simulated time. It returns how many records were checked and
// the first record that failed to round-trip. The sharded cluster builds
// its backends internally, so it checks no records here.
func verify(w spec, seed int64) (records int, mismatch, err error) {
	var checkers []*checker
	hk := hooks{backend: func(b offload.Backend, sys *sim.System) offload.Backend {
		c := &checker{Backend: b, sys: sys}
		checkers = append(checkers, c)
		return c
	}}
	in, err := build(w, seed, hk, 0)
	if err != nil {
		return 0, nil, err
	}
	in.start()
	in.eng.RunUntil(verifyPs)
	for _, c := range checkers {
		records += c.records
		if mismatch == nil {
			mismatch = c.mismatch
		}
	}
	return records, mismatch, nil
}

// checker decorates Backend.Process and checks every record it emits
// against the standard library: a TLS record must open with crypto/cipher
// under the connection's key, the record's IV and its header as AAD, and
// a deflate page must inflate with compress/flate; either must give back
// the source bytes in conn.Src.
type checker struct {
	offload.Backend
	sys      *sim.System
	records  int
	mismatch error
}

// Process implements offload.Backend.
func (c *checker) Process(u offload.ULP, coreID int, conn *offload.Conn, n int) (offload.Result, error) {
	ivs := *conn // NextIV on this copy replays the IVs Process draws
	res, err := c.Backend.Process(u, coreID, conn, n)
	if err != nil || c.mismatch != nil {
		return res, err
	}
	if err := c.check(u, coreID, &ivs, conn, res, n); err != nil {
		c.mismatch = fmt.Errorf("conn %d, record %d: %w", conn.ID, c.records, err)
	}
	return res, nil
}

func (c *checker) check(u offload.ULP, coreID int, ivs, conn *offload.Conn, res offload.Result, n int) error {
	out, err := offload.ReadOutput(c.sys, coreID, conn, res)
	if err != nil {
		return err
	}
	l := offload.LayoutFor(u)
	chunks := l.Chunks(n)
	if len(out) != len(chunks) {
		return fmt.Errorf("%d records for %d chunks", len(out), len(chunks))
	}
	for k, size := range chunks {
		src, _, err := c.sys.ReadBytes(coreID, conn.Src+uint64(k*l.SrcStride), size)
		if err != nil {
			return err
		}
		var got []byte
		if u == offload.TLS {
			got, err = openTLS(conn.Key, ivs.NextIV(), out[k])
		} else {
			got, err = inflatePage(out[k])
		}
		if err != nil {
			return err
		}
		if !bytes.Equal(got, src) {
			return errors.New("output does not reproduce the source")
		}
		c.records++
	}
	return nil
}

// openTLS opens a SmartDIMM TLS record (ciphertext || tag; the NIC
// prepends the header) with its 5-byte TLS 1.3 header as AAD.
func openTLS(key, iv, record []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	aad := []byte{0x17, 0x03, 0x03, byte(len(record) >> 8), byte(len(record))}
	return gcm.Open(nil, iv, record, aad)
}

// inflatePage inflates the deflate stream of a compressed page: a 4-byte
// header giving the stream length, then the stream.
func inflatePage(page []byte) ([]byte, error) {
	n, err := core.CompressedPayloadLen(page)
	if err != nil {
		return nil, err
	}
	if 4+n > len(page) {
		return nil, fmt.Errorf("page header claims %d stream bytes of %d", n, len(page)-4)
	}
	return io.ReadAll(flate.NewReader(bytes.NewReader(page[4 : 4+n])))
}
