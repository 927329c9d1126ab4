// Package ulp implements the upper-layer-protocol framing the paper's
// two workloads speak: a TLS 1.3-style record layer over AES-GCM (§II,
// §V-A) and HTTP responses with deflate content encoding carried as a
// sequence of independently compressed 4KB pages (§V-B/C: SmartDIMM
// compresses exclusively at page granularity and writes each compressed
// page to the TCP socket separately).
//
// The record layer here is the software/reference implementation; the
// SmartDIMM path produces byte-identical records through the DSA, which
// the tests cross-check.
package ulp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/aesgcm"
	"repro/internal/core"
	"repro/internal/deflate"
)

// TLS record constants.
const (
	RecordHeaderLen    = 5
	ContentTypeAppData = 0x17
	recordVersion      = 0x0303 // TLS 1.2 on the wire, as TLS 1.3 mandates
	// MaxRecordPayload is the TLS plaintext limit per record.
	MaxRecordPayload = 16384
)

// Errors of the record layer.
var (
	ErrRecordTooLarge = errors.New("ulp: record payload exceeds TLS maximum")
	ErrShortRecord    = errors.New("ulp: truncated record")
	ErrBadVersion     = errors.New("ulp: unexpected record version")
)

// Header builds the 5-byte TLS record header for a ciphertext of n
// bytes (including the tag). It doubles as the AEAD associated data.
func Header(ctLen int) []byte {
	return []byte{ContentTypeAppData, recordVersion >> 8, recordVersion & 0xff,
		byte(ctLen >> 8), byte(ctLen)}
}

// Session is one direction of a TLS connection's record protection:
// key, static IV, and a record sequence number (TLS 1.3 nonce
// construction: seq XORed into the IV).
type Session struct {
	gcm *aesgcm.GCM
	iv  [12]byte
	seq uint64
}

// NewSession derives a session from key material.
func NewSession(key, iv []byte) (*Session, error) {
	if len(iv) != 12 {
		return nil, fmt.Errorf("ulp: IV must be 12 bytes, got %d", len(iv))
	}
	g, err := aesgcm.NewGCM(key)
	if err != nil {
		return nil, err
	}
	s := &Session{gcm: g}
	copy(s.iv[:], iv)
	return s, nil
}

// Nonce builds the TLS 1.3 per-record nonce: the record sequence number,
// big-endian, XORed into the low bytes of the static IV.
func Nonce(iv [12]byte, seq uint64) []byte {
	for i := 0; i < 8; i++ {
		iv[11-i] ^= byte(seq >> (8 * i))
	}
	return iv[:]
}

// nonce builds the per-record nonce and advances the sequence.
func (s *Session) nonce() []byte {
	s.seq++
	return Nonce(s.iv, s.seq-1)
}

// EncryptRecord seals payload into a full TLS record
// (header || ciphertext || tag).
func (s *Session) EncryptRecord(payload []byte) ([]byte, error) {
	if len(payload) > MaxRecordPayload {
		return nil, ErrRecordTooLarge
	}
	hdr := Header(len(payload) + aesgcm.TagSize)
	sealed, err := s.gcm.Seal(nil, s.nonce(), payload, hdr)
	if err != nil {
		return nil, err
	}
	return append(hdr, sealed...), nil
}

// DecryptRecord opens one record produced by EncryptRecord, returning
// the payload and the total record length consumed from data.
func (s *Session) DecryptRecord(data []byte) (payload []byte, consumed int, err error) {
	if len(data) < RecordHeaderLen {
		return nil, 0, ErrShortRecord
	}
	if data[0] != ContentTypeAppData || binary.BigEndian.Uint16(data[1:3]) != recordVersion {
		return nil, 0, ErrBadVersion
	}
	ctLen := int(binary.BigEndian.Uint16(data[3:5]))
	if len(data) < RecordHeaderLen+ctLen {
		return nil, 0, ErrShortRecord
	}
	hdr := data[:RecordHeaderLen]
	body := data[RecordHeaderLen : RecordHeaderLen+ctLen]
	pt, err := s.gcm.Open(nil, s.nonce(), body, hdr)
	if err != nil {
		return nil, 0, err
	}
	return pt, RecordHeaderLen + ctLen, nil
}

// --- Deflate content encoding (page sequence) -----------------------------

// CompressBody encodes a response body as a sequence of independently
// compressed pages, each framed by the 4-byte page header of
// core.EncodeCompressedPage. enc selects the encoder: nil uses the
// software encoder (CPU baseline), otherwise the hardware-style DSA
// model.
func CompressBody(body []byte, enc *deflate.HWEncoder) []byte {
	var out []byte
	for len(body) > 0 {
		n := len(body)
		if n > core.MaxCompressInput {
			n = core.MaxCompressInput
		}
		var page []byte
		if enc != nil {
			// n is capped at MaxCompressInput above, so encoding cannot
			// fail; a failure here is a programmer error.
			full, err := core.EncodeCompressedPage(body[:n], enc)
			if err != nil {
				panic(err)
			}
			plen, _ := core.CompressedPayloadLen(full)
			page = full[:4+plen]
		} else {
			page = core.SoftCompressPage(body[:n])
		}
		out = append(out, page...)
		body = body[n:]
	}
	return out
}

// DecompressBody reverses CompressBody.
func DecompressBody(data []byte) ([]byte, error) {
	var out []byte
	for len(data) > 0 {
		plen, err := core.CompressedPayloadLen(data)
		if err != nil {
			return nil, err
		}
		orig, err := core.DecodeCompressedPage(data)
		if err != nil {
			return nil, err
		}
		out = append(out, orig...)
		data = data[4+plen:]
	}
	return out, nil
}
