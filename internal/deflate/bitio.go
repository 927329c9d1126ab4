// Package deflate is a from-scratch implementation of the Deflate
// compressed data format (RFC 1951) in the two shapes the paper uses:
//
//   - a software encoder with hash-chain LZ77 match finding and
//     stored/fixed/dynamic Huffman blocks — the "CPU" baseline that
//     Nginx's gzip filter stands in for;
//   - a hardware-style encoder modelling SmartDIMM's Deflate DSA
//     (§V-B): a specialization of the Fowers et al. fully pipelined
//     FPGA architecture with an 8-byte parallelization window, an
//     8-bank candidate memory that drops candidates on bank conflicts,
//     a 4KB history window, and oldest-entry replacement — best-effort
//     compression with deterministic latency;
//   - a complete inflate decoder used to verify round trips of both
//     encoders and interoperability with the reference codec.
//
// Both encoders emit RFC 1951 compliant streams; the tests prove every
// stream inflates with compress/flate and vice versa.
package deflate

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// bitWriter packs bits LSB-first into bytes, as RFC 1951 §3.1.1
// prescribes for everything except Huffman codes (which callers must
// pre-reverse; see writeCode). Bits collect in a 64-bit accumulator
// that is flushed 32 bits at a time, so nAcc < 32 between calls.
type bitWriter struct {
	buf  []byte
	acc  uint64
	nAcc uint
}

// writeBits appends the low n bits of v (n <= 32, no bits set above
// n), LSB-first.
func (w *bitWriter) writeBits(v uint32, n uint) {
	w.acc |= uint64(v) << w.nAcc
	w.nAcc += n
	if w.nAcc >= 32 {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(w.acc))
		w.acc >>= 32
		w.nAcc -= 32
	}
}

// writeCode appends a Huffman code of n bits. Huffman codes are packed
// starting from their most significant bit, so the canonical code value
// is bit-reversed before packing.
func (w *bitWriter) writeCode(code uint32, n uint) {
	w.writeBits(reverseBits(code, n), n)
}

// alignByte flushes the accumulator, padding with zero bits to the
// next byte boundary.
func (w *bitWriter) alignByte() {
	for w.nAcc > 0 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		w.nAcc -= min(w.nAcc, 8)
	}
}

// writeBytes appends raw bytes; the stream must be byte-aligned.
func (w *bitWriter) writeBytes(p []byte) {
	if w.nAcc != 0 {
		panic("deflate: writeBytes on unaligned stream")
	}
	w.buf = append(w.buf, p...)
}

// bytes returns the stream, flushing any partial final byte.
func (w *bitWriter) bytes() []byte {
	w.alignByte()
	return w.buf
}

// bitLen returns the total number of bits written so far.
func (w *bitWriter) bitLen() int { return len(w.buf)*8 + int(w.nAcc) }

// reverseBits reverses the low n bits of v (n <= 32).
func reverseBits(v uint32, n uint) uint32 { return bits.Reverse32(v) >> (32 - n) }

// errUnexpectedEOF mirrors io.ErrUnexpectedEOF for truncated streams.
var errUnexpectedEOF = errors.New("deflate: unexpected end of stream")

// bitReader consumes bits LSB-first from a byte slice.
type bitReader struct {
	data []byte
	pos  int // byte position
	acc  uint32
	nAcc uint
}

func newBitReader(data []byte) *bitReader { return &bitReader{data: data} }

// readBits returns the next n bits (n <= 24), LSB-first.
func (r *bitReader) readBits(n uint) (uint32, error) {
	for r.nAcc < n {
		if r.pos >= len(r.data) {
			return 0, errUnexpectedEOF
		}
		r.acc |= uint32(r.data[r.pos]) << r.nAcc
		r.pos++
		r.nAcc += 8
	}
	v := r.acc & (1<<n - 1)
	r.acc >>= n
	r.nAcc -= n
	return v, nil
}

// readBit returns a single bit.
func (r *bitReader) readBit() (uint32, error) { return r.readBits(1) }

// alignByte discards bits up to the next byte boundary.
func (r *bitReader) alignByte() {
	drop := r.nAcc % 8
	r.acc >>= drop
	r.nAcc -= drop
}

// readBytes copies n raw bytes; the stream must be byte-aligned (any
// buffered whole bytes are consumed first).
func (r *bitReader) readBytes(p []byte) error {
	if r.nAcc%8 != 0 {
		panic("deflate: readBytes on unaligned stream")
	}
	for i := range p {
		if r.nAcc >= 8 {
			p[i] = byte(r.acc)
			r.acc >>= 8
			r.nAcc -= 8
			continue
		}
		if r.pos >= len(r.data) {
			return errUnexpectedEOF
		}
		p[i] = r.data[r.pos]
		r.pos++
	}
	return nil
}
