// Package deflate implements the Deflate compressed data format
// (RFC 1951) in the two shapes SmartDIMM's (de)compression ULP uses:
//
//   - a hardware-style encoder modelling SmartDIMM's Deflate DSA
//     (§V-B): a specialization of the Fowers et al. fully pipelined
//     FPGA architecture with an 8-byte parallelization window, an
//     8-bank candidate memory that drops candidates on bank conflicts,
//     a 4KB history window, and oldest-entry replacement — best-effort
//     compression with deterministic latency;
//   - Decompress, the Inflate DSA's model and the receive path's
//     decoder: compress/flate's decoder behind a pool.
//
// The CPU baseline the paper compares against is ordinary software
// deflate (Nginx's gzip filter over zlib); the model takes it from
// compress/flate (core.SoftCompressPage). The tests prove every DSA
// stream inflates with compress/flate.
package deflate

import (
	"encoding/binary"
	"math/bits"
)

// bitWriter packs bits LSB-first into bytes, as RFC 1951 §3.1.1
// prescribes for everything except Huffman codes (which callers must
// pre-reverse; see reverseBits). Bits collect in a 64-bit accumulator
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

// alignByte flushes the accumulator, padding with zero bits to the
// next byte boundary.
func (w *bitWriter) alignByte() {
	for w.nAcc > 0 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		w.nAcc -= min(w.nAcc, 8)
	}
}

// bytes returns the stream, flushing any partial final byte.
func (w *bitWriter) bytes() []byte {
	w.alignByte()
	return w.buf
}

// reverseBits reverses the low n bits of v (n <= 32).
func reverseBits(v uint32, n uint) uint32 { return bits.Reverse32(v) >> (32 - n) }
