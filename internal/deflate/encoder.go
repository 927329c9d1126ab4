package deflate

// Software Deflate encoder: greedy hash-chain LZ77 with lazy matching,
// emitting whichever of stored/fixed/dynamic Huffman blocks is smallest.
// This is the "ULP processed on the CPU" baseline of the paper's
// evaluation.

import (
	"encoding/binary"
	"math/bits"
	"sync"
)

const (
	hashBits  = 15
	hashSize  = 1 << hashBits
	hashShift = (32 - hashBits)
)

// EncoderOptions tunes the software encoder.
type EncoderOptions struct {
	// MaxChainLen bounds hash-chain traversal per position; higher finds
	// better matches at more CPU cost. <= 0 selects the default (64).
	MaxChainLen int
	// Lazy enables one-step lazy matching (defer a match if the next
	// position matches longer), as zlib levels >= 4 do.
	Lazy bool
	// WindowSize bounds match distances; <= 0 selects MaxDistance.
	// The hardware-style encoder uses 4096 (§V-B); the software default
	// is the full 32KB RFC window.
	WindowSize int
}

// Encoder is a reusable software deflate encoder. The hash-chain match
// finder (head/prev arrays), token buffer, Huffman construction scratch,
// and output bit accumulator all live in one arena recycled across
// EncodeAll calls, so steady-state encoding performs zero heap
// allocations beyond the output buffer the caller controls — the same
// "deflate state" shape whose cache footprint SoftDeflateStateBytes
// models in the offload backends. An Encoder is not safe for concurrent
// use; use one per connection or goroutine.
type Encoder struct {
	opts   EncoderOptions
	head   [hashSize]int32
	prev   []int32
	tokens []token
	w      bitWriter

	// Huffman/block scratch, sized to the RFC maxima.
	litFreq      [numLitLenSyms]int
	distFreq     [numDistSyms]int
	dynLit       [numLitLenSyms]uint8
	dynDist      [numDistSyms]uint8
	dynLitCodes  [numLitLenSyms]huffCode
	dynDistCodes [numDistSyms]huffCode
	clFreq       [19]int
	clLens       [19]uint8
	clCodes      [19]huffCode
	clSyms       []clSymbol
	seq          [numLitLenSyms + numDistSyms]uint8
	huff         huffScratch
}

// NewEncoder returns an encoder with the given options applied
// (defaults filled in as CompressOpts does).
func NewEncoder(o EncoderOptions) *Encoder {
	if o.MaxChainLen <= 0 {
		o.MaxChainLen = 64
	}
	if o.WindowSize <= 0 || o.WindowSize > MaxDistance {
		o.WindowSize = MaxDistance
	}
	return &Encoder{opts: o}
}

// defaultEncoders pools encoders with the default options so the
// package-level Compress reuses arenas across calls (and goroutines).
var defaultEncoders = sync.Pool{New: func() any { return NewEncoder(EncoderOptions{Lazy: true}) }}

// Compress deflates src with default options (lazy matching, 64-deep
// chains, 32KB window) into a single final block.
func Compress(src []byte) []byte {
	e := defaultEncoders.Get().(*Encoder)
	out := e.EncodeAll(src, nil)
	defaultEncoders.Put(e)
	return out
}

// CompressOpts deflates src with the given options into one final block.
func CompressOpts(src []byte, o EncoderOptions) []byte {
	return NewEncoder(o).EncodeAll(src, nil)
}

// EncodeAll deflates src into a single final block appended to dst
// (pass a slice with spare capacity to avoid output allocations too).
// The stream is byte-identical to CompressOpts with the same options.
func (e *Encoder) EncodeAll(src, dst []byte) []byte {
	e.w.buf = dst
	e.w.acc, e.w.nAcc = 0, 0
	e.lz77(src)
	e.writeBlock(e.tokens, src, true)
	out := e.w.bytes()
	e.w.buf = nil // do not retain the caller's buffer across calls
	return out
}

func hash4(b []byte) uint32 {
	// 4-byte rolling hash (multiplicative); requires len(b) >= 4.
	return (binary.LittleEndian.Uint32(b) * 2654435761) >> hashShift
}

// lz77 produces the token stream for src into e.tokens using the
// encoder's hash-chain arena.
func (e *Encoder) lz77(src []byte) {
	e.tokens = e.tokens[:0]
	if len(src) == 0 {
		return
	}
	head := &e.head
	for i := range head {
		head[i] = -1
	}
	if cap(e.prev) < len(src) {
		e.prev = make([]int32, len(src))
	}
	prev := e.prev[:len(src)]
	for i := range prev {
		prev[i] = 0
	}
	o := e.opts

	insert := func(pos int) {
		if pos+4 > len(src) {
			return
		}
		h := hash4(src[pos:])
		if head[h] == int32(pos) {
			return // already at the head; avoid a self-referential chain
		}
		prev[pos] = head[h]
		head[h] = int32(pos)
	}

	findMatch := func(pos int) (length, dist int) {
		if pos+MinMatch > len(src) || pos+4 > len(src) {
			return 0, 0
		}
		limit := pos - o.WindowSize
		if limit < 0 {
			limit = 0
		}
		maxLen := len(src) - pos
		if maxLen > MaxMatch {
			maxLen = MaxMatch
		}
		cand := head[hash4(src[pos:])]
		best, bestDist := 0, 0
		for chain := 0; cand >= int32(limit) && cand >= 0 && chain < o.MaxChainLen; chain++ {
			c := int(cand)
			if c >= pos {
				cand = prev[c]
				continue
			}
			if src[c+best] == src[pos+best] || best == 0 {
				l := matchLen(src, c, pos, maxLen)
				if l > best {
					best, bestDist = l, pos-c
					if l >= maxLen {
						break
					}
				}
			}
			cand = prev[c]
		}
		if best < MinMatch {
			return 0, 0
		}
		return best, bestDist
	}

	pos := 0
	for pos < len(src) {
		l, d := findMatch(pos)
		if l == 0 {
			e.tokens = append(e.tokens, literalToken(src[pos]))
			insert(pos)
			pos++
			continue
		}
		if o.Lazy && pos+1 < len(src) {
			insert(pos)
			l2, d2 := findMatch(pos + 1)
			if l2 > l {
				// Defer: emit current byte as literal, take the longer
				// match at pos+1 on the next iteration.
				e.tokens = append(e.tokens, literalToken(src[pos]))
				pos++
				l, d = l2, d2
			}
			e.tokens = append(e.tokens, matchToken(l, d))
			for i := 0; i < l; i++ {
				insert(pos + i)
			}
			pos += l
			continue
		}
		e.tokens = append(e.tokens, matchToken(l, d))
		for i := 0; i < l; i++ {
			insert(pos + i)
		}
		pos += l
	}
}

// matchLen returns the length of the common prefix of src[a:] and
// src[b:], capped at maxLen, comparing eight bytes at a time. a < b
// and b+maxLen <= len(src).
func matchLen(src []byte, a, b, maxLen int) int {
	n := 0
	for n+8 <= maxLen {
		if x := binary.LittleEndian.Uint64(src[a+n:]) ^ binary.LittleEndian.Uint64(src[b+n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < maxLen && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// tokenFrequencies tallies litlen and distance symbol frequencies into
// the encoder's scratch arrays (end-of-block included).
func (e *Encoder) tokenFrequencies(tokens []token) {
	for i := range e.litFreq {
		e.litFreq[i] = 0
	}
	for i := range e.distFreq {
		e.distFreq[i] = 0
	}
	for _, t := range tokens {
		if t.isLiteral() {
			e.litFreq[t.lit]++
		} else {
			e.litFreq[lengthSym[t.len]]++
			e.distFreq[distCode(int(t.dist))]++
		}
	}
	e.litFreq[endBlockSym]++
}

// writeBlock emits one block, choosing the cheapest of the three block
// types for this token stream. src is the original uncompressed data of
// the block (needed for stored fallback).
func (e *Encoder) writeBlock(tokens []token, src []byte, final bool) {
	w := &e.w
	finalBit := uint32(0)
	if final {
		finalBit = 1
	}

	e.tokenFrequencies(tokens)
	e.huff.buildLengthsInto(e.dynLit[:], e.litFreq[:], maxCodeLen)
	e.huff.buildLengthsInto(e.dynDist[:], e.distFreq[:], maxCodeLen)
	dynHeaderBits, hlit, hdist, hclen := e.dynamicHeader()
	err1 := canonicalCodesInto(e.dynLitCodes[:], e.dynLit[:])
	err2 := canonicalCodesInto(e.dynDistCodes[:], e.dynDist[:])

	costWith := func(lit, dist []huffCode) int {
		bits := 0
		for sym, f := range e.litFreq {
			if f > 0 {
				bits += f * int(lit[sym].len)
			}
		}
		for sym, f := range e.distFreq {
			if f > 0 {
				bits += f * int(dist[sym].len)
			}
		}
		for _, t := range tokens {
			if !t.isLiteral() {
				bits += int(lengthExtra[lengthSym[t.len]])
				bits += int(distExtra[distCode(int(t.dist))])
			}
		}
		return bits
	}
	fixedBits := 3 + costWith(fixedLitCodes, fixedDistCodes)
	dynBits := 3 + dynHeaderBits + costWith(e.dynLitCodes[:], e.dynDistCodes[:])
	storedBits := 3 + 16 + 16 + 8*len(src) + 7 // worst-case alignment padding

	switch {
	case err1 == nil && err2 == nil && dynBits < fixedBits && dynBits < storedBits:
		w.writeBits(finalBit, 1)
		w.writeBits(2, 2) // BTYPE=10 dynamic
		w.writeBits(uint32(hlit-257), 5)
		w.writeBits(uint32(hdist-1), 5)
		w.writeBits(uint32(hclen-4), 4)
		for i := 0; i < hclen; i++ {
			w.writeBits(uint32(e.clLens[clOrder[i]]), 3)
		}
		for _, s := range e.clSyms {
			c := e.clCodes[s.sym]
			w.writeCode(c.code, uint(c.len))
			if s.extraBits > 0 {
				w.writeBits(uint32(s.extraVal), uint(s.extraBits))
			}
		}
		writeTokens(w, tokens, e.dynLitCodes[:], e.dynDistCodes[:])
	case fixedBits <= storedBits:
		w.writeBits(finalBit, 1)
		w.writeBits(1, 2) // BTYPE=01 fixed
		writeFixedTokens(w, tokens)
	default:
		writeStored(w, src, final)
	}
}

// writeStored emits a stored (BTYPE=00) block; RFC caps stored blocks at
// 65535 bytes so long inputs are split.
func writeStored(w *bitWriter, src []byte, final bool) {
	for first := true; first || len(src) > 0; first = false {
		n := len(src)
		if n > 65535 {
			n = 65535
		}
		last := final && n == len(src)
		fb := uint32(0)
		if last {
			fb = 1
		}
		w.writeBits(fb, 1)
		w.writeBits(0, 2)
		w.alignByte()
		w.writeBits(uint32(n), 16)
		w.writeBits(uint32(n)^0xffff, 16)
		w.alignByte()
		w.writeBytes(src[:n])
		src = src[n:]
		if n == 0 {
			break
		}
	}
}

// clOrder is the fixed transmission order of code length code lengths.
var clOrder = [19]int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// clSymbol is one symbol of the RLE-compressed code length sequence.
type clSymbol struct {
	sym       int
	extraBits int
	extraVal  int
}

// dynamicHeader builds the dynamic block header pieces into the
// encoder's scratch (e.clSyms, e.clLens, e.clCodes), returning the bit
// cost and HLIT/HDIST/HCLEN.
func (e *Encoder) dynamicHeader() (bits, hlit, hdist, hclen int) {
	hlit = numLitLenSyms
	for hlit > 257 && e.dynLit[hlit-1] == 0 {
		hlit--
	}
	hdist = numDistSyms
	for hdist > 1 && e.dynDist[hdist-1] == 0 {
		hdist--
	}
	seq := e.seq[:0]
	seq = append(seq, e.dynLit[:hlit]...)
	seq = append(seq, e.dynDist[:hdist]...)

	e.clSyms = rleCodeLengths(e.clSyms[:0], seq)
	for i := range e.clFreq {
		e.clFreq[i] = 0
	}
	for _, s := range e.clSyms {
		e.clFreq[s.sym]++
	}
	e.huff.buildLengthsInto(e.clLens[:], e.clFreq[:], 7)
	canonicalCodesInto(e.clCodes[:], e.clLens[:])

	hclen = 19
	for hclen > 4 && e.clLens[clOrder[hclen-1]] == 0 {
		hclen--
	}
	bits = 5 + 5 + 4 + 3*hclen
	for _, s := range e.clSyms {
		bits += int(e.clLens[s.sym]) + s.extraBits
	}
	return
}

// rleCodeLengths run-length encodes a code length sequence with symbols
// 16 (repeat previous 3-6), 17 (zeros 3-10), 18 (zeros 11-138),
// appending to out.
func rleCodeLengths(out []clSymbol, seq []uint8) []clSymbol {
	i := 0
	for i < len(seq) {
		v := seq[i]
		run := 1
		for i+run < len(seq) && seq[i+run] == v {
			run++
		}
		if v == 0 {
			for run >= 11 {
				n := run
				if n > 138 {
					n = 138
				}
				out = append(out, clSymbol{sym: 18, extraBits: 7, extraVal: n - 11})
				run -= n
				i += n
			}
			if run >= 3 {
				out = append(out, clSymbol{sym: 17, extraBits: 3, extraVal: run - 3})
				i += run
				run = 0
			}
			for ; run > 0; run-- {
				out = append(out, clSymbol{sym: 0})
				i++
			}
			continue
		}
		// Non-zero: emit the value once, then repeats of 3-6.
		out = append(out, clSymbol{sym: int(v)})
		i++
		run--
		for run >= 3 {
			n := run
			if n > 6 {
				n = 6
			}
			out = append(out, clSymbol{sym: 16, extraBits: 2, extraVal: n - 3})
			run -= n
			i += n
		}
		for ; run > 0; run-- {
			out = append(out, clSymbol{sym: int(v)})
			i++
		}
	}
	return out
}
