package deflate

import (
	"errors"
	"fmt"
)

// maxCodeLen is the longest Huffman code length Deflate permits.
const maxCodeLen = 15

// huffCode is one symbol's canonical code assignment.
type huffCode struct {
	code uint32 // canonical value, MSB-first semantics
	len  uint8  // 0 means the symbol is unused
}

// canonicalCodes assigns canonical Huffman codes for the given code
// lengths per RFC 1951 §3.2.2. Unused symbols get a zero entry.
func canonicalCodes(lengths []uint8) ([]huffCode, error) {
	var blCount [maxCodeLen + 1]int
	for _, l := range lengths {
		if l > maxCodeLen {
			return nil, fmt.Errorf("deflate: code length %d exceeds %d", l, maxCodeLen)
		}
		blCount[l]++
	}
	blCount[0] = 0
	var nextCode [maxCodeLen + 2]uint32
	code := uint32(0)
	for bits := 1; bits <= maxCodeLen; bits++ {
		code = (code + uint32(blCount[bits-1])) << 1
		nextCode[bits] = code
	}
	// Over-subscription check: the Kraft sum must not exceed 1.
	kraft := 0
	for bits := 1; bits <= maxCodeLen; bits++ {
		kraft += blCount[bits] << (maxCodeLen - bits)
	}
	if kraft > 1<<maxCodeLen {
		return nil, errors.New("deflate: over-subscribed code lengths")
	}
	out := make([]huffCode, len(lengths))
	for i, l := range lengths {
		if l > 0 {
			out[i] = huffCode{code: nextCode[l], len: l}
			nextCode[l]++
		}
	}
	return out, nil
}

// decodeTable is a bit-serial canonical Huffman decoder: firstCode and
// firstSym index codes by length, symbols are listed in canonical order.
type decodeTable struct {
	counts  [maxCodeLen + 1]int
	symbols []int
}

// newDecodeTable builds the decoder for the given code lengths.
func newDecodeTable(lengths []uint8) (*decodeTable, error) {
	t := &decodeTable{}
	for _, l := range lengths {
		if l > maxCodeLen {
			return nil, fmt.Errorf("deflate: code length %d too long", l)
		}
		if l > 0 {
			t.counts[l]++
		}
	}
	// Reject over-subscribed tables (incomplete ones are legal for
	// distance codes per the RFC errata, caught at use time instead).
	kraft := 0
	for bits := 1; bits <= maxCodeLen; bits++ {
		kraft += t.counts[bits] << (maxCodeLen - bits)
	}
	if kraft > 1<<maxCodeLen {
		return nil, errors.New("deflate: over-subscribed decode table")
	}
	var offs [maxCodeLen + 2]int
	for l := 1; l <= maxCodeLen; l++ {
		offs[l+1] = offs[l] + t.counts[l]
	}
	t.symbols = make([]int, offs[maxCodeLen+1])
	next := offs
	for sym, l := range lengths {
		if l > 0 {
			t.symbols[next[l]] = sym
			next[l]++
		}
	}
	return t, nil
}

// decode reads one symbol from the bit reader.
func (t *decodeTable) decode(r *bitReader) (int, error) {
	code, first, index := 0, 0, 0
	for l := 1; l <= maxCodeLen; l++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		code |= int(b)
		count := t.counts[l]
		if code-first < count {
			return t.symbols[index+code-first], nil
		}
		index += count
		first = (first + count) << 1
		code <<= 1
	}
	return 0, errors.New("deflate: invalid Huffman code")
}
