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
