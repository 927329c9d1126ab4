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

// canonicalCodesInto assigns canonical Huffman codes for the given code
// lengths per RFC 1951 §3.2.2 into out, which must have len(lengths)
// entries. Unused symbols are zeroed. No allocations.
func canonicalCodesInto(out []huffCode, lengths []uint8) error {
	var blCount [maxCodeLen + 1]int
	for _, l := range lengths {
		if l > maxCodeLen {
			return fmt.Errorf("deflate: code length %d exceeds %d", l, maxCodeLen)
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
		return errors.New("deflate: over-subscribed code lengths")
	}
	for i, l := range lengths {
		if l == 0 {
			out[i] = huffCode{}
			continue
		}
		out[i] = huffCode{code: nextCode[l], len: l}
		nextCode[l]++
	}
	return nil
}

// canonicalCodes is the allocating convenience form of canonicalCodesInto.
func canonicalCodes(lengths []uint8) ([]huffCode, error) {
	out := make([]huffCode, len(lengths))
	if err := canonicalCodesInto(out, lengths); err != nil {
		return nil, err
	}
	return out, nil
}

// huffNode is one node of the Huffman construction forest; sym is -1 for
// internal nodes, left/right index the scratch node pool.
type huffNode struct {
	weight      int
	sym         int
	left, right int
}

// symLen pairs a symbol with its (possibly clamped) code length during
// length limiting.
type symLen struct {
	sym int
	len int
}

// visitFrame is one stack entry of the iterative depth assignment.
type visitFrame struct {
	idx, depth int
}

// huffScratch holds the node pool, min-heap, traversal stack, and
// length-limiting scratch for buildLengthsInto, so repeated Huffman
// construction (three trees per deflate block) does not allocate.
type huffScratch struct {
	nodes []huffNode
	heap  []int // node indices, min-heap by weight
	stack []visitFrame
	used  []symLen
}

func (s *huffScratch) push(idx int) {
	s.heap = append(s.heap, idx)
	i := len(s.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s.nodes[s.heap[p]].weight <= s.nodes[s.heap[i]].weight {
			break
		}
		s.heap[p], s.heap[i] = s.heap[i], s.heap[p]
		i = p
	}
}

func (s *huffScratch) pop() int {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(s.heap) && s.nodes[s.heap[l]].weight < s.nodes[s.heap[small]].weight {
			small = l
		}
		if r < len(s.heap) && s.nodes[s.heap[r]].weight < s.nodes[s.heap[small]].weight {
			small = r
		}
		if small == i {
			break
		}
		s.heap[i], s.heap[small] = s.heap[small], s.heap[i]
		i = small
	}
	return top
}

// buildLengthsInto computes length-limited Huffman code lengths for the
// given symbol frequencies into lengths (len(lengths) == len(freq)),
// using heap construction followed by depth limiting (the simple
// "flatten overlong codes" adjustment, which preserves prefix-freeness
// via canonical reassignment). Symbols with zero frequency get length 0.
func (s *huffScratch) buildLengthsInto(lengths []uint8, freq []int, limit int) {
	for i := range lengths {
		lengths[i] = 0
	}
	s.nodes = s.nodes[:0]
	s.heap = s.heap[:0]
	live := 0
	for sym, f := range freq {
		if f > 0 {
			s.nodes = append(s.nodes, huffNode{weight: f, sym: sym, left: -1, right: -1})
			s.push(len(s.nodes) - 1)
			live++
		}
	}
	switch live {
	case 0:
		return
	case 1:
		// Deflate requires at least a 1-bit code for a lone symbol.
		lengths[s.nodes[s.heap[0]].sym] = 1
		return
	}
	for len(s.heap) > 1 {
		a, b := s.pop(), s.pop()
		s.nodes = append(s.nodes, huffNode{weight: s.nodes[a].weight + s.nodes[b].weight, sym: -1, left: a, right: b})
		s.push(len(s.nodes) - 1)
	}
	// Assign depths iteratively.
	s.stack = append(s.stack[:0], visitFrame{s.heap[0], 0})
	for len(s.stack) > 0 {
		v := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		nd := s.nodes[v.idx]
		if nd.sym >= 0 {
			d := v.depth
			if d == 0 {
				d = 1
			}
			lengths[nd.sym] = uint8(d)
			continue
		}
		s.stack = append(s.stack, visitFrame{nd.left, v.depth + 1}, visitFrame{nd.right, v.depth + 1})
	}
	s.limitLengths(lengths, limit)
}

// buildLengths is the allocating convenience form of buildLengthsInto.
func buildLengths(freq []int, limit int) []uint8 {
	var s huffScratch
	lengths := make([]uint8, len(freq))
	s.buildLengthsInto(lengths, freq, limit)
	return lengths
}

// limitLengths enforces a maximum code length by shortening overlong
// codes and re-balancing so the Kraft inequality holds with equality:
// the limited code is complete, as inflaters require.
func (s *huffScratch) limitLengths(lengths []uint8, limit int) {
	over := false
	for _, l := range lengths {
		if int(l) > limit {
			over = true
			break
		}
	}
	if !over {
		return
	}
	// Collect used symbols sorted by (length, symbol). Keys are unique
	// (symbols are distinct), so insertion sort yields the same order
	// any comparison sort would — without allocating.
	used := s.used[:0]
	for sym, l := range lengths {
		if l > 0 {
			ln := int(l)
			if ln > limit {
				ln = limit
			}
			used = append(used, symLen{sym, ln})
		}
	}
	for i := 1; i < len(used); i++ {
		u := used[i]
		j := i - 1
		for j >= 0 && (used[j].len > u.len || (used[j].len == u.len && used[j].sym > u.sym)) {
			used[j+1] = used[j]
			j--
		}
		used[j+1] = u
	}
	// Repair Kraft: K = sum 2^(limit-len) must be <= 2^limit.
	kraft := 0
	for _, u := range used {
		kraft += 1 << (limit - u.len)
	}
	budget := 1 << limit
	// Lengthen the shortest-excess codes until within budget.
	for kraft > budget {
		// Find a symbol with len < limit whose lengthening helps most:
		// take the one with the largest current share (smallest len).
		best := -1
		for i, u := range used {
			if u.len < limit && (best == -1 || u.len < used[best].len) {
				best = i
			}
		}
		if best == -1 {
			panic("deflate: cannot satisfy length limit")
		}
		kraft -= 1 << (limit - used[best].len)
		used[best].len++
		kraft += 1 << (limit - used[best].len)
	}
	// Lengthening usually overshoots and leaves the code incomplete,
	// which inflaters reject. Fill the slack by shortening the longest
	// codes: every Kraft term is a multiple of the longest code's, so
	// the gap is too and shortening the longest code always fits.
	for kraft < budget {
		longest := 0
		for i, u := range used {
			if u.len >= used[longest].len {
				longest = i
			}
		}
		kraft += 1 << (limit - used[longest].len)
		used[longest].len--
	}
	for _, u := range used {
		lengths[u.sym] = uint8(u.len)
	}
	s.used = used
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
