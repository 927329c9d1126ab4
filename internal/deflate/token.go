package deflate

// The Deflate symbol alphabets (RFC 1951 §3.2.5-6): length and
// distance codes and the fixed Huffman code tables.

// Match-length limits of Deflate.
const (
	MinMatch = 3
	MaxMatch = 258
	// MaxDistance is the largest backward distance RFC 1951 allows.
	MaxDistance = 32768

	endBlockSym   = 256
	numLitLenSyms = 286
	numDistSyms   = 30
)

// lengthCode maps a match length (3..258) to its litlen symbol, extra
// bit count, and extra bit value. Tables generated at init per RFC 1951
// §3.2.5.
var (
	lengthSym   [MaxMatch + 1]uint16
	lengthExtra [numLitLenSyms]uint8
	lengthBase  [numLitLenSyms]uint16
	distExtra   [numDistSyms]uint8
	distBase    [numDistSyms]uint32
)

func init() {
	// Length codes 257..285.
	sym, base := 257, 3
	group := []struct {
		count, extra int
	}{
		{8, 0}, {4, 1}, {4, 2}, {4, 3}, {4, 4}, {4, 5},
	}
	for _, g := range group {
		for i := 0; i < g.count; i++ {
			lengthExtra[sym] = uint8(g.extra)
			lengthBase[sym] = uint16(base)
			span := 1 << g.extra
			for l := base; l < base+span && l <= MaxMatch; l++ {
				lengthSym[l] = uint16(sym)
			}
			base += span
			sym++
		}
	}
	// Code 285 is the special single-value 258 with 0 extra bits.
	lengthExtra[285] = 0
	lengthBase[285] = 258
	lengthSym[258] = 285

	// Distance codes 0..29.
	dbase := 1
	for code := 0; code < numDistSyms; code++ {
		extra := 0
		if code >= 2 {
			extra = code/2 - 1
		}
		distExtra[code] = uint8(extra)
		distBase[code] = uint32(dbase)
		dbase += 1 << extra
	}
}

// distSym maps a distance to its symbol the way zlib's _dist_code
// does: distances 1..256 index the first half directly, longer ones by
// (d-1)>>7, since every symbol above 15 spans a multiple of 128.
var distSym [512]uint8

func init() {
	code := 0
	for d := 1; d <= MaxDistance; d++ {
		for code+1 < numDistSyms && int(distBase[code+1]) <= d {
			code++
		}
		if d <= 256 {
			distSym[d-1] = uint8(code)
		} else {
			distSym[256+(d-1)>>7] = uint8(code)
		}
	}
}

// distCode maps a distance (1..32768) to its distance symbol.
func distCode(d int) int {
	if d <= 256 {
		return int(distSym[d-1])
	}
	return int(distSym[256+(d-1)>>7])
}

// fixedLitLenLengths returns the code lengths of the fixed litlen code
// (RFC 1951 §3.2.6).
func fixedLitLenLengths() []uint8 {
	l := make([]uint8, 288)
	for i := 0; i <= 143; i++ {
		l[i] = 8
	}
	for i := 144; i <= 255; i++ {
		l[i] = 9
	}
	for i := 256; i <= 279; i++ {
		l[i] = 7
	}
	for i := 280; i <= 287; i++ {
		l[i] = 8
	}
	return l
}

// fixedDistLengths returns the code lengths of the fixed distance code.
func fixedDistLengths() []uint8 {
	l := make([]uint8, 30)
	for i := range l {
		l[i] = 5
	}
	return l
}

// The fixed Huffman codes never change, so their canonical assignment
// is built once at init.
var (
	fixedLitCodes  []huffCode
	fixedDistCodes []huffCode
)

func init() {
	fixedLitCodes, _ = canonicalCodes(fixedLitLenLengths())
	fixedDistCodes, _ = canonicalCodes(fixedDistLengths())
}

// revCode is a pre-reversed bit string ready for bitWriter.writeBits.
type revCode struct {
	bits uint32
	n    uint8
}

// Fixed-code emission tables: each literal's reversed code, each match
// length's reversed length code followed by its extra bits, and each
// distance symbol's reversed 5-bit code.
var (
	fixedLitBits [256]revCode
	fixedLenBits [MaxMatch + 1]revCode
	fixedDistRev [numDistSyms]uint32
	fixedEOBBits revCode
)

func init() {
	rev := func(c huffCode) revCode {
		return revCode{reverseBits(c.code, uint(c.len)), c.len}
	}
	for b := range fixedLitBits {
		fixedLitBits[b] = rev(fixedLitCodes[b])
	}
	for l := MinMatch; l <= MaxMatch; l++ {
		sym := lengthSym[l]
		c := rev(fixedLitCodes[sym])
		c.bits |= uint32(l-int(lengthBase[sym])) << c.n
		c.n += lengthExtra[sym]
		fixedLenBits[l] = c
	}
	for d := range fixedDistRev {
		fixedDistRev[d] = rev(fixedDistCodes[d]).bits
	}
	fixedEOBBits = rev(fixedLitCodes[endBlockSym])
}
