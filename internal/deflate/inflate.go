package deflate

import (
	"errors"
	"fmt"
)

// Decompression errors.
var (
	ErrCorrupt = errors.New("deflate: corrupt stream")
)

// Decompress inflates a complete RFC 1951 stream. It accepts output from
// HWEncoder and from any conforming encoder (the tests check
// compress/flate interop), and is used by the receive path of the
// (de)compression ULP.
func Decompress(data []byte) ([]byte, error) {
	return DecompressLimit(data, 1<<30)
}

// DecompressLimit inflates with an output size cap, guarding against
// decompression bombs in the server model.
func DecompressLimit(data []byte, limit int) ([]byte, error) {
	r := newBitReader(data)
	var out []byte
	for {
		final, err := r.readBit()
		if err != nil {
			return nil, err
		}
		btype, err := r.readBits(2)
		if err != nil {
			return nil, err
		}
		switch btype {
		case 0: // stored
			r.alignByte()
			lenBits, err := r.readBits(16)
			if err != nil {
				return nil, err
			}
			nlenBits, err := r.readBits(16)
			if err != nil {
				return nil, err
			}
			if lenBits != ^nlenBits&0xffff {
				return nil, fmt.Errorf("%w: stored block LEN/NLEN mismatch", ErrCorrupt)
			}
			if len(out)+int(lenBits) > limit {
				return nil, fmt.Errorf("%w: output exceeds limit", ErrCorrupt)
			}
			chunk := make([]byte, lenBits)
			if err := r.readBytes(chunk); err != nil {
				return nil, err
			}
			out = append(out, chunk...)
		case 1: // fixed Huffman
			out, err = inflateBlock(r, out, fixedLitDecode, fixedDistDecode, limit)
			if err != nil {
				return nil, err
			}
		case 2: // dynamic Huffman
			lit, dist, err := readDynamicTables(r)
			if err != nil {
				return nil, err
			}
			out, err = inflateBlock(r, out, lit, dist, limit)
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: reserved block type", ErrCorrupt)
		}
		if final == 1 {
			return out, nil
		}
	}
}

// The fixed-code decoders never change, so every fixed block shares
// one pair built at init.
var fixedLitDecode, fixedDistDecode *decodeTable

func init() {
	fixedLitDecode, _ = newDecodeTable(fixedLitLenLengths())
	fixedDistDecode, _ = newDecodeTable(fixedDistLengths())
}

// clOrder is the fixed transmission order of code length code lengths.
var clOrder = [19]int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// readDynamicTables parses the dynamic block header (HLIT/HDIST/HCLEN and
// the RLE-compressed code lengths).
func readDynamicTables(r *bitReader) (lit, dist *decodeTable, err error) {
	hlitBits, err := r.readBits(5)
	if err != nil {
		return nil, nil, err
	}
	hdistBits, err := r.readBits(5)
	if err != nil {
		return nil, nil, err
	}
	hclenBits, err := r.readBits(4)
	if err != nil {
		return nil, nil, err
	}
	hlit := int(hlitBits) + 257
	hdist := int(hdistBits) + 1
	hclen := int(hclenBits) + 4
	if hlit > numLitLenSyms || hdist > numDistSyms {
		return nil, nil, fmt.Errorf("%w: header counts out of range", ErrCorrupt)
	}

	clLens := make([]uint8, 19)
	for i := 0; i < hclen; i++ {
		v, err := r.readBits(3)
		if err != nil {
			return nil, nil, err
		}
		clLens[clOrder[i]] = uint8(v)
	}
	clTable, err := newCompleteDecodeTable(clLens)
	if err != nil {
		return nil, nil, err
	}

	lens := make([]uint8, hlit+hdist)
	for i := 0; i < len(lens); {
		sym, err := clTable.decode(r)
		if err != nil {
			return nil, nil, err
		}
		switch {
		case sym < 16:
			lens[i] = uint8(sym)
			i++
		case sym == 16:
			if i == 0 {
				return nil, nil, fmt.Errorf("%w: repeat with no previous length", ErrCorrupt)
			}
			n, err := r.readBits(2)
			if err != nil {
				return nil, nil, err
			}
			rep := int(n) + 3
			if i+rep > len(lens) {
				return nil, nil, fmt.Errorf("%w: repeat overruns lengths", ErrCorrupt)
			}
			for j := 0; j < rep; j++ {
				lens[i] = lens[i-1]
				i++
			}
		case sym == 17:
			n, err := r.readBits(3)
			if err != nil {
				return nil, nil, err
			}
			rep := int(n) + 3
			if i+rep > len(lens) {
				return nil, nil, fmt.Errorf("%w: zero run overruns lengths", ErrCorrupt)
			}
			i += rep
		case sym == 18:
			n, err := r.readBits(7)
			if err != nil {
				return nil, nil, err
			}
			rep := int(n) + 11
			if i+rep > len(lens) {
				return nil, nil, fmt.Errorf("%w: zero run overruns lengths", ErrCorrupt)
			}
			i += rep
		default:
			return nil, nil, fmt.Errorf("%w: bad code length symbol %d", ErrCorrupt, sym)
		}
	}
	if lens[endBlockSym] == 0 {
		return nil, nil, fmt.Errorf("%w: no end-of-block code", ErrCorrupt)
	}
	lit, err = newCompleteDecodeTable(lens[:hlit])
	if err != nil {
		return nil, nil, err
	}
	dist, err = newCompleteDecodeTable(lens[hlit:])
	if err != nil {
		return nil, nil, err
	}
	return lit, dist, nil
}

// newCompleteDecodeTable builds a dynamic block's decoder and, as zlib
// and compress/flate do, rejects an incomplete code unless it is empty
// or a single one-bit code.
func newCompleteDecodeTable(lengths []uint8) (*decodeTable, error) {
	t, err := newDecodeTable(lengths)
	if err != nil {
		return nil, err
	}
	kraft, used := 0, 0
	for l := 1; l <= maxCodeLen; l++ {
		kraft += t.counts[l] << (maxCodeLen - l)
		used += t.counts[l]
	}
	if kraft != 1<<maxCodeLen && used != 0 && !(used == 1 && t.counts[1] == 1) {
		return nil, fmt.Errorf("%w: incomplete Huffman code", ErrCorrupt)
	}
	return t, nil
}

// inflateBlock decodes one block's symbol stream into out.
func inflateBlock(r *bitReader, out []byte, lit, dist *decodeTable, limit int) ([]byte, error) {
	for {
		sym, err := lit.decode(r)
		if err != nil {
			return nil, err
		}
		switch {
		case sym < 256:
			if len(out) >= limit {
				return nil, fmt.Errorf("%w: output exceeds limit", ErrCorrupt)
			}
			out = append(out, byte(sym))
		case sym == endBlockSym:
			return out, nil
		case sym < numLitLenSyms:
			extra := lengthExtra[sym]
			length := int(lengthBase[sym])
			if extra > 0 {
				v, err := r.readBits(uint(extra))
				if err != nil {
					return nil, err
				}
				length += int(v)
			}
			dsym, err := dist.decode(r)
			if err != nil {
				return nil, err
			}
			if dsym >= numDistSyms {
				return nil, fmt.Errorf("%w: bad distance symbol %d", ErrCorrupt, dsym)
			}
			distance := int(distBase[dsym])
			if de := distExtra[dsym]; de > 0 {
				v, err := r.readBits(uint(de))
				if err != nil {
					return nil, err
				}
				distance += int(v)
			}
			if distance > len(out) {
				return nil, fmt.Errorf("%w: distance %d beyond output", ErrCorrupt, distance)
			}
			if len(out)+length > limit {
				return nil, fmt.Errorf("%w: output exceeds limit", ErrCorrupt)
			}
			// Byte-by-byte copy: overlapping copies are the mechanism
			// behind run-length behaviour (dist < len).
			start := len(out) - distance
			for i := 0; i < length; i++ {
				out = append(out, out[start+i])
			}
		default:
			return nil, fmt.Errorf("%w: bad literal/length symbol %d", ErrCorrupt, sym)
		}
	}
}
