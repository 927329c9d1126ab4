package deflate

// Hardware-style Deflate encoder: a functional model of SmartDIMM's
// Deflate DSA (§V-B), specialized from the Fowers et al. FPGA pipeline:
//
//   - data is consumed in 64-byte chunks, one per buffer-device clock,
//     best effort;
//   - match candidates live in an N-bank Config Memory hash table with a
//     bounded number of ports per bank; when more positions in the
//     current parallelization window hash to one bank than it has ports,
//     the excess candidates are DROPPED (compression ratio is traded for
//     deterministic single-cycle latency);
//   - the history window is 4KB (the hash table "covers a 4KB window"),
//     and when the table is full the oldest substring is replaced —
//     modelled by direct-mapped overwrite, hardware's oldest-wins
//     behaviour at a fixed table size;
//   - the parallelization window is 8 bytes: the pipeline examines 8
//     consecutive positions per stage and selects non-overlapping
//     matches within the window greedily.
//
// The emitted stream uses fixed Huffman codes, giving the deterministic
// output latency the paper's design choices aim for.

import (
	"bytes"
	"math/bits"
)

// HWConfig parameterizes the DSA model. The zero value is invalid; use
// PaperHWConfig for the paper's configuration, or adjust fields for the
// §V-B ablation benches.
type HWConfig struct {
	// ParallelWindow is the number of consecutive byte positions examined
	// per pipeline stage (the paper uses 8).
	ParallelWindow int
	// Banks is the number of Config Memory banks holding candidates (8).
	Banks int
	// PortsPerBank is how many candidate reads/updates one bank serves
	// per cycle; excess candidates in a window are dropped (8).
	PortsPerBank int
	// WindowSize is the history window in bytes (4096).
	WindowSize int
	// TableEntries is the total number of candidate slots across banks;
	// a full table replaces the oldest entry (per bank, direct-mapped).
	TableEntries int
}

// PaperHWConfig returns the §V-B configuration: 8-byte parallelization
// window, 8 banks x 8 ports, 4KB history window.
func PaperHWConfig() HWConfig {
	return HWConfig{
		ParallelWindow: 8,
		Banks:          8,
		PortsPerBank:   8,
		WindowSize:     4096,
		TableEntries:   4096,
	}
}

// HWStats reports the DSA-internal events the ablation benches examine.
type HWStats struct {
	Cycles          uint64 // 64-byte chunk cycles consumed
	BankConflicts   uint64 // candidate lookups dropped due to port limits
	CandidateProbes uint64 // total candidate lookups attempted
	Matches         uint64 // matches emitted
	Literals        uint64 // literals emitted
	Replaced        uint64 // hash entries overwritten (oldest replaced)
}

// HWEncoder is a reusable hardware-style Deflate encoder instance. It
// owns all of its scratch: the candidate table, the per-window port
// counters, the candidate and token buffers and the bit writer. The
// table is never cleared: each Compress call stamps a new generation
// and entries of older generations read as empty, which is how the
// hardware's per-page table reset costs nothing here. An HWEncoder is
// not safe for concurrent use.
type HWEncoder struct {
	cfg   HWConfig
	stats HWStats

	entriesPerBank int
	// pow2 selects the shift/mask index path: Banks and entriesPerBank
	// are both powers of two (the paper configuration).
	pow2                 bool
	bankMask, bankShift  uint32
	slotMask, entryShift uint32

	table   []hwEntry // Banks x entriesPerBank, bank-major
	gen     uint32    // current Compress call's stamp; 0 is never live
	portUse []int32   // per-bank reads this window; zero between windows
	cands   []hwCand
	tokens  []token
	w       bitWriter
	out     []byte
}

// NewHWEncoder returns an encoder for cfg. Non-positive fields take the
// paper's values, and WindowSize is clamped to MaxDistance, the longest
// distance a Deflate stream can encode.
func NewHWEncoder(cfg HWConfig) *HWEncoder {
	cfg = cfg.WithDefaults()
	if cfg.WindowSize > MaxDistance {
		cfg.WindowSize = MaxDistance
	}
	epb := max(cfg.TableEntries/cfg.Banks, 1)
	e := &HWEncoder{
		cfg:            cfg,
		entriesPerBank: epb,
		table:          make([]hwEntry, cfg.Banks*epb),
		portUse:        make([]int32, cfg.Banks),
		cands:          make([]hwCand, 0, cfg.ParallelWindow),
	}
	if isPow2(cfg.Banks) && isPow2(epb) {
		e.pow2 = true
		e.bankMask = uint32(cfg.Banks - 1)
		e.bankShift = uint32(bits.TrailingZeros(uint(cfg.Banks)))
		e.slotMask = uint32(epb - 1)
		e.entryShift = uint32(bits.TrailingZeros(uint(epb)))
	}
	return e
}

// WithDefaults returns c with every non-positive field replaced by the
// paper's value (PaperHWConfig).
func (c HWConfig) WithDefaults() HWConfig {
	p := PaperHWConfig()
	if c.ParallelWindow <= 0 {
		c.ParallelWindow = p.ParallelWindow
	}
	if c.Banks <= 0 {
		c.Banks = p.Banks
	}
	if c.PortsPerBank <= 0 {
		c.PortsPerBank = p.PortsPerBank
	}
	if c.WindowSize <= 0 {
		c.WindowSize = p.WindowSize
	}
	if c.TableEntries <= 0 {
		c.TableEntries = p.TableEntries
	}
	return c
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Stats returns the accumulated DSA statistics.
func (e *HWEncoder) Stats() HWStats { return e.stats }

// ResetStats zeroes the statistics.
func (e *HWEncoder) ResetStats() { e.stats = HWStats{} }

// ChunkSize is the data consumed per DSA cycle (one DDR burst).
const ChunkSize = 64

// Compress deflates src as the DSA would, returning an RFC 1951 stream
// (single final block, fixed Huffman codes) in a new slice the caller
// owns. The paper compresses at 4KB page granularity; larger inputs are
// legal here but the history window still never exceeds the configured
// size.
func (e *HWEncoder) Compress(src []byte) []byte {
	e.out = e.AppendCompress(e.out[:0], src)
	return bytes.Clone(e.out)
}

// AppendCompress appends the stream Compress would return to dst and
// returns the extended slice. With enough spare capacity in dst the
// stream is written in place, without allocating.
func (e *HWEncoder) AppendCompress(dst, src []byte) []byte {
	tokens := e.lz77HW(src)
	w := &e.w
	w.buf, w.acc, w.nAcc = dst, 0, 0
	w.writeBits(1, 1) // BFINAL
	w.writeBits(1, 2) // BTYPE=01 fixed
	writeFixedTokens(w, tokens)
	out := w.bytes()
	w.buf = nil // do not retain the caller's buffer across calls
	return out
}

// hwEntry is one candidate slot: the position of a previous occurrence,
// live only when gen is the encoder's current generation.
type hwEntry struct {
	pos int32
	gen uint32
}

// hwCand is one position of the current parallelization window.
type hwCand struct {
	at   int32 // position in src
	prev int32 // candidate previous occurrence, -1 if none
	bank int32 // bank whose port this probe used, -1 if none
}

// slot returns the bank and the flat table index hash h maps to.
func (e *HWEncoder) slot(h uint32) (bank, idx int) {
	if e.pow2 {
		b := h & e.bankMask
		return int(b), int(b<<e.entryShift | (h>>e.bankShift)&e.slotMask)
	}
	b := int(h) % e.cfg.Banks
	return b, b*e.entriesPerBank + int(h/uint32(e.cfg.Banks))%e.entriesPerBank
}

// lz77HW runs the banked best-effort match pipeline into e.tokens.
func (e *HWEncoder) lz77HW(src []byte) []token {
	tokens := e.tokens[:0]
	if len(src) == 0 {
		e.tokens = tokens
		return tokens
	}
	e.gen++
	if e.gen == 0 {
		// The stamp wrapped: clear so no entry from 2^32 calls ago
		// reads as live.
		clear(e.table)
		e.gen = 1
	}
	cfg := e.cfg
	gen, table, portUse := e.gen, e.table, e.portUse
	st := e.stats

	pos := 0
	for pos < len(src) {
		// One pipeline stage: examine up to ParallelWindow positions.
		winEnd := min(pos+cfg.ParallelWindow, len(src))
		if pos%ChunkSize == 0 {
			st.Cycles++
		}
		cands := e.cands[:0]
		for p := pos; p < winEnd; p++ {
			c := hwCand{at: int32(p), prev: -1, bank: -1}
			if p+4 > len(src) {
				cands = append(cands, c)
				continue
			}
			b, i := e.slot(hash4(src[p:]))
			st.CandidateProbes++
			if int(portUse[b]) >= cfg.PortsPerBank {
				// Bank conflict: candidate dropped, no table update.
				st.BankConflicts++
				cands = append(cands, c)
				continue
			}
			portUse[b]++
			c.bank = int32(b)
			if entry := table[i]; entry.gen == gen {
				if prev := int(entry.pos); prev < p && p-prev <= cfg.WindowSize {
					c.prev = entry.pos
				}
				if int(entry.pos) != p {
					st.Replaced++
				}
			}
			table[i] = hwEntry{pos: int32(p), gen: gen}
			cands = append(cands, c)
		}

		// Greedy non-overlapping match selection within the window.
		// Candidates are contiguous, so each one either starts at the
		// first unconsumed byte or lies inside an earlier match.
		consumed := pos
		for _, c := range cands {
			if c.bank >= 0 {
				portUse[c.bank] = 0
			}
			at := int(c.at)
			if at < consumed {
				continue
			}
			if c.prev >= 0 {
				l := matchLen(src, int(c.prev), at, min(len(src)-at, MaxMatch))
				if l >= MinMatch {
					tokens = append(tokens, matchToken(l, at-int(c.prev)))
					st.Matches++
					consumed += l
					continue
				}
			}
			tokens = append(tokens, literalToken(src[at]))
			st.Literals++
			consumed++
		}
		e.cands = cands
		pos = consumed
	}
	e.stats = st
	e.tokens = tokens
	return tokens
}

// CompressionRatio is a convenience helper returning the achieved
// original/compressed size ratio for this encoder on src.
func (e *HWEncoder) CompressionRatio(src []byte) float64 {
	if len(src) == 0 {
		return 1
	}
	out := e.Compress(src)
	return float64(len(src)) / float64(len(out))
}
