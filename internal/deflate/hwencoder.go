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
	"encoding/binary"
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
// owns all of its scratch: the candidate table, the per-window
// candidate and port-counter arrays and the output buffer. An HWEncoder
// is not safe for concurrent use.
type HWEncoder struct {
	cfg   HWConfig
	stats HWStats

	entriesPerBank int
	// pow2 selects the mask index path: Banks and entriesPerBank are
	// both powers of two (the paper configuration).
	pow2                bool
	bankMask, tableMask uint32

	// table holds entriesPerBank rows of Banks entries: the entry of
	// bank b, slot s is table[s*Banks+b]. With power-of-two sizes that
	// index is the hash's low bits. An entry holds the position of a
	// previous occurrence plus one, and 0 when empty; each call clears
	// the table, as the hardware resets it per page.
	table []int32
	// cand holds each window position's candidate: the entry its probe
	// read, 0 when it was not probed or the probe was dropped.
	cand []int32
	// portUse counts each bank's reads in the current window and used
	// lists the banks read, so they are zeroed once the window's probes
	// are done. Both are nil when PortsPerBank >= ParallelWindow: one
	// window's probes then cannot oversubscribe a bank.
	portUse []int32
	used    []int32
	out     []byte
}

// NewHWEncoder returns an encoder for cfg. Non-positive fields take the
// paper's values, and WindowSize is clamped to maxDistance, the longest
// distance a Deflate stream can encode.
func NewHWEncoder(cfg HWConfig) *HWEncoder {
	cfg = cfg.withDefaults()
	if cfg.WindowSize > maxDistance {
		cfg.WindowSize = maxDistance
	}
	epb := max(cfg.TableEntries/cfg.Banks, 1)
	e := &HWEncoder{
		cfg:            cfg,
		entriesPerBank: epb,
		table:          make([]int32, cfg.Banks*epb),
		cand:           make([]int32, cfg.ParallelWindow),
	}
	if cfg.PortsPerBank < cfg.ParallelWindow {
		e.portUse = make([]int32, cfg.Banks)
		e.used = make([]int32, 0, cfg.ParallelWindow)
	}
	if isPow2(cfg.Banks) && isPow2(epb) {
		e.pow2 = true
		e.bankMask = uint32(cfg.Banks - 1)
		e.tableMask = uint32(cfg.Banks*epb - 1)
	}
	return e
}

// withDefaults returns c with every non-positive field replaced by the
// paper's value (PaperHWConfig).
func (c HWConfig) withDefaults() HWConfig {
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

const (
	hashBits  = 15
	hashShift = (32 - hashBits)
)

func hash4(b []byte) uint32 {
	// 4-byte rolling hash (multiplicative); requires len(b) >= 4.
	return (binary.LittleEndian.Uint32(b) * 2654435761) >> hashShift
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

// Stats returns the accumulated DSA statistics.
func (e *HWEncoder) Stats() HWStats { return e.stats }

// chunkSize is the data consumed per DSA cycle (one DDR burst).
const chunkSize = 64

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
//
// The pipeline runs in one pass over src, one parallelization window
// at a time. The probe phase hashes every position of the window that
// has four bytes left, reads its bank's slot (dropping the probe when
// the bank's ports are used up), keeps the entry as the position's
// candidate and writes the position into the slot. The select phase
// walks the window greedily: a position whose candidate lies within
// the history window and shares its first three bytes starts a match,
// any other emits a literal, and a match may run past the window's
// end. Each symbol's fixed-code bits go straight into the bit
// accumulator.
func (e *HWEncoder) AppendCompress(dst, src []byte) []byte {
	n := len(src)
	pw, window, cand := e.cfg.ParallelWindow, e.cfg.WindowSize, e.cand
	var matches, literals uint64
	if n > 0 {
		clear(e.table)
	}

	// BFINAL=1, BTYPE=01 (fixed Huffman codes).
	acc, nAcc, buf := uint64(0b011), uint(3), dst
	for pos := 0; pos < n; {
		winEnd := min(pos+pw, n)
		// Positions with fewer than four bytes left are not probed.
		probeEnd := max(min(winEnd, n-3), pos)
		e.probe(src, pos, cand[:probeEnd-pos])
		clear(cand[probeEnd-pos : winEnd-pos])

		at := pos
		for at < winEnd {
			// A symbol's fixed-code bits: a literal, or a length code
			// with its extra bits followed by a distance code with its.
			var code uint64
			var nBits uint
			// A candidate is its slot's entry, position plus one: live
			// when non-zero and within the history window.
			if v := int(cand[at-pos]); v != 0 && at+1-v <= window &&
				(binary.LittleEndian.Uint32(src[v-1:])^binary.LittleEndian.Uint32(src[at:]))&0xffffff == 0 {
				prev := v - 1
				l := matchLen(src, prev, at, min(n-at, MaxMatch))
				d := at - prev
				dsym := distCode(d)
				lc := fixedLenBits[l]
				dbits := fixedDistRev[dsym] | uint32(d-int(distBase[dsym]))<<5
				code = uint64(lc.bits) | uint64(dbits)<<lc.n
				nBits = uint(lc.n) + 5 + uint(distExtra[dsym])
				matches++
				at += l
			} else {
				c := fixedLitBits[src[at]]
				code, nBits = uint64(c.bits), uint(c.n)
				literals++
				at++
			}
			acc |= code << nAcc
			nAcc += nBits
			if nAcc >= 32 {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(acc))
				acc >>= 32
				nAcc -= 32
			}
		}
		pos = at
	}
	e.stats.Cycles += uint64((n + chunkSize - 1) / chunkSize)
	e.stats.Matches += matches
	e.stats.Literals += literals

	w := bitWriter{buf: buf, acc: acc, nAcc: nAcc}
	w.writeBits(fixedEOBBits.bits, uint(fixedEOBBits.n))
	return w.bytes()
}

// probe runs the probe phase for the window positions pos ..
// pos+len(cand)-1, each with four bytes left: it sets each position's
// candidate to the entry its slot held and writes the position into
// the slot. A probe whose bank has no port left is dropped, with no
// candidate and no table update. Its own loop keeps the hot locals few.
func (e *HWEncoder) probe(src []byte, pos int, cand []int32) {
	table := e.table
	var replaced, conflicts uint64
	for k := range cand {
		h := hash4(src[pos+k:])
		i := h & e.tableMask
		if !e.pow2 {
			banks := uint32(e.cfg.Banks)
			i = h/banks%uint32(e.entriesPerBank)*banks + h%banks
		}
		if e.portUse != nil && !e.takePort(h) {
			conflicts++
			cand[k] = 0
			continue
		}
		v := table[i]
		replaced += uint64(uint32(-v) >> 31) // v > 0: a live entry is overwritten
		table[i] = int32(pos + k + 1)
		cand[k] = v
	}
	for _, b := range e.used {
		e.portUse[b] = 0
	}
	e.used = e.used[:0]
	e.stats.CandidateProbes += uint64(len(cand))
	e.stats.BankConflicts += conflicts
	e.stats.Replaced += replaced
}

// takePort claims one of hash h's bank's ports for the current window,
// reporting false when the bank has none left.
func (e *HWEncoder) takePort(h uint32) bool {
	b := h & e.bankMask
	if !e.pow2 {
		b = h % uint32(e.cfg.Banks)
	}
	if int(e.portUse[b]) >= e.cfg.PortsPerBank {
		return false
	}
	if e.portUse[b] == 0 {
		e.used = append(e.used, int32(b))
	}
	e.portUse[b]++
	return true
}
