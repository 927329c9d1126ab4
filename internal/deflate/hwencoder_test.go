package deflate

import (
	"bytes"
	"compress/flate"
	"io"
	"math/rand"
	"testing"

	"repro/internal/corpus"
)

// token is one symbol of the reference pipeline's output: a literal
// byte (dist == 0) or a match.
type token struct {
	lit  byte
	len  uint16 // match length, MinMatch..MaxMatch
	dist uint16 // match distance, 1..MaxDistance; 0 => literal
}

func (t token) isLiteral() bool { return t.dist == 0 }

// lz77HWReference is the straightforward banked match pipeline whose
// tokens, emitted bit by bit by compressReference, the one-pass
// HWEncoder must reproduce byte for byte and counter for counter: a
// fresh Banks x entriesPerBank table per call, per-window port counters
// and candidate lists, and division-based bank/slot indexing. cfg must
// already carry NewHWEncoder's defaults.
func lz77HWReference(cfg HWConfig, st *HWStats, src []byte) []token {
	type hwRefEntry struct {
		pos   int32
		valid bool
	}
	var tokens []token
	if len(src) == 0 {
		return tokens
	}
	entriesPerBank := cfg.TableEntries / cfg.Banks
	if entriesPerBank == 0 {
		entriesPerBank = 1
	}
	st.Cycles += uint64((len(src) + ChunkSize - 1) / ChunkSize)
	table := make([][]hwRefEntry, cfg.Banks)
	for b := range table {
		table[b] = make([]hwRefEntry, entriesPerBank)
	}
	bankOf := func(h uint32) int { return int(h) % cfg.Banks }
	slotOf := func(h uint32) int { return int(h/uint32(cfg.Banks)) % entriesPerBank }

	pos := 0
	for pos < len(src) {
		winEnd := pos + cfg.ParallelWindow
		if winEnd > len(src) {
			winEnd = len(src)
		}
		portUse := make([]int, cfg.Banks)
		type cand struct{ at, prev int }
		cands := make([]cand, 0, cfg.ParallelWindow)
		for p := pos; p < winEnd; p++ {
			if p+4 > len(src) {
				cands = append(cands, cand{at: p, prev: -1})
				continue
			}
			h := hash4(src[p:])
			b, s := bankOf(h), slotOf(h)
			st.CandidateProbes++
			if portUse[b] >= cfg.PortsPerBank {
				st.BankConflicts++
				cands = append(cands, cand{at: p, prev: -1})
				continue
			}
			portUse[b]++
			entry := table[b][s]
			prevPos := -1
			if entry.valid && int(entry.pos) < p && p-int(entry.pos) <= cfg.WindowSize {
				prevPos = int(entry.pos)
			}
			if entry.valid && int(entry.pos) != p {
				st.Replaced++
			}
			table[b][s] = hwRefEntry{pos: int32(p), valid: true}
			cands = append(cands, cand{at: p, prev: prevPos})
		}
		consumed := pos
		for _, c := range cands {
			if c.at < consumed {
				continue
			}
			for consumed < c.at {
				tokens = append(tokens, token{lit: src[consumed]})
				st.Literals++
				consumed++
			}
			if c.prev < 0 {
				tokens = append(tokens, token{lit: src[c.at]})
				st.Literals++
				consumed++
				continue
			}
			maxLen := len(src) - c.at
			if maxLen > MaxMatch {
				maxLen = MaxMatch
			}
			l := 0
			for l < maxLen && src[c.prev+l] == src[c.at+l] {
				l++
			}
			if l < MinMatch {
				tokens = append(tokens, token{lit: src[c.at]})
				st.Literals++
				consumed++
				continue
			}
			tokens = append(tokens, token{len: uint16(l), dist: uint16(c.at - c.prev)})
			st.Matches++
			consumed += l
		}
		for consumed < winEnd {
			tokens = append(tokens, token{lit: src[consumed]})
			st.Literals++
			consumed++
		}
		pos = consumed
	}
	return tokens
}

// distCodeReference is the binary search over the 30 distance bases
// that the distSym table replaces.
func distCodeReference(d int) int {
	lo, hi := 0, numDistSyms-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if int(distBase[mid]) <= d {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// compressReference emits the fixed-Huffman stream for tokens one bit
// at a time, with the canonical codes reversed bit by bit: the
// reference for AppendCompress's table-driven emit.
func compressReference(tokens []token) []byte {
	var out []byte
	var acc uint64
	var nAcc uint
	put := func(v uint32, n uint) {
		for i := uint(0); i < n; i++ {
			acc |= uint64(v>>i&1) << nAcc
			nAcc++
			if nAcc == 8 {
				out = append(out, byte(acc))
				acc, nAcc = 0, 0
			}
		}
	}
	code := func(c huffCode) {
		for i := int(c.len) - 1; i >= 0; i-- {
			put(c.code>>uint(i)&1, 1)
		}
	}
	put(1, 1)
	put(1, 2)
	for _, t := range tokens {
		if t.isLiteral() {
			code(fixedLitCodes[t.lit])
			continue
		}
		sym := lengthSym[t.len]
		code(fixedLitCodes[sym])
		put(uint32(t.len-lengthBase[sym]), uint(lengthExtra[sym]))
		dsym := distCodeReference(int(t.dist))
		code(fixedDistCodes[dsym])
		put(uint32(t.dist)-distBase[dsym], uint(distExtra[dsym]))
	}
	code(fixedLitCodes[endBlockSym])
	if nAcc > 0 {
		out = append(out, byte(acc))
	}
	return out
}

// flateInflate decodes with compress/flate, returning its error.
func flateInflate(data []byte) ([]byte, error) {
	return io.ReadAll(flate.NewReader(bytes.NewReader(data)))
}

// checkHWAgainstReference compresses src with enc and checks the stream
// and the stats delta against the references, and that the stream
// inflates with compress/flate.
func checkHWAgainstReference(t *testing.T, enc *HWEncoder, src []byte) {
	t.Helper()
	var wantSt HWStats
	want := lz77HWReference(enc.cfg, &wantSt, src)
	before := enc.Stats()
	stream := enc.Compress(src)
	after := enc.Stats()
	if ref := compressReference(want); !bytes.Equal(stream, ref) {
		t.Fatalf("cfg %+v, %d bytes: stream differs from the reference (%d vs %d bytes)", enc.cfg, len(src), len(stream), len(ref))
	}
	delta := HWStats{
		Cycles:          after.Cycles - before.Cycles,
		BankConflicts:   after.BankConflicts - before.BankConflicts,
		CandidateProbes: after.CandidateProbes - before.CandidateProbes,
		Matches:         after.Matches - before.Matches,
		Literals:        after.Literals - before.Literals,
		Replaced:        after.Replaced - before.Replaced,
	}
	if delta != wantSt {
		t.Fatalf("cfg %+v: stats %+v, reference %+v", enc.cfg, delta, wantSt)
	}
	out, err := flateInflate(stream)
	if err != nil || !bytes.Equal(out, src) {
		t.Fatalf("cfg %+v: compress/flate round trip failed: %v", enc.cfg, err)
	}
}

func TestHWEncoderMatchesReference(t *testing.T) {
	cfgs := []HWConfig{
		PaperHWConfig(),
		{ParallelWindow: 8, Banks: 2, PortsPerBank: 1, WindowSize: 4096, TableEntries: 4096},
		{ParallelWindow: 5, Banks: 3, PortsPerBank: 1, WindowSize: 300, TableEntries: 100},
		{ParallelWindow: 64, Banks: 7, PortsPerBank: 2, WindowSize: MaxDistance, TableEntries: 1 << 12},
		{ParallelWindow: 1, Banks: 16, PortsPerBank: 8, WindowSize: 1, TableEntries: 8},
	}
	for _, cfg := range cfgs {
		enc := NewHWEncoder(cfg)
		for name, in := range testInputs() {
			t.Run(name, func(t *testing.T) { checkHWAgainstReference(t, enc, in) })
		}
	}
}

// TestHWEncoderPortCounters runs configurations on both sides of the
// port-counter skip (a window's probes can oversubscribe a bank only
// when PortsPerBank < ParallelWindow): one or two ports, bank counts
// that are not powers of two, history windows shorter than the input,
// and inputs longer than a page. The zero run hashes every position to
// one bank, so every counted configuration must see conflicts.
func TestHWEncoderPortCounters(t *testing.T) {
	inputs := map[string][]byte{
		"html-4k":  corpus.Generate(corpus.HTML, 4096, 2),
		"html-12k": corpus.Generate(corpus.HTML, 12000, 3),
		"text-6k":  corpus.Generate(corpus.Text, 6000, 4),
		"zeros-5k": make([]byte, 5000),
	}
	cfgs := []HWConfig{
		{ParallelWindow: 8, Banks: 8, PortsPerBank: 1, WindowSize: 1024, TableEntries: 4096},
		{ParallelWindow: 8, Banks: 8, PortsPerBank: 2, WindowSize: 4096, TableEntries: 4096},
		{ParallelWindow: 8, Banks: 6, PortsPerBank: 2, WindowSize: 2000, TableEntries: 3000},
		{ParallelWindow: 8, Banks: 5, PortsPerBank: 7, WindowSize: 512, TableEntries: 4096},
		{ParallelWindow: 8, Banks: 5, PortsPerBank: 8, WindowSize: 512, TableEntries: 4096},
		{ParallelWindow: 16, Banks: 3, PortsPerBank: 1, WindowSize: 4096, TableEntries: 999},
		{ParallelWindow: 3, Banks: 12, PortsPerBank: 2, WindowSize: 100, TableEntries: 1 << 14},
	}
	for _, cfg := range cfgs {
		enc := NewHWEncoder(cfg)
		counted := cfg.PortsPerBank < cfg.ParallelWindow
		if (enc.portUse != nil) != counted {
			t.Fatalf("cfg %+v: port counters kept = %v, want %v", cfg, enc.portUse != nil, counted)
		}
		for name, in := range inputs {
			t.Run(name, func(t *testing.T) { checkHWAgainstReference(t, enc, in) })
		}
		if conflicts := enc.Stats().BankConflicts; counted != (conflicts > 0) {
			t.Errorf("cfg %+v: %d bank conflicts with port counters kept = %v", cfg, conflicts, counted)
		}
	}
}

// TestHWStatsCycles is the regression for a Cycles counter that only
// saw windows starting on a chunk boundary, which matches jump over: a
// call consumes one cycle per started 64-byte chunk.
func TestHWStatsCycles(t *testing.T) {
	page := corpus.Generate(corpus.HTML, 4096, 1)
	enc := NewHWEncoder(PaperHWConfig())
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 4096} {
		enc.ResetStats()
		enc.Compress(page[:n])
		if got, want := enc.Stats().Cycles, uint64((n+ChunkSize-1)/ChunkSize); got != want {
			t.Errorf("%d bytes: Cycles = %d, want %d", n, got, want)
		}
	}
}

func TestDistCodeTable(t *testing.T) {
	for d := 1; d <= MaxDistance; d++ {
		if got, want := distCode(d), distCodeReference(d); got != want {
			t.Fatalf("distCode(%d) = %d, want %d", d, got, want)
		}
	}
}

// TestHWWindowClampedToMaxDistance is the regression for a WindowSize
// above MaxDistance: the encoder used to emit distances Deflate cannot
// encode, and the stream failed to inflate.
func TestHWWindowClampedToMaxDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	block := corpus.Generate(corpus.Text, 1000, 14)
	filler := make([]byte, 40<<10)
	rng.Read(filler)
	in := append(append(append([]byte{}, block...), filler...), block...)

	enc := NewHWEncoder(HWConfig{WindowSize: 1 << 20, TableEntries: 1 << 20})
	if enc.cfg.WindowSize != MaxDistance {
		t.Fatalf("WindowSize = %d, want clamp to %d", enc.cfg.WindowSize, MaxDistance)
	}
	stream := enc.Compress(in)
	out, err := flateInflate(stream)
	if err != nil || !bytes.Equal(out, in) {
		t.Fatalf("compress/flate rejects the stream: %v", err)
	}
	if out, err := Decompress(stream); err != nil || !bytes.Equal(out, in) {
		t.Fatalf("Decompress rejects the stream: %v", err)
	}
}

// TestHWCompressAllocs pins the encoder's scratch reuse: once warmed,
// Compress allocates only the slice it returns and AppendCompress into
// a large enough buffer allocates nothing, with or without per-bank
// port counters.
func TestHWCompressAllocs(t *testing.T) {
	page := corpus.Generate(corpus.HTML, 4096, 1)
	for _, cfg := range []HWConfig{PaperHWConfig(), {PortsPerBank: 1}} {
		enc := NewHWEncoder(cfg)
		enc.Compress(page)
		if n := testing.AllocsPerRun(20, func() { enc.Compress(page) }); n > 1 {
			t.Errorf("cfg %+v: Compress: %v allocs/op, want <= 1", enc.cfg, n)
		}
		buf := make([]byte, 0, 2*len(page))
		if n := testing.AllocsPerRun(20, func() { buf = enc.AppendCompress(buf[:0], page) }); n != 0 {
			t.Errorf("cfg %+v: AppendCompress: %v allocs/op, want 0", enc.cfg, n)
		}
	}
}

// FuzzHWEncoder checks the encoder against the reference on arbitrary
// input and small valid configurations (non-power-of-two bank counts,
// one port per bank, tables not divisible by the bank count), and that
// an encoder reused across inputs behaves like a fresh one: a table
// left uncleared would leak candidates from the previous input.
func FuzzHWEncoder(f *testing.F) {
	f.Add([]byte("abcabcabcabcabcabd"), uint8(8), uint8(8), uint8(8), uint16(4096), uint16(4096))
	f.Fuzz(func(t *testing.T, data []byte, pw, banks, ports uint8, window, entries uint16) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		cfg := HWConfig{
			ParallelWindow: 1 + int(pw)%ChunkSize,
			Banks:          1 + int(banks)%16,
			PortsPerBank:   1 + int(ports)%8,
			WindowSize:     1 + int(window)%MaxDistance,
			TableEntries:   1 + int(entries)%1024,
		}
		reused := NewHWEncoder(cfg)
		checkHWAgainstReference(t, NewHWEncoder(cfg), data)
		checkHWAgainstReference(t, reused, data)
		checkHWAgainstReference(t, reused, data[len(data)/2:])
		checkHWAgainstReference(t, reused, data)
	})
}

// BenchmarkHWEncoderPages compresses 64 distinct 4092-byte HTML pages in
// turn, as deflate4k-dimm's connections do. A single repeated page lets
// the branch predictor learn its match pattern, which flatters branchy
// match loops.
func BenchmarkHWEncoderPages(b *testing.B) {
	pages := make([][]byte, 64)
	for i := range pages {
		pages[i] = corpus.Generate(corpus.HTML, 4092, int64(i))
	}
	enc := NewHWEncoder(PaperHWConfig())
	dst := make([]byte, 0, 8192)
	b.SetBytes(4092)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = enc.AppendCompress(dst[:0], pages[i%len(pages)])
	}
}
