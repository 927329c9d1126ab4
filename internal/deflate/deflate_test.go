package deflate

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/corpus"
)

// stdInflate decodes with compress/flate as the reference decoder.
func stdInflate(t *testing.T, data []byte) []byte {
	t.Helper()
	r := flate.NewReader(bytes.NewReader(data))
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("reference inflate failed: %v", err)
	}
	return out
}

// flateCompress encodes with compress/flate, the reference encoder, at
// the given level.
func flateCompress(data []byte, level int) []byte {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		panic(err)
	}
	w.Write(data)
	w.Close()
	return buf.Bytes()
}

func testInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(42))
	rnd := make([]byte, 8192)
	rng.Read(rnd)
	return map[string][]byte{
		"empty":      {},
		"single":     {0x42},
		"two":        {0x42, 0x43},
		"run":        bytes.Repeat([]byte{7}, 1000),
		"abc-repeat": bytes.Repeat([]byte("abcabcabd"), 300),
		"short":      []byte("hello world"),
		"html":       corpus.Generate(corpus.HTML, 8192, 1),
		"text":       corpus.Generate(corpus.Text, 8192, 1),
		"json":       corpus.Generate(corpus.JSON, 8192, 1),
		"random":     rnd,
		"zeros":      corpus.Generate(corpus.Zeros, 8192, 1),
		"4095":       corpus.Generate(corpus.Text, 4095, 9),
		"almost-rfc": bytes.Repeat([]byte("a"), 65535+100), // crosses stored-block size
	}
}

func TestHWEncoderRoundTrip(t *testing.T) {
	enc := NewHWEncoder(PaperHWConfig())
	for name, in := range testInputs() {
		t.Run(name, func(t *testing.T) {
			c := enc.Compress(in)
			out, err := Decompress(c)
			if err != nil {
				t.Fatalf("own inflate: %v", err)
			}
			if !bytes.Equal(out, in) {
				t.Fatal("own round trip mismatch")
			}
			if ref := stdInflate(t, c); !bytes.Equal(ref, in) {
				t.Fatal("reference decoder disagrees")
			}
		})
	}
}

func TestDecompressAcceptsReferenceStreams(t *testing.T) {
	for name, in := range testInputs() {
		t.Run(name, func(t *testing.T) {
			c := flateCompress(in, flate.DefaultCompression)
			out, err := Decompress(c)
			if err != nil {
				t.Fatalf("inflate of reference stream: %v", err)
			}
			if !bytes.Equal(out, in) {
				t.Fatal("mismatch")
			}
		})
	}
}

func TestRoundTripQuick(t *testing.T) {
	enc := NewHWEncoder(PaperHWConfig())
	f := func(data []byte) bool {
		c1 := flateCompress(data, flate.DefaultCompression)
		o1, err := Decompress(c1)
		if err != nil || !bytes.Equal(o1, data) {
			return false
		}
		c2 := enc.Compress(data)
		o2, err := Decompress(c2)
		return err == nil && bytes.Equal(o2, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftwareBeatsHWOnRatio(t *testing.T) {
	// The DSA trades compression ratio for deterministic latency; on
	// redundant data software deflate (compress/flate: 32KB window, lazy
	// matching, dynamic Huffman) must compress at least as well.
	in := corpus.Generate(corpus.HTML, 16384, 3)
	sw := len(flateCompress(in, flate.DefaultCompression))
	hw := len(NewHWEncoder(PaperHWConfig()).Compress(in))
	if sw > hw {
		t.Fatalf("software (%dB) worse than hardware (%dB)", sw, hw)
	}
	// But the hardware model must still genuinely compress templated data.
	if ratio := float64(len(in)) / float64(hw); ratio < 1.5 {
		t.Fatalf("hw ratio = %.2f, want >= 1.5 on HTML", ratio)
	}
}

func TestHWWindowAblation(t *testing.T) {
	// Larger parallelization window and more banks should not hurt ratio;
	// a tiny 1-port configuration must show bank conflicts on real data.
	in := corpus.Generate(corpus.Text, 16384, 5)
	small := NewHWEncoder(HWConfig{ParallelWindow: 8, Banks: 2, PortsPerBank: 1, WindowSize: 4096, TableEntries: 4096})
	small.Compress(in)
	if small.Stats().BankConflicts == 0 {
		t.Fatal("1-port config shows no bank conflicts")
	}
	full := NewHWEncoder(PaperHWConfig())
	full.Compress(in)
	if full.Stats().BankConflicts >= small.Stats().BankConflicts {
		t.Fatal("8-port config should conflict less than 1-port")
	}
}

func TestHWStatsAccounting(t *testing.T) {
	enc := NewHWEncoder(PaperHWConfig())
	in := bytes.Repeat([]byte("abcdefgh"), 512)
	enc.Compress(in)
	st := enc.Stats()
	if st.Matches == 0 {
		t.Fatal("no matches on highly repetitive input")
	}
	if st.CandidateProbes == 0 || st.Cycles == 0 {
		t.Fatalf("stats not accumulating: %+v", st)
	}
	enc.ResetStats()
	if enc.Stats().Matches != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

func TestHWHistoryWindowRespected(t *testing.T) {
	// Two identical 2KB chunks separated by >4KB of random bytes: the
	// DSA (4KB window) cannot use the far match. Every distance of the
	// reference pipeline's tokens must lie within the window, and the
	// encoder's stream must be the reference's.
	rng := rand.New(rand.NewSource(6))
	chunk := corpus.Generate(corpus.Text, 2048, 7)
	gap := make([]byte, 5000)
	rng.Read(gap)
	in := append(append(append([]byte{}, chunk...), gap...), chunk...)

	enc := NewHWEncoder(PaperHWConfig())
	var st HWStats
	tokens := lz77HWReference(enc.cfg, &st, in)
	for _, tok := range tokens {
		if !tok.isLiteral() && int(tok.dist) > enc.cfg.WindowSize {
			t.Fatalf("distance %d exceeds DSA window %d", tok.dist, enc.cfg.WindowSize)
		}
	}
	if !bytes.Equal(enc.Compress(in), compressReference(tokens)) {
		t.Fatal("encoder stream differs from the reference")
	}
}

func TestDecompressCorruptInputs(t *testing.T) {
	cases := map[string][]byte{
		"empty":          {},
		"reserved-btype": {0x07},              // BFINAL=1, BTYPE=11
		"truncated":      {0x01},              // fixed block, then EOF
		"stored-len":     {0x01 ^ 0x01, 0x00}, // stored block, truncated LEN
	}
	for name, data := range cases {
		if _, err := Decompress(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v, want ErrCorrupt", name, err)
		}
	}
	// Bit flips in a valid stream must not panic, and any error must be
	// ErrCorrupt (some flips decode to different bytes, which is fine).
	valid := flateCompress(corpus.Generate(corpus.Text, 2048, 8), flate.DefaultCompression)
	for i := 0; i < len(valid); i += 7 {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x10
		if _, err := Decompress(mut); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Errorf("flip at byte %d: error %v, want ErrCorrupt", i, err)
		}
	}
}

func TestDecompressLimit(t *testing.T) {
	in := make([]byte, 100000)
	c := flateCompress(in, flate.DefaultCompression)
	if _, err := DecompressLimit(c, 1000); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("limit not enforced: %v", err)
	}
	out, err := DecompressLimit(c, len(in))
	if err != nil || len(out) != len(in) {
		t.Fatalf("exact limit rejected: %v", err)
	}
}

func TestTokenTables(t *testing.T) {
	// Spot checks from RFC 1951 §3.2.5.
	if lengthSym[3] != 257 || lengthSym[10] != 264 || lengthSym[11] != 265 ||
		lengthSym[258] != 285 || lengthSym[257] != 284 {
		t.Fatal("length symbol table wrong")
	}
	if lengthBase[265] != 11 || lengthExtra[265] != 1 {
		t.Fatal("length base/extra wrong for 265")
	}
	if distCode(1) != 0 || distCode(4) != 3 || distCode(5) != 4 ||
		distCode(32768) != 29 || distCode(24577) != 29 || distCode(24576) != 28 {
		t.Fatalf("distance codes wrong: %d %d %d %d", distCode(1), distCode(4), distCode(32768), distCode(24577))
	}
	if distBase[4] != 5 || distExtra[4] != 1 || distBase[29] != 24577 || distExtra[29] != 13 {
		t.Fatal("distance base/extra wrong")
	}
}

func TestHuffmanCanonical(t *testing.T) {
	// RFC 1951 §3.2.2 worked example: lengths (3,3,3,3,3,2,4,4) produce
	// codes 010,011,100,101,110,00,1110,1111.
	lengths := []uint8{3, 3, 3, 3, 3, 2, 4, 4}
	codes, err := canonicalCodes(lengths)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{0b010, 0b011, 0b100, 0b101, 0b110, 0b00, 0b1110, 0b1111}
	for i, c := range codes {
		if c.code != want[i] {
			t.Errorf("symbol %d: code %b, want %b", i, c.code, want[i])
		}
	}
	if _, err := canonicalCodes([]uint8{1, 1, 1}); err == nil {
		t.Fatal("over-subscribed lengths accepted")
	}
}

// fibFreqs returns n Fibonacci frequencies, whose unlimited Huffman
// tree is n-1 deep: the worst case for length limiting.
func fibFreqs(n int) []int {
	freq := make([]int, n)
	a, b := 1, 1
	for i := range freq {
		freq[i] = a
		a, b = b, a+b
	}
	return freq
}

// huffmanDepth returns the depth of the unlimited Huffman tree for
// freq: merging the two lightest subtrees, one level above the deeper.
func huffmanDepth(freq []int) int {
	type subtree struct{ weight, depth int }
	trees := make([]subtree, len(freq))
	for i, f := range freq {
		trees[i] = subtree{f, 0}
	}
	for len(trees) > 1 {
		sort.Slice(trees, func(i, j int) bool { return trees[i].weight < trees[j].weight })
		a, b := trees[0], trees[1]
		trees = append(trees[2:], subtree{a.weight + b.weight, max(a.depth, b.depth) + 1})
	}
	return trees[0].depth
}

// TestDeepHuffmanRoundTrip feeds compress/flate inputs whose Huffman
// trees exceed 15 levels, so the emitted dynamic blocks carry
// length-limited codes, and checks Decompress inflates them.
func TestDeepHuffmanRoundTrip(t *testing.T) {
	// Literal-only Huffman coding of Fibonacci byte counts: the literal
	// tree alone is 23 levels deep before limiting.
	freq := fibFreqs(24)
	if d := huffmanDepth(freq); d <= maxCodeLen {
		t.Fatalf("unlimited tree %d levels deep, want more than %d", d, maxCodeLen)
	}
	var src []byte
	for sym, f := range freq {
		src = append(src, bytes.Repeat([]byte{byte(sym * 7)}, f)...)
	}
	rand.New(rand.NewSource(3)).Shuffle(len(src), func(i, j int) { src[i], src[j] = src[j], src[i] })
	stream := flateCompress(src, flate.HuffmanOnly)
	if btype := (stream[0] >> 1) & 3; btype != 2 {
		t.Fatalf("BTYPE %d, want a dynamic block", btype)
	}
	checkInflates(t, "fibonacci literals", stream, src)

	// Whole streams of geometric byte distributions (each byte value a
	// fixed factor rarer than the last): over 256KB the rarest values
	// sit below depth 15.
	for _, stop := range []float64{0.3, 0.35, 0.382, 0.42} {
		rng := rand.New(rand.NewSource(1))
		src := make([]byte, 256<<10)
		for i := range src {
			s := 0
			for rng.Float64() > stop && s < 255 {
				s++
			}
			src[i] = byte(s)
		}
		checkInflates(t, fmt.Sprintf("geometric %.3f", stop), flateCompress(src, flate.DefaultCompression), src)
	}
}

func checkInflates(t *testing.T, name string, stream, want []byte) {
	t.Helper()
	got, err := Decompress(stream)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s: Decompress: %v (round trip equal: %v)", name, err, bytes.Equal(got, want))
	}
}

func TestBitIORoundTrip(t *testing.T) {
	f := func(vals []uint16, widths []uint8) bool {
		var w bitWriter
		type item struct {
			v uint32
			n uint
		}
		var items []item
		for i, v := range vals {
			n := uint(1)
			if i < len(widths) {
				n = uint(widths[i]%16) + 1
			}
			iv := uint32(v) & (1<<n - 1)
			items = append(items, item{iv, n})
			w.writeBits(iv, n)
		}
		// Read the bits back LSB-first, one at a time.
		buf, pos := w.bytes(), uint(0)
		for _, it := range items {
			var got uint32
			for i := uint(0); i < it.n; i, pos = i+1, pos+1 {
				got |= uint32(buf[pos/8]>>(pos%8)&1) << i
			}
			if got != it.v {
				return false
			}
		}
		return pos+7 >= uint(len(buf))*8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReverseBits(t *testing.T) {
	if reverseBits(0b1011, 4) != 0b1101 {
		t.Fatal("reverseBits wrong")
	}
	if reverseBits(1, 1) != 1 || reverseBits(0, 5) != 0 {
		t.Fatal("reverseBits edge cases wrong")
	}
}

func BenchmarkHWCompress4KB(b *testing.B) {
	in := corpus.Generate(corpus.HTML, 4096, 1)
	enc := NewHWEncoder(PaperHWConfig())
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		enc.Compress(in)
	}
}

func BenchmarkDecompress4KB(b *testing.B) {
	c := flateCompress(corpus.Generate(corpus.HTML, 4096, 1), flate.DefaultCompression)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		Decompress(c)
	}
}
