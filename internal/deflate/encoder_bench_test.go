package deflate

import (
	"bytes"
	"testing"

	"repro/internal/corpus"
)

// benchHTML synthesizes a repetitive HTML-ish page like the paper's web
// serving workload (nginx index pages compress at ~3-4x).
func benchHTML(n int) []byte {
	var b bytes.Buffer
	for i := 0; b.Len() < n; i++ {
		b.WriteString("<div class=\"row item\"><a href=\"/item/")
		b.WriteByte(byte('a' + i%26))
		b.WriteString("\">Item</a><span>description text that repeats</span></div>\n")
	}
	return b.Bytes()[:n]
}

// BenchmarkDeflateEncodeNoAlloc measures steady-state software deflate
// through a reused Encoder arena and output buffer: after warmup each
// 4KB page must encode with zero heap allocations.
func BenchmarkDeflateEncodeNoAlloc(b *testing.B) {
	src := benchHTML(4096)
	e := NewEncoder(EncoderOptions{Lazy: true})
	dst := e.EncodeAll(src, nil) // warm the arena and size the buffer
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = e.EncodeAll(src, dst[:0])
	}
	_ = dst
}

// BenchmarkDeflateCompress is the pooled package-level entry the offload
// backends call per page.
func BenchmarkDeflateCompress(b *testing.B) {
	src := benchHTML(4096)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Compress(src)
	}
}

// TestEncodeAllMatchesCompressOpts pins EncodeAll (arena reuse across
// differently sized inputs) to the one-shot path byte-for-byte.
func TestEncodeAllMatchesCompressOpts(t *testing.T) {
	inputs := [][]byte{
		nil,
		[]byte("a"),
		benchHTML(300),
		benchHTML(4096),
		bytes.Repeat([]byte{0}, 70000),
		benchHTML(17),
	}
	for _, o := range []EncoderOptions{{Lazy: true}, {}, {MaxChainLen: 4, WindowSize: 4096}} {
		e := NewEncoder(o)
		var dst []byte
		for i, src := range inputs {
			dst = e.EncodeAll(src, dst[:0])
			want := CompressOpts(src, o)
			if !bytes.Equal(dst, want) {
				t.Fatalf("opts %+v input %d: EncodeAll differs from CompressOpts (%d vs %d bytes)",
					o, i, len(dst), len(want))
			}
		}
	}
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
