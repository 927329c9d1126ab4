package deflate

import (
	"bytes"
	"compress/flate"
	"errors"
	"testing"
)

// FuzzInflate checks the decoder's contract on any input: it never
// panics, every error wraps ErrCorrupt, DecompressLimit never returns
// more than limit bytes, and it returns exactly Decompress's bytes
// whenever those fit (and nothing Decompress would not).
func FuzzInflate(f *testing.F) {
	f.Add([]byte{0x03, 0x00}, uint16(0))                   // empty fixed block
	f.Add([]byte{0x01, 0x00, 0x00, 0xff, 0xff}, uint16(0)) // empty stored block
	// A compress/flate stream, dynamic or fixed.
	f.Add(flateCompress([]byte("hello, hello, hello world"), flate.DefaultCompression), uint16(8))
	f.Add(NewHWEncoder(PaperHWConfig()).Compress(bytes.Repeat([]byte("abcd"), 64)), uint16(300))
	f.Fuzz(func(t *testing.T, data []byte, limit uint16) {
		// Deflate expands at most ~1032:1, so this caps the output at
		// a few MB.
		if len(data) > 4096 {
			data = data[:4096]
		}
		want, wantErr := Decompress(data)
		if wantErr != nil && !errors.Is(wantErr, ErrCorrupt) {
			t.Fatalf("Decompress error %v does not wrap ErrCorrupt", wantErr)
		}
		got, err := DecompressLimit(data, int(limit))
		switch {
		case err != nil && !errors.Is(err, ErrCorrupt):
			t.Fatalf("DecompressLimit(%d) error %v does not wrap ErrCorrupt", limit, err)
		case len(got) > int(limit):
			t.Fatalf("DecompressLimit(%d) returned %d bytes", limit, len(got))
		case err == nil && (wantErr != nil || !bytes.Equal(got, want)):
			t.Fatalf("DecompressLimit(%d) accepted what Decompress decodes differently (err %v)", limit, wantErr)
		case err != nil && wantErr == nil && len(want) <= int(limit):
			t.Fatalf("DecompressLimit(%d) rejects a %d-byte stream Decompress accepts: %v", limit, len(want), err)
		}
	})
}
