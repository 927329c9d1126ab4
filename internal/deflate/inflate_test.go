package deflate

import (
	"bytes"
	"testing"
)

// FuzzInflate is a differential against compress/flate: for any input,
// Decompress either returns exactly what compress/flate returns or both
// reject it, and DecompressLimit agrees too unless compress/flate's
// output is over the limit. Neither may panic.
func FuzzInflate(f *testing.F) {
	f.Add([]byte{0x03, 0x00}, uint16(0))                            // empty fixed block
	f.Add([]byte{0x01, 0x00, 0x00, 0xff, 0xff}, uint16(0))          // empty stored block
	f.Add(Compress([]byte("hello, hello, hello world")), uint16(8)) // dynamic or fixed
	f.Add(NewHWEncoder(PaperHWConfig()).Compress(bytes.Repeat([]byte("abcd"), 64)), uint16(300))
	f.Fuzz(func(t *testing.T, data []byte, limit uint16) {
		// Deflate expands at most ~1032:1, so this caps the output at
		// a few MB.
		if len(data) > 4096 {
			data = data[:4096]
		}
		want, wantErr := flateInflate(data)
		got, err := Decompress(data)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("Decompress err = %v, compress/flate err = %v", err, wantErr)
		case err == nil && !bytes.Equal(got, want):
			t.Fatalf("Decompress output differs from compress/flate (%d vs %d bytes)", len(got), len(want))
		}
		got, err = DecompressLimit(data, int(limit))
		switch {
		case err == nil && (wantErr != nil || !bytes.Equal(got, want)):
			t.Fatalf("DecompressLimit(%d) accepted what compress/flate decodes differently (err %v)", limit, wantErr)
		case err != nil && wantErr == nil && len(want) <= int(limit):
			t.Fatalf("DecompressLimit(%d) rejects a %d-byte stream compress/flate accepts: %v", limit, len(want), err)
		}
	})
}
