package deflate

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"sync"
)

// ErrCorrupt is wrapped by every decompression error: a malformed or
// truncated stream, or one that inflates past the caller's limit.
var ErrCorrupt = errors.New("deflate: corrupt stream")

// inflater is one pooled compress/flate decoder with its source. A new
// decoder allocates its 32 KB window and code tables, so each call
// resets a pooled one instead.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser
}

var inflaters = sync.Pool{New: func() any {
	in := new(inflater)
	in.fr = flate.NewReader(&in.src)
	return in
}}

// Decompress inflates a complete RFC 1951 stream with compress/flate.
// It decodes HWEncoder's streams and those of any conforming encoder,
// and is the Inflate DSA's model and the receive path's decoder.
func Decompress(data []byte) ([]byte, error) {
	return DecompressLimit(data, 1<<30)
}

// DecompressLimit inflates with an output size cap, guarding against
// decompression bombs in the server model.
func DecompressLimit(data []byte, limit int) ([]byte, error) {
	in := inflaters.Get().(*inflater)
	defer inflaters.Put(in)
	in.src.Reset(data)
	defer in.src.Reset(nil) // the pool must not pin the caller's stream
	in.fr.(flate.Resetter).Reset(&in.src, nil)
	out, err := io.ReadAll(io.LimitReader(in.fr, int64(limit)+1))
	switch {
	case err != nil:
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	case len(out) > limit:
		return nil, fmt.Errorf("%w: output exceeds %d bytes", ErrCorrupt, limit)
	}
	return out, nil
}
