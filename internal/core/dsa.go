package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/aesgcm"
	"repro/internal/deflate"
	"repro/internal/dram"
)

// Opcode selects the DSA operation for an offload.
type Opcode uint8

// Offload opcodes carried in the MMIO registration header.
const (
	OpNone       Opcode = iota
	OpTLSEncrypt        // AES-GCM encrypt + tag into trailer
	OpTLSDecrypt        // AES-GCM decrypt + tag verification
	OpCompress          // Deflate compress one 4KB page
	OpDecompress        // Inflate one compressed page
)

// String names the opcode.
func (o Opcode) String() string {
	switch o {
	case OpNone:
		return "none"
	case OpTLSEncrypt:
		return "tls-encrypt"
	case OpTLSDecrypt:
		return "tls-decrypt"
	case OpCompress:
		return "compress"
	case OpDecompress:
		return "decompress"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// TagSize re-exports the AEAD tag size for record-layout computations.
const TagSize = aesgcm.TagSize

// destLine is one 64-byte output the DSA produced, addressed by byte
// offset within the destination record space.
type destLine struct {
	RecOff int
	Data   [dram.CachelineSize]byte
}

// dsaInstance is the per-record accelerator state machine. The arbiter
// feeds it source cachelines (in rdCAS arrival order, §IV-D) and places
// the returned destination lines into the Scratchpad.
type dsaInstance interface {
	// ProcessSourceLine consumes the source cacheline at byte offset off
	// within the record. Returned lines may include earlier offsets that
	// only now became computable (e.g. the TLS trailer once the tag is
	// final).
	ProcessSourceLine(off int, src []byte) ([]destLine, error)
	// DestLen returns the size in bytes of the destination record space.
	DestLen() int
}

// --- TLS DSA (§V-A, Fig. 7) -------------------------------------------

// TLSContext is the offload context the CPU writes to Config Memory for
// a TLS record: the cipher key, the record nonce, the CPU-computed hash
// subkey H and encrypted IV, the AAD, and the payload length. The record
// buffer layout is [payload | 16-byte tag trailer].
type TLSContext struct {
	Direction  aesgcm.Direction
	Key        []byte
	IV         []byte
	H          []byte
	EIV        []byte
	AAD        []byte
	PayloadLen int
}

// tlsDSA adapts the out-of-order cacheline engine to the record layout.
type tlsDSA struct {
	eng        *aesgcm.CachelineEngine
	dir        aesgcm.Direction
	payloadLen int
	// held buffers lines overlapping the trailer until the tag is final.
	held map[int][dram.CachelineSize]byte
	// srcTag accumulates the received tag bytes on the decrypt path;
	// tagSeen counts captured bytes so verification waits for all 16.
	srcTag  [TagSize]byte
	tagSeen int
	trailer [TagSize]byte // final trailer content, valid once flushed
	authErr bool
	flushed bool
}

func newTLSDSA(ctx TLSContext, keys *scheduleCache) (*tlsDSA, error) {
	ks, err := keys.get(ctx.Key, ctx.H)
	if err != nil {
		return nil, err
	}
	eng, err := ks.NewEngine(ctx.Direction, aesgcm.RecordConfig{
		Key: ctx.Key, IV: ctx.IV, H: ctx.H, EIV: ctx.EIV, AAD: ctx.AAD,
		Length: ctx.PayloadLen,
	})
	if err != nil {
		return nil, err
	}
	return &tlsDSA{
		eng: eng, dir: ctx.Direction, payloadLen: ctx.PayloadLen,
		held: make(map[int][dram.CachelineSize]byte),
	}, nil
}

// DestLen implements dsaInstance: payload plus the tag trailer.
func (d *tlsDSA) DestLen() int { return d.payloadLen + TagSize }

// trailerEnd is the end of the record space.
func (d *tlsDSA) trailerEnd() int { return d.payloadLen + TagSize }

func (d *tlsDSA) ProcessSourceLine(off int, src []byte) ([]destLine, error) {
	if off%dram.CachelineSize != 0 {
		return nil, fmt.Errorf("core: unaligned DSA offset %d", off)
	}
	if off >= d.trailerEnd() {
		return nil, fmt.Errorf("core: offset %d beyond record", off)
	}
	lineEnd := off + dram.CachelineSize
	if lineEnd > d.trailerEnd() {
		lineEnd = d.trailerEnd()
	}

	var out [dram.CachelineSize]byte
	if off < d.payloadLen {
		want := d.payloadLen - off
		if want > dram.CachelineSize {
			want = dram.CachelineSize
		}
		if len(src) < want {
			return nil, fmt.Errorf("core: short source line at %d", off)
		}
		if err := d.eng.ProcessCacheline(out[:want], src[:want], off); err != nil {
			return nil, err
		}
	}
	// Capture received tag bytes (decrypt path) from the trailer region.
	if d.dir == aesgcm.Decrypt && lineEnd > d.payloadLen {
		from := d.payloadLen
		if off > from {
			from = off
		}
		for b := from; b < lineEnd && b-off < len(src); b++ {
			d.srcTag[b-d.payloadLen] = src[b-off]
			d.tagSeen++
		}
	}

	var lines []destLine
	switch {
	case lineEnd <= d.payloadLen:
		lines = append(lines, destLine{RecOff: off, Data: out})
	case d.flushed:
		// Tag already final: patch the trailer bytes in directly.
		d.patchTrailer(&out, off, lineEnd)
		lines = append(lines, destLine{RecOff: off, Data: out})
	default:
		// Overlaps the trailer: hold until the tag is final.
		d.held[off] = out
	}
	canFlush := d.eng.Done() && (d.dir == aesgcm.Encrypt || d.tagSeen >= TagSize)
	if canFlush && !d.flushed {
		flushed, err := d.flushTrailer()
		if err != nil {
			return nil, err
		}
		lines = append(lines, flushed...)
	}
	return lines, nil
}

// patchTrailer copies the final trailer bytes into a line's buffer.
func (d *tlsDSA) patchTrailer(data *[dram.CachelineSize]byte, off, lineEnd int) {
	for b := d.payloadLen; b < lineEnd && b < d.trailerEnd(); b++ {
		if b >= off {
			data[b-off] = d.trailer[b-d.payloadLen]
		}
	}
}

// flushTrailer finalizes held lines once the engine is done: on encrypt
// the tag is written into the trailer bytes; on decrypt the received tag
// is verified and the trailer's first byte reports the result (1 = ok).
func (d *tlsDSA) flushTrailer() ([]destLine, error) {
	d.flushed = true
	if d.dir == aesgcm.Encrypt {
		tag, err := d.eng.Tag()
		if err != nil {
			return nil, err
		}
		copy(d.trailer[:], tag)
	} else {
		if err := d.eng.VerifyTag(d.srcTag[:]); err != nil {
			d.authErr = true
			// trailer stays zero: verification failed.
		} else {
			d.trailer[0] = 1
		}
	}
	var lines []destLine
	for off, data := range d.held {
		d.patchTrailer(&data, off, off+dram.CachelineSize)
		lines = append(lines, destLine{RecOff: off, Data: data})
	}
	d.held = nil
	return lines, nil
}

// AuthFailed reports a tag verification failure on the decrypt path.
func (d *tlsDSA) AuthFailed() bool { return d.authErr }

// --- Deflate DSA (§V-B) ------------------------------------------------

// Compressed page format produced by the Deflate DSA: a 4-byte
// little-endian header (bit 31 set = stored raw because the deflate
// stream would not fit; low 24 bits = payload length) followed by the
// payload, zero-padded to the page size. Compression happens exclusively
// at 4KB page granularity (§V-C).
const (
	compHeaderSize = 4
	compRawFlag    = 1 << 31
)

// MaxCompressInput is the largest input one compression offload accepts:
// the 4-byte page header must leave room for the raw fallback when the
// data is incompressible, so the software stack chunks responses at
// PageSize-4 bytes rather than full pages (a divergence from the paper's
// "4KB granularity" wording that the paper's format leaves unspecified).
const MaxCompressInput = PageSize - compHeaderSize

// EncodeCompressedPage formats a compressed (or raw-fallback) page.
// Inputs longer than MaxCompressInput cannot be framed (no room for the
// raw fallback) and are rejected with an error.
func EncodeCompressedPage(orig []byte, enc *deflate.HWEncoder) ([]byte, error) {
	if len(orig) > MaxCompressInput {
		return nil, fmt.Errorf("core: compression input %d exceeds %d", len(orig), MaxCompressInput)
	}
	out := make([]byte, PageSize)
	stream := enc.Compress(orig)
	if len(stream)+compHeaderSize <= PageSize {
		binary.LittleEndian.PutUint32(out, uint32(len(stream)))
		copy(out[compHeaderSize:], stream)
	} else {
		binary.LittleEndian.PutUint32(out, compRawFlag|uint32(len(orig)))
		copy(out[compHeaderSize:], orig)
	}
	return out, nil
}

// DecodeCompressedPage reverses EncodeCompressedPage.
func DecodeCompressedPage(page []byte) ([]byte, error) {
	if len(page) < compHeaderSize {
		return nil, errors.New("core: compressed page too short")
	}
	hdr := binary.LittleEndian.Uint32(page)
	n := int(hdr &^ compRawFlag)
	if compHeaderSize+n > len(page) {
		return nil, fmt.Errorf("core: compressed payload length %d overruns page", n)
	}
	payload := page[compHeaderSize : compHeaderSize+n]
	if hdr&compRawFlag != 0 {
		return append([]byte(nil), payload...), nil
	}
	return deflate.DecompressLimit(payload, PageSize)
}

// CompressedPayloadLen returns the payload length recorded in a
// compressed page header (for bandwidth accounting in the server model).
func CompressedPayloadLen(page []byte) (int, error) {
	if len(page) < compHeaderSize {
		return 0, errors.New("core: compressed page too short")
	}
	return int(binary.LittleEndian.Uint32(page) &^ compRawFlag), nil
}

// deflateDSA compresses one page arriving strictly in order (compression
// offloads use CompCpy's ordered mode, Algorithm 2 lines 24-28).
type deflateDSA struct {
	enc     *deflate.HWEncoder
	buf     [PageSize]byte
	length  int // input bytes expected
	nextOff int
}

func newDeflateDSA(length int, cfg deflate.HWConfig) (*deflateDSA, error) {
	if length <= 0 || length > MaxCompressInput {
		return nil, fmt.Errorf("core: compression length %d not within %d", length, MaxCompressInput)
	}
	return &deflateDSA{enc: deflate.NewHWEncoder(cfg), length: length}, nil
}

// DestLen implements dsaInstance: the destination is always a full page.
func (d *deflateDSA) DestLen() int { return PageSize }

func (d *deflateDSA) ProcessSourceLine(off int, src []byte) ([]destLine, error) {
	if off != d.nextOff {
		return nil, fmt.Errorf("core: deflate DSA requires in-order lines (got %d, want %d); use ordered CompCpy", off, d.nextOff)
	}
	n := copy(d.buf[off:], src)
	d.nextOff += n
	if d.nextOff < d.length {
		return nil, nil
	}
	page, err := EncodeCompressedPage(d.buf[:d.length], d.enc)
	if err != nil {
		return nil, err
	}
	return pageToLines(page), nil
}

// inflateDSA decompresses one compressed page arriving in order.
type inflateDSA struct {
	buf     [PageSize]byte
	length  int
	nextOff int
}

func newInflateDSA(length int) (*inflateDSA, error) {
	if length <= 0 || length > PageSize {
		return nil, fmt.Errorf("core: decompression length %d not within one page", length)
	}
	return &inflateDSA{length: length}, nil
}

// DestLen implements dsaInstance.
func (d *inflateDSA) DestLen() int { return PageSize }

func (d *inflateDSA) ProcessSourceLine(off int, src []byte) ([]destLine, error) {
	if off != d.nextOff {
		return nil, fmt.Errorf("core: inflate DSA requires in-order lines (got %d, want %d)", off, d.nextOff)
	}
	n := copy(d.buf[off:], src)
	d.nextOff += n
	if d.nextOff < d.length {
		return nil, nil
	}
	orig, err := DecodeCompressedPage(d.buf[:d.length])
	if err != nil {
		return nil, err
	}
	var page [PageSize]byte
	copy(page[:], orig)
	return pageToLines(page[:]), nil
}

// pageToLines splits a full page into destination lines.
func pageToLines(page []byte) []destLine {
	lines := make([]destLine, 0, LinesPerPage)
	for off := 0; off < len(page); off += dram.CachelineSize {
		var dl destLine
		dl.RecOff = off
		copy(dl.Data[:], page[off:off+dram.CachelineSize])
		lines = append(lines, dl)
	}
	return lines
}

// --- Context serialization ---------------------------------------------

// OffloadContext is everything CompCpy transmits to the device through
// the MMIO registration header and subsequent Config Memory writes.
type OffloadContext struct {
	Op  Opcode
	TLS *TLSContext      // for OpTLSEncrypt / OpTLSDecrypt
	HW  deflate.HWConfig // for OpCompress (zero value = paper config)
	// Length is the record length in bytes: the TLS payload length, or
	// the input byte count for (de)compression.
	Length int
}

// marshalContext serializes the context for transmission over the MMIO
// window (the Config Memory bytes of §IV-C).
func marshalContext(ctx *OffloadContext) ([]byte, error) {
	switch ctx.Op {
	case OpTLSEncrypt, OpTLSDecrypt:
		t := ctx.TLS
		if t == nil {
			return nil, errors.New("core: TLS opcode without TLS context")
		}
		if len(t.Key) > 255 || len(t.IV) > 255 || len(t.AAD) > 255 {
			return nil, errors.New("core: TLS context field too long")
		}
		if len(t.H) != 16 || len(t.EIV) != 16 {
			return nil, errors.New("core: H and EIV must be 16 bytes")
		}
		buf := make([]byte, 0, 8+len(t.Key)+len(t.IV)+32+len(t.AAD))
		buf = append(buf, byte(t.Direction), byte(len(t.Key)), byte(len(t.IV)), byte(len(t.AAD)))
		var lenb [4]byte
		binary.LittleEndian.PutUint32(lenb[:], uint32(t.PayloadLen))
		buf = append(buf, lenb[:]...)
		buf = append(buf, t.Key...)
		buf = append(buf, t.IV...)
		buf = append(buf, t.H...)
		buf = append(buf, t.EIV...)
		buf = append(buf, t.AAD...)
		return buf, nil
	case OpCompress:
		var b [20]byte
		binary.LittleEndian.PutUint32(b[0:], uint32(ctx.HW.ParallelWindow))
		binary.LittleEndian.PutUint32(b[4:], uint32(ctx.HW.Banks))
		binary.LittleEndian.PutUint32(b[8:], uint32(ctx.HW.PortsPerBank))
		binary.LittleEndian.PutUint32(b[12:], uint32(ctx.HW.WindowSize))
		binary.LittleEndian.PutUint32(b[16:], uint32(ctx.HW.TableEntries))
		return b[:], nil
	case OpDecompress:
		return nil, nil
	default:
		return nil, fmt.Errorf("core: cannot marshal context for %v", ctx.Op)
	}
}

// scheduleCache is a device's store of TLS key schedules, keyed by the
// (key, H) pair of the config: records of one connection reuse the
// expanded key and the H powers instead of rebuilding them. H is part of
// the key because the CPU supplies it, so a record whose H does not
// match gets a schedule of its own. The store holds at most max entries
// and is emptied when full, which keeps eviction deterministic.
type scheduleCache struct {
	max int
	m   map[string]*aesgcm.KeySchedule
}

func newScheduleCache(max int) *scheduleCache {
	return &scheduleCache{max: max, m: make(map[string]*aesgcm.KeySchedule)}
}

// get returns the schedule for (key, h), building it on a miss.
func (c *scheduleCache) get(key, h []byte) (*aesgcm.KeySchedule, error) {
	// h is always 16 bytes, so key||h identifies the pair.
	var buf [32 + aesgcm.BlockSize]byte
	id := append(append(buf[:0], key...), h...)
	if ks, ok := c.m[string(id)]; ok {
		return ks, nil
	}
	ks, err := aesgcm.NewKeySchedule(key, h)
	if err != nil {
		return nil, err
	}
	if len(c.m) >= c.max {
		clear(c.m)
	}
	c.m[string(id)] = ks
	return ks, nil
}

// buildDSA deserializes the context bytes and instantiates the record's
// DSA, as the device does once registration completes. TLS records take
// their key schedule from keys.
func buildDSA(op Opcode, length int, raw []byte, keys *scheduleCache) (dsaInstance, error) {
	switch op {
	case OpTLSEncrypt, OpTLSDecrypt:
		if len(raw) < 8 {
			return nil, errors.New("core: TLS context truncated")
		}
		dir := aesgcm.Direction(raw[0])
		keyLen, ivLen, aadLen := int(raw[1]), int(raw[2]), int(raw[3])
		payloadLen := int(binary.LittleEndian.Uint32(raw[4:8]))
		need := 8 + keyLen + ivLen + 32 + aadLen
		if len(raw) < need {
			return nil, fmt.Errorf("core: TLS context short: %d < %d", len(raw), need)
		}
		p := raw[8:]
		ctx := TLSContext{
			Direction:  dir,
			Key:        p[:keyLen],
			IV:         p[keyLen : keyLen+ivLen],
			H:          p[keyLen+ivLen : keyLen+ivLen+16],
			EIV:        p[keyLen+ivLen+16 : keyLen+ivLen+32],
			AAD:        p[keyLen+ivLen+32 : keyLen+ivLen+32+aadLen],
			PayloadLen: payloadLen,
		}
		if payloadLen+TagSize != length {
			return nil, fmt.Errorf("core: TLS payload %d + tag != record length %d", payloadLen, length)
		}
		return newTLSDSA(ctx, keys)
	case OpCompress:
		var cfg deflate.HWConfig
		if len(raw) >= 20 {
			cfg = deflate.HWConfig{
				ParallelWindow: int(binary.LittleEndian.Uint32(raw[0:])),
				Banks:          int(binary.LittleEndian.Uint32(raw[4:])),
				PortsPerBank:   int(binary.LittleEndian.Uint32(raw[8:])),
				WindowSize:     int(binary.LittleEndian.Uint32(raw[12:])),
				TableEntries:   int(binary.LittleEndian.Uint32(raw[16:])),
			}
		}
		if cfg.ParallelWindow == 0 {
			cfg = deflate.PaperHWConfig()
		}
		return newDeflateDSA(length, cfg)
	case OpDecompress:
		return newInflateDSA(length)
	default:
		return nil, fmt.Errorf("core: unknown opcode %v", op)
	}
}
