package core

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

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

// lineSink is where a DSA puts its destination lines: put returns the
// 64-byte line at record offset off for the DSA to fill, or nil when the
// record has no destination there. The device's sink is the record's
// Scratchpad, and put marks the line ready (destSpace).
type lineSink interface {
	put(off int) *[dram.CachelineSize]byte
}

// dsaInstance is the per-record accelerator state machine. The arbiter
// feeds it source cachelines (in rdCAS arrival order, §IV-D) and it
// puts the destination lines it produces into the sink.
type dsaInstance interface {
	// ProcessSourceLine consumes the source cacheline at byte offset off
	// within the record and puts the destination lines it produced. They
	// may include earlier offsets that only now became computable (e.g.
	// the TLS trailer once the record is finished).
	ProcessSourceLine(off int, src []byte, out lineSink) error
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
// Like the device it has two halves. The control half,
// ProcessSourceLine, runs on the arbiter's thread: it claims the line in
// the engine, puts the source bytes in the destination line at the same
// record offset (TLS keeps offsets) and decides when lines leave, as
// Fig. 6 does. The datapath half, settle, transforms those bytes in
// place and writes the trailer; it may run later and on another
// goroutine (datapath.go), but never concurrently with the control half.
type tlsDSA struct {
	eng        aesgcm.CachelineEngine
	dir        aesgcm.Direction
	payloadLen int
	// held buffers the lines overlapping the trailer until the record is
	// finished: a 16-byte trailer spans at most two lines.
	held  [2]heldLine
	nHeld int
	// srcTag accumulates the received tag bytes on the decrypt path;
	// tagSeen counts captured bytes so verification waits for all 16.
	srcTag  [TagSize]byte
	tagSeen int
	// finished is set once every payload line is claimed (and, on
	// decrypt, the received tag is whole): the trailer can be computed.
	finished bool
	authErr  bool

	// The datapath's state. todo lists the claimed lines still holding
	// their input bytes, tails the claimed lines overlapping the
	// trailer, which settle patches once the trailer is final; sealed
	// reports that it is. spare takes a line that has no destination, so
	// the tag still covers it.
	todo    []lineRef
	tails   [2]lineRef
	nTail   int
	trailer [TagSize]byte
	sealed  bool
	spare   [dram.CachelineSize]byte
}

// heldLine is a line overlapping the trailer, kept until the record is
// finished.
type heldLine struct {
	off  int
	data [dram.CachelineSize]byte
}

// lineRef names a claimed line by its record offset and its bytes.
type lineRef struct {
	off  int
	data *[dram.CachelineSize]byte
}

func newTLSDSA(ctx TLSContext, keys *scheduleCache) (*tlsDSA, error) {
	ks, err := keys.get(ctx.Key, ctx.H)
	if err != nil {
		return nil, err
	}
	d := takeFree(&keys.free)
	err = d.eng.Reset(ks, ctx.Direction, aesgcm.RecordConfig{
		Key: ctx.Key, IV: ctx.IV, H: ctx.H, EIV: ctx.EIV, AAD: ctx.AAD,
		Length: ctx.PayloadLen,
	})
	if err != nil {
		keys.free = append(keys.free, d)
		return nil, err
	}
	// Room for every payload line, so claiming never allocates.
	lines := (ctx.PayloadLen + dram.CachelineSize - 1) / dram.CachelineSize
	*d = tlsDSA{eng: d.eng, dir: ctx.Direction, payloadLen: ctx.PayloadLen,
		todo: slices.Grow(d.todo[:0], lines)}
	return d, nil
}

// trailerEnd is the end of the record space: payload plus the tag
// trailer.
func (d *tlsDSA) trailerEnd() int { return d.payloadLen + TagSize }

func (d *tlsDSA) ProcessSourceLine(off int, src []byte, out lineSink) error {
	if off%dram.CachelineSize != 0 {
		return fmt.Errorf("core: unaligned DSA offset %d", off)
	}
	if off >= d.trailerEnd() {
		return fmt.Errorf("core: offset %d beyond record", off)
	}
	lineEnd := min(off+dram.CachelineSize, d.trailerEnd())
	n := 0 // payload bytes in the line
	if off < d.payloadLen {
		var err error
		if n, err = d.eng.Claim(off); err != nil {
			return err
		}
		if len(src) < n {
			return fmt.Errorf("core: short source line at %d", off)
		}
	}
	// Capture received tag bytes (decrypt path) from the trailer region.
	if d.dir == aesgcm.Decrypt && lineEnd > d.payloadLen {
		from := max(d.payloadLen, off)
		for b := from; b < lineEnd && b-off < len(src); b++ {
			d.srcTag[b-d.payloadLen] = src[b-off]
			d.tagSeen++
		}
	}

	// The line that finishes the record leaves at once, as do the lines
	// after it; one overlapping the trailer before then is held.
	finishing := !d.finished && d.eng.Done() && (d.dir == aesgcm.Encrypt || d.tagSeen >= TagSize)
	tail := lineEnd > d.payloadLen
	var line *[dram.CachelineSize]byte
	unplaced := false
	if tail && !d.finished && !finishing {
		line = d.hold(off)
	} else if line = out.put(off); line == nil {
		line, unplaced = &d.spare, true
	}
	copy(line[:], src[:n])
	clear(line[n:])
	if n > 0 {
		d.todo = append(d.todo, lineRef{off, line})
	}
	if tail {
		if d.sealed {
			d.patchTrailer(line, off)
		} else {
			d.tails[d.nTail] = lineRef{off, line}
			d.nTail++
		}
	}
	if unplaced {
		d.settle()
	}
	if !finishing {
		return nil
	}
	d.finished = true
	// A decrypt record's verdict feeds the device's AuthFailures at once,
	// and a held line leaves final: both settle now.
	if d.dir == aesgcm.Decrypt || d.nHeld > 0 {
		d.settle()
	}
	for i := range d.held[:d.nHeld] {
		h := &d.held[i]
		if l := out.put(h.off); l != nil {
			*l = h.data
		}
	}
	d.nHeld = 0
	return nil
}

// hold returns the held buffer for the line at off, replacing an
// earlier copy at the same offset.
func (d *tlsDSA) hold(off int) *[dram.CachelineSize]byte {
	i := 0
	for i < d.nHeld && d.held[i].off != off {
		i++
	}
	if i == d.nHeld {
		d.nHeld++
	}
	d.held[i].off = off
	return &d.held[i].data
}

// patchTrailer copies the final trailer bytes into the line at off.
func (d *tlsDSA) patchTrailer(data *[dram.CachelineSize]byte, off int) {
	for b := max(d.payloadLen, off); b < off+dram.CachelineSize && b < d.trailerEnd(); b++ {
		data[b-off] = d.trailer[b-d.payloadLen]
	}
}

// pending reports whether settle has work: claimed lines still holding
// their input, or a finished record's trailer.
func (d *tlsDSA) pending() bool {
	return len(d.todo) > 0 || d.finished && !d.sealed
}

// settle is the TLS DSA's datapath: it transforms every claimed line
// still holding its input in place and, once the record is finished,
// writes the trailer into the claimed lines that overlap it: the tag
// on encrypt; on decrypt the received tag's verdict in the trailer's
// first byte (1 = ok). Its result does not depend on when it runs: the
// GHASH fold is a sum.
func (d *tlsDSA) settle() {
	for _, l := range d.todo {
		n := min(d.payloadLen-l.off, dram.CachelineSize)
		d.eng.Transform(l.data[:n], l.data[:n], l.off)
	}
	d.todo = d.todo[:0]
	if !d.finished || d.sealed {
		return
	}
	d.sealed = true
	if d.dir == aesgcm.Encrypt {
		// Every payload line is claimed and now transformed.
		d.trailer, _ = d.eng.Tag()
	} else if d.eng.VerifyTag(d.srcTag[:]) != nil {
		d.authErr = true // the trailer stays zero: verification failed
	} else {
		d.trailer[0] = 1
	}
	for _, t := range d.tails[:d.nTail] {
		d.patchTrailer(t.data, t.off)
	}
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
	page := new([PageSize]byte)
	// Zero what a stream dropped for the raw fallback left behind.
	clear(page[len(framePage(page, orig, enc)):])
	return page[:], nil
}

// framePage frames orig (at most MaxCompressInput bytes) into page and
// returns the framed prefix, header plus payload; the bytes past it are
// left as they were. A stream that fits is appended within the page's
// capacity, so it lands in place after the header. One that outgrows
// the page is dropped, and orig is stored raw.
func framePage(page *[PageSize]byte, orig []byte, enc *deflate.HWEncoder) []byte {
	stream := enc.AppendCompress(page[compHeaderSize:compHeaderSize], orig)
	if len(stream) <= MaxCompressInput {
		putPageHeader(page[:], len(stream), false)
		return page[:compHeaderSize+len(stream)]
	}
	putPageHeader(page[:], len(orig), true)
	return page[:compHeaderSize+copy(page[compHeaderSize:], orig)]
}

// SoftCompressPage frames data (at most MaxCompressInput bytes) in the
// page format with software deflate, compress/flate at zlib's default
// level 6, which compresses better than the DSA: the deflate stream
// when it is no longer than data, else data stored raw, so the page
// never outgrows its input by more than the header. The page is not
// padded: it is header plus payload.
func SoftCompressPage(data []byte) []byte {
	// Room for the stream a stored fallback makes: data plus a few
	// block headers. Writes to a bytes.Buffer cannot fail.
	out := bytes.NewBuffer(make([]byte, compHeaderSize, compHeaderSize+len(data)+64))
	w := softWriters.Get().(*flate.Writer)
	w.Reset(out)
	w.Write(data)
	w.Close()
	softWriters.Put(w)
	page := out.Bytes()
	raw := len(page)-compHeaderSize > len(data)
	if raw {
		page = append(page[:compHeaderSize], data...)
	}
	putPageHeader(page, len(page)-compHeaderSize, raw)
	return page
}

// softWriters keeps SoftCompressPage's compress/flate writers: one holds
// about 1 MB of match-finder state, so a page resets a kept one.
var softWriters = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(nil, flate.DefaultCompression) // a valid level cannot fail
	return w
}}

// putPageHeader writes the page header of an n-byte payload, flagged
// raw when the payload is the input stored uncompressed.
func putPageHeader(page []byte, n int, raw bool) {
	h := uint32(n)
	if raw {
		h |= compRawFlag
	}
	binary.LittleEndian.PutUint32(page, h)
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
// offloads use CompCpy's ordered mode, Algorithm 2 lines 24-28). Its
// encoder and output page belong to the device's encoderSlot, which
// keeps retired DSAs, source buffer included, for later records.
type deflateDSA struct {
	enc     *deflate.HWEncoder
	page    *[PageSize]byte
	length  int // input bytes expected
	nextOff int
	src     [PageSize]byte
}

func newDeflateDSA(length int, cfg deflate.HWConfig, slot *encoderSlot) (*deflateDSA, error) {
	if length <= 0 || length > MaxCompressInput {
		return nil, fmt.Errorf("core: compression length %d not within %d", length, MaxCompressInput)
	}
	enc := slot.get(cfg)
	d := takeFree(&slot.free)
	d.enc, d.page, d.length, d.nextOff = enc, slot.page, length, 0
	return d, nil
}

func (d *deflateDSA) ProcessSourceLine(off int, src []byte, out lineSink) error {
	if off != d.nextOff {
		return fmt.Errorf("core: deflate DSA requires in-order lines (got %d, want %d); use ordered CompCpy", off, d.nextOff)
	}
	n := copy(d.src[off:], src)
	d.nextOff += n
	if d.nextOff < d.length {
		return nil
	}
	putPage(out, framePage(d.page, d.src[:d.length], d.enc))
	return nil
}

// inflateDSA decompresses one compressed page arriving in order. The
// device's encoderSlot keeps retired ones, page buffer included, for
// later records.
type inflateDSA struct {
	buf     [PageSize]byte
	length  int
	nextOff int
}

func newInflateDSA(length int, slot *encoderSlot) (*inflateDSA, error) {
	if length <= 0 || length > PageSize {
		return nil, fmt.Errorf("core: decompression length %d not within one page", length)
	}
	d := takeFree(&slot.inflate)
	d.length, d.nextOff = length, 0
	return d, nil
}

func (d *inflateDSA) ProcessSourceLine(off int, src []byte, out lineSink) error {
	if off != d.nextOff {
		return fmt.Errorf("core: inflate DSA requires in-order lines (got %d, want %d)", off, d.nextOff)
	}
	n := copy(d.buf[off:], src)
	d.nextOff += n
	if d.nextOff < d.length {
		return nil
	}
	orig, err := DecodeCompressedPage(d.buf[:d.length])
	if err != nil {
		return err
	}
	putPage(out, orig)
	return nil
}

// putPage puts the lines of a full destination page holding page's
// bytes, zero-filled past its end.
func putPage(out lineSink, page []byte) {
	for off := 0; off < PageSize; off += dram.CachelineSize {
		if l := out.put(off); l != nil {
			clear(l[copy(l[:], page[min(off, len(page)):]):])
		}
	}
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

// marshalContext appends the serialized context to dst for transmission
// over the MMIO window (the Config Memory bytes of §IV-C).
func marshalContext(dst []byte, ctx *OffloadContext) ([]byte, error) {
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
		dst = append(dst, byte(t.Direction), byte(len(t.Key)), byte(len(t.IV)), byte(len(t.AAD)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(t.PayloadLen))
		dst = append(dst, t.Key...)
		dst = append(dst, t.IV...)
		dst = append(dst, t.H...)
		dst = append(dst, t.EIV...)
		return append(dst, t.AAD...), nil
	case OpCompress:
		for _, f := range [...]int{ctx.HW.ParallelWindow, ctx.HW.Banks, ctx.HW.PortsPerBank, ctx.HW.WindowSize, ctx.HW.TableEntries} {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(f))
		}
		return dst, nil
	case OpDecompress:
		return dst, nil
	default:
		return nil, fmt.Errorf("core: cannot marshal context for %v", ctx.Op)
	}
}

// maxContextBytes bounds a serialized context: a TLS context with
// every variable field at its 255-byte limit.
const maxContextBytes = 8 + 3*255 + 2*aesgcm.BlockSize

// scheduleCache is a device's TLS DSA state: its key schedules and its
// free record DSAs. Schedules are keyed by the (key, H) pair of the
// config: records of one connection reuse the expanded key and the H
// powers instead of rebuilding them. H is part of the key because the
// CPU supplies it, so a record whose H does not match gets a schedule
// of its own. The store holds at most max schedules and is emptied when
// full, which keeps eviction deterministic. A record takes a DSA, with
// its engine, from the free list when it is built and gives it back
// when it retires, so the list grows to the peak of concurrent records.
type scheduleCache struct {
	max  int
	m    map[string]*aesgcm.KeySchedule
	free []*tlsDSA
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

// encoderSlot holds a device's Deflate DSA: its encoder, the page the
// encoder frames into and a free list of retired DSAs, plus the free
// list of retired Inflate DSAs (each owns its page buffer). A compression
// record borrows the encoder and the page instead of building its own:
// the page is compressed, framed and copied out inside the record's
// last ProcessSourceLine call, so records never interleave on them.
// The slot keeps one encoder, for the last record's HWConfig, and
// rebuilds it when a record asks for another; buildDSA bounds each
// config's table at maxDSATableEntries. A record takes a DSA, with its
// source buffer, when it is built and gives it back when it retires.
type encoderSlot struct {
	cfg     deflate.HWConfig
	enc     *deflate.HWEncoder
	page    *[PageSize]byte
	free    []*deflateDSA
	inflate []*inflateDSA
}

// get returns the encoder for cfg, rebuilding the slot's on a change.
// The first call also allocates the slot's page.
func (s *encoderSlot) get(cfg deflate.HWConfig) *deflate.HWEncoder {
	if s.enc == nil || s.cfg != cfg {
		s.cfg, s.enc = cfg, deflate.NewHWEncoder(cfg)
	}
	if s.page == nil {
		s.page = new([PageSize]byte)
	}
	return s.enc
}

// takeFree pops the last entry of a free list, or returns a new T when
// the list is empty. The device's free lists grow to the peak of what
// it has held at once.
func takeFree[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	x := (*free)[n-1]
	*free = (*free)[:n-1]
	return x
}

// releaseDSA returns a retired record's DSA state to the device's free
// lists. The record drops its DSA, so a second release is a no-op.
func (d *Device) releaseDSA(rec *record) {
	switch dsa := rec.dsa.(type) {
	case *tlsDSA:
		d.keys.free = append(d.keys.free, dsa)
	case *deflateDSA:
		d.enc.free = append(d.enc.free, dsa)
	case *inflateDSA:
		d.enc.inflate = append(d.enc.inflate, dsa)
	}
	rec.dsa = nil
}

// ErrDSAConfig marks a context whose DSA configuration is out of the
// range the device accepts: a compression table or window too large, or
// a TLS direction that is neither encrypt nor decrypt.
var ErrDSAConfig = errors.New("core: DSA config out of range")

// maxDSATableEntries bounds the candidate table, across all banks, that
// one compression context may ask the device to hold.
const maxDSATableEntries = 1 << 16

// parseHWConfig decodes the five little-endian uint32 fields of a
// compression context. A zero ParallelWindow selects the paper's
// configuration; otherwise zero fields take the paper's values and the
// rest must satisfy ParallelWindow <= ChunkSize,
// Banks <= TableEntries <= maxDSATableEntries and
// WindowSize <= MaxDistance.
func parseHWConfig(raw []byte) (deflate.HWConfig, error) {
	if len(raw) < 20 {
		return deflate.PaperHWConfig(), nil
	}
	field := func(i int) int { return int(binary.LittleEndian.Uint32(raw[4*i:])) }
	cfg := deflate.HWConfig{
		ParallelWindow: field(0),
		Banks:          field(1),
		PortsPerBank:   field(2),
		WindowSize:     field(3),
		TableEntries:   field(4),
	}
	if cfg.ParallelWindow == 0 {
		return deflate.PaperHWConfig(), nil
	}
	cfg = cfg.WithDefaults()
	switch {
	case cfg.ParallelWindow > deflate.ChunkSize:
		return cfg, fmt.Errorf("%w: parallel window %d > %d", ErrDSAConfig, cfg.ParallelWindow, deflate.ChunkSize)
	case cfg.TableEntries > maxDSATableEntries:
		return cfg, fmt.Errorf("%w: %d table entries > %d", ErrDSAConfig, cfg.TableEntries, maxDSATableEntries)
	case cfg.Banks > cfg.TableEntries:
		return cfg, fmt.Errorf("%w: %d banks > %d table entries", ErrDSAConfig, cfg.Banks, cfg.TableEntries)
	case cfg.WindowSize > deflate.MaxDistance:
		return cfg, fmt.Errorf("%w: window %d > %d", ErrDSAConfig, cfg.WindowSize, deflate.MaxDistance)
	}
	return cfg, nil
}

// buildDSA deserializes the context bytes and instantiates the record's
// DSA, as the device does once registration completes. TLS records take
// their key schedule from keys, (de)compression records their DSA from
// enc.
func buildDSA(op Opcode, length int, raw []byte, keys *scheduleCache, enc *encoderSlot) (dsaInstance, error) {
	switch op {
	case OpTLSEncrypt, OpTLSDecrypt:
		if len(raw) < 8 {
			return nil, errors.New("core: TLS context truncated")
		}
		dir := aesgcm.Direction(raw[0])
		if dir != aesgcm.Encrypt && dir != aesgcm.Decrypt {
			return nil, fmt.Errorf("%w: TLS direction %d", ErrDSAConfig, raw[0])
		}
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
		cfg, err := parseHWConfig(raw)
		if err != nil {
			return nil, err
		}
		return newDeflateDSA(length, cfg, enc)
	case OpDecompress:
		return newInflateDSA(length, enc)
	default:
		return nil, fmt.Errorf("core: unknown opcode %v", op)
	}
}
