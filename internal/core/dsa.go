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
// Scratchpad, and put marks the line ready (destSpace). authFailed
// reports a decrypt record whose received tag did not verify.
type lineSink interface {
	put(off int) *[dram.CachelineSize]byte
	authFailed()
}

// dsaInstance is the per-record accelerator state machine, in two
// halves (datapath.go). The claim, ProcessSourceLine, runs on the
// arbiter's thread; the datapath, run and settle, may run later.
type dsaInstance interface {
	// ProcessSourceLine is the claim: it consumes the source cacheline
	// at byte offset off within the record (in rdCAS arrival order,
	// §IV-D), raises every error the record can raise, and puts the
	// destination lines it decides are ready. They may include earlier
	// offsets that only now became computable (e.g. the TLS trailer
	// once the record is finished). Their bytes are final once the
	// record has settled.
	ProcessSourceLine(off int, src []byte, out lineSink) error
	// handOff reports whether the datapath has work for a worker. The
	// device asks after the record's last source line.
	handOff() bool
	// run is the handed-off work, on a worker. It touches only memory
	// the claim no longer writes, so the device may keep claiming lines.
	run()
	// pending reports whether settle has work.
	pending() bool
	// settle finishes the datapath on the device's thread, after any
	// worker is done with it: the destination lines hold their final
	// bytes.
	settle()
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
	if d.authErr {
		out.authFailed()
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

// handOff reports whether a finished encrypt record has datapath work
// left for a worker.
func (d *tlsDSA) handOff() bool {
	return d.finished && d.dir == aesgcm.Encrypt && d.pending()
}

// run is settle: a handed-off record has claimed all its lines.
func (d *tlsDSA) run() { d.settle() }

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

// EncodeCompressedPage formats a compressed (or raw-fallback) page in a
// new slice. Inputs longer than MaxCompressInput cannot be framed (no
// room for the raw fallback) and are rejected with an error.
func EncodeCompressedPage(orig []byte, enc *deflate.HWEncoder) ([]byte, error) {
	return AppendCompressedPage(nil, orig, enc)
}

// AppendCompressedPage appends the page EncodeCompressedPage would
// return to dst. With a page of spare capacity in dst it frames in
// place, without allocating.
func AppendCompressedPage(dst, orig []byte, enc *deflate.HWEncoder) ([]byte, error) {
	if len(orig) > MaxCompressInput {
		return dst, fmt.Errorf("core: compression input %d exceeds %d", len(orig), MaxCompressInput)
	}
	n := len(dst)
	dst = slices.Grow(dst, PageSize)[:n+PageSize]
	page := (*[PageSize]byte)(dst[n:])
	// Zero what a stream dropped for the raw fallback left behind.
	clear(page[len(framePage(page, orig, enc)):])
	return dst, nil
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

// errShortPage is a compressed page too short to hold its header.
var errShortPage = fmt.Errorf("core: compressed page too short: %w", deflate.ErrCorrupt)

// DecodeCompressedPage reverses EncodeCompressedPage. Every error wraps
// deflate.ErrCorrupt.
func DecodeCompressedPage(page []byte) ([]byte, error) {
	if len(page) < compHeaderSize {
		return nil, errShortPage
	}
	hdr := binary.LittleEndian.Uint32(page)
	n := int(hdr &^ compRawFlag)
	if compHeaderSize+n > len(page) {
		return nil, fmt.Errorf("core: compressed payload length %d overruns page: %w", n, deflate.ErrCorrupt)
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
		return 0, errShortPage
	}
	return int(binary.LittleEndian.Uint32(page) &^ compRawFlag), nil
}

// deflateDSA compresses one page arriving strictly in order (compression
// offloads use CompCpy's ordered mode, Algorithm 2 lines 24-28). The
// claim copies each line into src and checks its order. Its datapath,
// deflate plus framing, runs one of two ways:
//
//   - Inline: the last line frames src with the device's framer and
//     puts the page's lines at once.
//   - From a hint (hint.go): the record adopted at registration a work
//     unit whose snapshot a worker frames. The last line checks the fed
//     bytes against the snapshot and marks the destination lines ready;
//     settle copies the framed page into them. When the bytes differ (a
//     stale hint) the last line frames src inline instead, as settle
//     does when no worker ran.
//
// The device's encoderSlot keeps retired DSAs, source buffer included,
// the hinted units and the framer.
type deflateDSA struct {
	slot   *encoderSlot
	length int // input bytes expected
	// unit is the adopted work unit while the datapath is unsettled.
	unit    *frameUnit
	nextOff int
	// fresh reports that the fed bytes equal unit's snapshot; lines are
	// the destination lines the last line marked ready.
	fresh bool
	lines [LinesPerPage]*[dram.CachelineSize]byte
	src   [PageSize]byte
}

// newDeflateDSA builds the DSA of a length-byte compression record
// whose first source page is page, adopting the unit hinted for it.
func newDeflateDSA(length int, slot *encoderSlot, page uint64) (*deflateDSA, error) {
	if length <= 0 || length > MaxCompressInput {
		return nil, fmt.Errorf("core: compression length %d not within %d", length, MaxCompressInput)
	}
	d := takeFree(&slot.free)
	d.slot, d.length, d.nextOff, d.fresh = slot, length, 0, false
	d.unit = slot.adopt(page, length)
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
	for i := range d.lines {
		d.lines[i] = out.put(i * dram.CachelineSize)
	}
	if d.fresh = d.unit != nil && bytes.Equal(d.src[:d.length], d.unit.snap[:d.length]); !d.fresh {
		d.settle()
	}
	return nil
}

// handOff is false: the record's unit was queued by its hint.
func (d *deflateDSA) handOff() bool { return false }
func (d *deflateDSA) run()          {}

func (d *deflateDSA) pending() bool { return d.unit != nil }

// settle takes the unit back from any worker, copies the framed page
// into the destination lines once every source line is claimed, framing
// the fed bytes inline unless the worker framed the same bytes, and
// returns the unit. A record torn down before its last line only
// returns the unit.
func (d *deflateDSA) settle() {
	u := d.unit
	d.unit = nil
	var framed []byte
	if u != nil {
		reclaim(&u.phase, u.gen)
		if d.fresh {
			framed = u.framed
		}
	}
	if d.nextOff >= d.length {
		if len(framed) == 0 {
			framed = d.slot.inline().frame(d.src[:d.length])
		}
		for i, l := range d.lines {
			if l != nil {
				clear(l[copy(l[:], framed[min(i*dram.CachelineSize, len(framed)):]):])
			}
		}
	}
	if u != nil {
		d.slot.spare = append(d.slot.spare, u)
	}
}

// inflateDSA decompresses one compressed page arriving in order. The
// device's encoderSlot keeps retired ones, page buffer included, for
// later records. Its datapath stays in the claim: a corrupt stream is
// an error of the record, known only once the stream is decoded.
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

func (d *inflateDSA) handOff() bool { return false }
func (d *inflateDSA) run()          {}
func (d *inflateDSA) pending() bool { return false }
func (d *inflateDSA) settle()       {}

// --- Context serialization ---------------------------------------------

// OffloadContext is everything CompCpy transmits to the device through
// the MMIO registration header and subsequent Config Memory writes.
type OffloadContext struct {
	Op  Opcode
	TLS *TLSContext // for OpTLSEncrypt / OpTLSDecrypt
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
		return append(dst, make([]byte, compressContextBytes)...), nil
	case OpDecompress:
		return dst, nil
	default:
		return nil, fmt.Errorf("core: cannot marshal context for %v", ctx.Op)
	}
}

// compressContextBytes is a compression record's context: a reserved
// word, all zero, that still takes the record's one Config Memory line
// (S17). The Deflate DSA has one configuration, the paper's (§V-B), so
// the word carries none.
const compressContextBytes = 20

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

// encoderSlot holds a device's (de)compression DSA state: free lists of
// retired Deflate DSAs (each owns its source buffer) and of retired
// Inflate DSAs (each owns its page buffer), the hinted work units
// (hint.go) and the framer the device frames inline with. Nothing is
// built at construction: units only as hints need them, never more
// than maxUnits plus the few that adopting records hold, and the framer
// on the first inline record.
type encoderSlot struct {
	free    []*deflateDSA
	inflate []*inflateDSA
	// units are the hinted units no record has adopted, oldest first;
	// spare keeps retired ones. hints counts the hints taken, the clock
	// a unit ages by.
	units  []*frameUnit
	spare  []*frameUnit
	hints  uint64
	framer *framer
}

// inline returns the framer the device's thread frames with.
func (s *encoderSlot) inline() *framer {
	if s.framer == nil {
		s.framer = new(framer)
	}
	return s.framer
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

// ErrDSAConfig marks a context the device refuses: a compression
// context whose reserved word is not all zero, or a TLS direction that
// is neither encrypt nor decrypt.
var ErrDSAConfig = errors.New("core: DSA config out of range")

// buildDSA deserializes the context bytes and instantiates the record's
// DSA, as the device does once registration completes. TLS records take
// their key schedule from keys, (de)compression records their DSA from
// enc, and a compression record the unit hinted for its first source
// page.
func buildDSA(op Opcode, length int, raw []byte, keys *scheduleCache, enc *encoderSlot, page uint64) (dsaInstance, error) {
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
		if i := slices.IndexFunc(raw, func(b byte) bool { return b != 0 }); i >= 0 {
			return nil, fmt.Errorf("%w: compression context byte %d is %#x", ErrDSAConfig, i, raw[i])
		}
		return newDeflateDSA(length, enc, page)
	case OpDecompress:
		return newInflateDSA(length, enc)
	default:
		return nil, fmt.Errorf("core: unknown opcode %v", op)
	}
}
