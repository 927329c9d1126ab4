package core

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/aesgcm"
	"repro/internal/cache"
	"repro/internal/corpus"
	"repro/internal/deflate"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/memsys"
)

// rig is a complete single-channel SmartDIMM system for tests.
type rig struct {
	dev    *Device
	hier   *memsys.Hierarchy
	driver *Driver
}

// newRig builds a system with the given LLC size (small LLCs create the
// contention that exercises self-recycling).
func newRig(t testing.TB, llcBytes int, llcWays int) *rig {
	t.Helper()
	return newRigConfig(t, PaperDeviceConfig(dram.SmallGeometry()), llcBytes, llcWays)
}

// newRigConfig is newRig over a device sized by cfg.
func newRigConfig(t testing.TB, cfg DeviceConfig, llcBytes int, llcWays int) *rig {
	t.Helper()
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	llc := cache.MustNew(cache.Config{SizeBytes: llcBytes, Ways: llcWays,
		WayMask: [2]uint64{cache.ClassDMA: 0b11}})
	ctl := memctrl.New(memctrl.DefaultConfig(), dev)
	hier, err := memsys.New(llc, memsys.Channel{Ctl: ctl, Mod: dev})
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(hier, 0, dram.SmallGeometry().CapacityBytes(), 1)
	return &rig{dev: dev, hier: hier, driver: drv}
}

// tlsOffloadContext builds the context the OpenSSL engine would supply.
func tlsOffloadContext(t testing.TB, dir aesgcm.Direction, key, iv, aad []byte, payloadLen int) *OffloadContext {
	t.Helper()
	g, err := aesgcm.NewGCM(key)
	if err != nil {
		t.Fatal(err)
	}
	eiv, err := g.EIV(iv)
	if err != nil {
		t.Fatal(err)
	}
	return &OffloadContext{
		Op: map[aesgcm.Direction]Opcode{aesgcm.Encrypt: OpTLSEncrypt, aesgcm.Decrypt: OpTLSDecrypt}[dir],
		TLS: &TLSContext{
			Direction: dir, Key: key, IV: iv, H: g.H(), EIV: eiv, AAD: aad,
			PayloadLen: payloadLen,
		},
		Length: payloadLen,
	}
}

// runTLSEncrypt performs a full TLS encryption offload and returns the
// record (ciphertext || tag).
func runTLSEncrypt(t testing.TB, r *rig, key, iv, aad, plaintext []byte) []byte {
	t.Helper()
	recordLen := len(plaintext) + TagSize
	nPages := (recordLen + PageSize - 1) / PageSize
	sbuf, err := r.driver.AllocPages(nPages)
	if err != nil {
		t.Fatal(err)
	}
	dbuf, err := r.driver.AllocPages(nPages)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, nPages*PageSize)
	copy(src, plaintext)
	if _, err := r.hier.Write(0, sbuf, src); err != nil {
		t.Fatal(err)
	}
	ctx := tlsOffloadContext(t, aesgcm.Encrypt, key, iv, aad, len(plaintext))
	if _, err := r.driver.CompCpy(0, dbuf, sbuf, recordLen, ctx, false); err != nil {
		t.Fatal(err)
	}
	out, _, err := r.driver.Use(0, dbuf, recordLen)
	if err != nil {
		t.Fatal(err)
	}
	r.driver.FreePages(sbuf, nPages)
	r.driver.FreePages(dbuf, nPages)
	return out
}

func TestTLSEncryptOffloadMatchesReference(t *testing.T) {
	key := []byte("0123456789abcdef")
	iv := []byte("abcdefghijkl")
	aad := []byte("\x17\x03\x03\x10\x00") // the TLS record header ulp.Header(4096)
	for _, size := range []int{100, 4096 - TagSize, 4096, 5000, 16384 - TagSize} {
		r := newRig(t, 256*1024, 8)
		pt := corpus.Generate(corpus.Text, size, int64(size))
		got := runTLSEncrypt(t, r, key, iv, aad, pt)

		g, _ := aesgcm.NewGCM(key)
		want, _ := g.Seal(nil, iv, pt, aad)
		if !bytes.Equal(got[:size], want[:size]) {
			t.Fatalf("size %d: ciphertext mismatch", size)
		}
		if !bytes.Equal(got[size:size+TagSize], want[size:]) {
			t.Fatalf("size %d: tag mismatch: %x vs %x", size, got[size:size+TagSize], want[size:])
		}
		st := r.dev.Stats()
		if st.SourceReads == 0 || st.DSALinesFed == 0 {
			t.Fatalf("size %d: DSA never fed: %+v", size, st)
		}
		if st.SelfRecycles == 0 {
			t.Fatalf("size %d: no self-recycles happened", size)
		}
		if st.DSAErrors != 0 || st.AuthFailures != 0 {
			t.Fatalf("size %d: device errors: %+v", size, st)
		}
	}
}

func TestTLSDecryptOffloadRoundTrip(t *testing.T) {
	key := []byte("0123456789abcdefghijklmnopqrstuv")
	iv := []byte("abcdefghijkl")
	aad := []byte("hdr")
	size := 6000
	pt := corpus.Generate(corpus.HTML, size, 1)
	g, _ := aesgcm.NewGCM(key)
	sealed, _ := g.Seal(nil, iv, pt, aad) // ciphertext || tag

	r := newRig(t, 256*1024, 8)
	recordLen := len(sealed)
	nPages := (recordLen + PageSize - 1) / PageSize
	sbuf, _ := r.driver.AllocPages(nPages)
	dbuf, _ := r.driver.AllocPages(nPages)
	src := make([]byte, nPages*PageSize)
	copy(src, sealed)
	r.hier.Write(0, sbuf, src)

	ctx := tlsOffloadContext(t, aesgcm.Decrypt, key, iv, aad, size)
	if _, err := r.driver.CompCpy(0, dbuf, sbuf, recordLen, ctx, false); err != nil {
		t.Fatal(err)
	}
	out, _, err := r.driver.Use(0, dbuf, recordLen)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:size], pt) {
		t.Fatal("decrypted payload mismatch")
	}
	if out[size] != 1 {
		t.Fatal("tag verification marker not set")
	}
	if r.dev.Stats().AuthFailures != 0 {
		t.Fatal("unexpected auth failure")
	}
}

func TestTLSDecryptDetectsTampering(t *testing.T) {
	key := []byte("0123456789abcdef")
	iv := []byte("abcdefghijkl")
	size := 1024
	pt := make([]byte, size)
	g, _ := aesgcm.NewGCM(key)
	sealed, _ := g.Seal(nil, iv, pt, nil)
	sealed[10] ^= 0xFF // corrupt ciphertext

	r := newRig(t, 256*1024, 8)
	nPages := 1
	sbuf, _ := r.driver.AllocPages(nPages)
	dbuf, _ := r.driver.AllocPages(nPages)
	src := make([]byte, PageSize)
	copy(src, sealed)
	r.hier.Write(0, sbuf, src)
	ctx := tlsOffloadContext(t, aesgcm.Decrypt, key, iv, nil, size)
	if _, err := r.driver.CompCpy(0, dbuf, sbuf, len(sealed), ctx, false); err != nil {
		t.Fatal(err)
	}
	out, _, _ := r.driver.Use(0, dbuf, len(sealed))
	if out[size] != 0 {
		t.Fatal("tampered record passed verification")
	}
	if r.dev.Stats().AuthFailures != 1 {
		t.Fatalf("auth failures = %d, want 1", r.dev.Stats().AuthFailures)
	}
}

func TestCompressionOffloadRoundTrip(t *testing.T) {
	for _, kind := range []corpus.Kind{corpus.HTML, corpus.Text, corpus.Random, corpus.Zeros} {
		r := newRig(t, 256*1024, 8)
		data := corpus.Generate(kind, MaxCompressInput, 3)
		sbuf, _ := r.driver.AllocPages(1)
		dbuf, _ := r.driver.AllocPages(1)
		r.hier.Write(0, sbuf, data)

		ctx := &OffloadContext{Op: OpCompress, Length: MaxCompressInput}
		if _, err := r.driver.CompCpy(0, dbuf, sbuf, PageSize, ctx, true); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		page, _, err := r.driver.Use(0, dbuf, PageSize)
		if err != nil {
			t.Fatal(err)
		}
		orig, err := DecodeCompressedPage(page)
		if err != nil {
			t.Fatalf("%v: decode: %v", kind, err)
		}
		if !bytes.Equal(orig, data) {
			t.Fatalf("%v: round trip mismatch", kind)
		}
		// Compressible kinds must actually shrink.
		n, _ := CompressedPayloadLen(page)
		if kind == corpus.HTML && n >= MaxCompressInput/2 {
			t.Fatalf("html compressed to %d bytes only", n)
		}
		if r.dev.Stats().DSAErrors != 0 {
			t.Fatalf("%v: DSA errors", kind)
		}
	}
}

func TestDecompressionOffloadRoundTrip(t *testing.T) {
	r := newRig(t, 256*1024, 8)
	data := corpus.Generate(corpus.JSON, MaxCompressInput, 5)
	compressed, err := EncodeCompressedPage(data, deflate.NewHWEncoder(deflate.PaperHWConfig()))
	if err != nil {
		t.Fatal(err)
	}

	sbuf, _ := r.driver.AllocPages(1)
	dbuf, _ := r.driver.AllocPages(1)
	r.hier.Write(0, sbuf, compressed)
	ctx := &OffloadContext{Op: OpDecompress, Length: PageSize}
	if _, err := r.driver.CompCpy(0, dbuf, sbuf, PageSize, ctx, true); err != nil {
		t.Fatal(err)
	}
	out, _, err := r.driver.Use(0, dbuf, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:len(data)], data) {
		t.Fatal("decompression mismatch")
	}
}

func TestSelfRecycleUnderContention(t *testing.T) {
	// With a tiny LLC, dbuf writebacks happen during the copy itself and
	// recycle scratchpad lines without any Force-Recycle (§VII-A).
	r := newRig(t, 64*1024, 8)
	key := []byte("0123456789abcdef")
	iv := []byte("abcdefghijkl")
	for i := 0; i < 8; i++ {
		pt := corpus.Generate(corpus.Text, 4096-TagSize, int64(i))
		runTLSEncrypt(t, r, key, iv, nil, pt)
	}
	st := r.dev.Stats()
	if st.SelfRecycles == 0 || st.PagesRecycled == 0 {
		t.Fatalf("no recycling: %+v", st)
	}
	if r.driver.Stats().ForceRecycleCalls != 0 {
		t.Fatalf("force-recycle called %d times under contention", r.driver.Stats().ForceRecycleCalls)
	}
	// All pages must be back after Use() flushes.
	if r.dev.ScratchpadFreePages() != PaperDeviceConfig(dram.SmallGeometry()).ScratchpadPages {
		t.Fatalf("scratchpad leaked: %d free", r.dev.ScratchpadFreePages())
	}
}

func TestForceRecycleWhenScratchpadTiny(t *testing.T) {
	// A 4-page scratchpad with a large LLC (no natural writebacks)
	// forces Algorithm 1 to run.
	cfg := PaperDeviceConfig(dram.SmallGeometry())
	cfg.ScratchpadPages = 4
	cfg.ConfigPages = 4
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	llc := cache.MustNew(cache.Config{SizeBytes: 4 << 20, Ways: 8})
	ctl := memctrl.New(memctrl.DefaultConfig(), dev)
	hier, _ := memsys.New(llc, memsys.Channel{Ctl: ctl, Mod: dev})
	drv := NewDriver(hier, 0, dram.SmallGeometry().CapacityBytes(), 1)
	r := &rig{dev: dev, hier: hier, driver: drv}

	key := []byte("0123456789abcdef")
	iv := []byte("abcdefghijkl")
	// Launch more offloads than the scratchpad holds WITHOUT consuming
	// the destinations: the big LLC produces no natural writebacks, so
	// CompCpy must invoke Force-Recycle to find pages.
	type pending struct {
		sbuf, dbuf uint64
		pt         []byte
	}
	var offs []pending
	for i := 0; i < 8; i++ {
		pt := corpus.Generate(corpus.Text, 2048, int64(i))
		sbuf, _ := drv.AllocPages(1)
		dbuf, _ := drv.AllocPages(1)
		src := make([]byte, PageSize)
		copy(src, pt)
		hier.Write(0, sbuf, src)
		ctx := tlsOffloadContext(t, aesgcm.Encrypt, key, iv, nil, len(pt))
		if _, err := drv.CompCpy(0, dbuf, sbuf, len(pt)+TagSize, ctx, false); err != nil {
			t.Fatalf("offload %d: %v", i, err)
		}
		offs = append(offs, pending{sbuf, dbuf, pt})
	}
	if drv.Stats().ForceRecycleCalls == 0 {
		t.Fatal("force-recycle never ran with a 4-page scratchpad")
	}
	// The most recent offloads are still pending and must read correctly.
	g, _ := aesgcm.NewGCM(key)
	want, _ := g.Seal(nil, iv, offs[7].pt, nil)
	out, _, err := drv.Use(0, offs[7].dbuf, len(offs[7].pt)+TagSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("corruption after force-recycle")
	}
	_ = r
}

func TestConcurrentOffloadsInterleaved(t *testing.T) {
	// Multiple in-flight records with interleaved copies — the Fig. 9
	// scenario (4 "cores" offloading concurrently).
	r := newRig(t, 128*1024, 8)
	key := []byte("0123456789abcdef")
	const n = 4
	type off struct {
		sbuf, dbuf uint64
		pt         []byte
		iv         []byte
	}
	var offs [n]off
	for i := range offs {
		pt := corpus.Generate(corpus.Text, 4096-TagSize, int64(i))
		iv := []byte{byte(i), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
		sbuf, _ := r.driver.AllocPages(1)
		dbuf, _ := r.driver.AllocPages(1)
		src := make([]byte, PageSize)
		copy(src, pt)
		r.hier.Write(i, sbuf, src)
		offs[i] = off{sbuf, dbuf, pt, iv}
	}
	// Register all, then interleave... CompCpy performs its own copy, so
	// "interleaving" here means running them back to back with shared
	// device state while earlier destinations are still un-recycled.
	for i := range offs {
		ctx := tlsOffloadContext(t, aesgcm.Encrypt, key, offs[i].iv, nil, len(offs[i].pt))
		if _, err := r.driver.CompCpy(i, offs[i].dbuf, offs[i].sbuf, PageSize, ctx, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := range offs {
		out, _, err := r.driver.Use(i, offs[i].dbuf, PageSize)
		if err != nil {
			t.Fatal(err)
		}
		g, _ := aesgcm.NewGCM(key)
		want, _ := g.Seal(nil, offs[i].iv, offs[i].pt, nil)
		if !bytes.Equal(out[:len(want)], want) {
			t.Fatalf("offload %d corrupted", i)
		}
	}
}

func TestNonAcceleratedTrafficUntouched(t *testing.T) {
	// R2: SmartDIMM must behave as a plain DIMM outside acceleration
	// ranges, even while offloads are in flight.
	r := newRig(t, 128*1024, 8)
	plain := uint64(2 << 20)
	want := corpus.Generate(corpus.Random, PageSize, 9)
	r.hier.Write(0, plain, want)
	r.hier.Flush(plain, PageSize)

	key := []byte("0123456789abcdef")
	runTLSEncrypt(t, r, key, []byte("abcdefghijkl"), nil, corpus.Generate(corpus.Text, 2000, 1))

	got := make([]byte, 0, PageSize)
	var line [64]byte
	for off := 0; off < PageSize; off += 64 {
		r.hier.Read64(0, plain+uint64(off), line[:])
		got = append(got, line[:]...)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("plain traffic corrupted by in-flight offload")
	}
}

func TestCompCpyValidation(t *testing.T) {
	r := newRig(t, 128*1024, 8)
	ctx := &OffloadContext{Op: OpCompress, Length: PageSize}
	if _, err := r.driver.CompCpy(0, 100, 0, PageSize, ctx, true); err != ErrNotAligned {
		t.Fatalf("unaligned dbuf: %v", err)
	}
	if _, err := r.driver.CompCpy(0, 0, 100, PageSize, ctx, true); err != ErrNotAligned {
		t.Fatalf("unaligned sbuf: %v", err)
	}
	if _, err := r.driver.CompCpy(0, 0, PageSize, 0, ctx, true); err == nil {
		t.Fatal("zero size accepted")
	}
	// TLS record larger than CompCpy size rejected.
	tctx := tlsOffloadContext(t, aesgcm.Encrypt, []byte("0123456789abcdef"), []byte("abcdefghijkl"), nil, PageSize)
	if _, err := r.driver.CompCpy(0, 0, PageSize, PageSize, tctx, false); err == nil {
		t.Fatal("record exceeding size accepted")
	}
}

func TestDriverAllocator(t *testing.T) {
	r := newRig(t, 128*1024, 8)
	a, err := r.driver.AllocPages(2)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := r.driver.AllocPages(2)
	if a == b {
		t.Fatal("duplicate allocation")
	}
	if a%PageSize != 0 || b%PageSize != 0 {
		t.Fatal("unaligned allocation")
	}
	r.driver.FreePages(a, 2)
	c, _ := r.driver.AllocPages(2)
	if c != a {
		t.Fatalf("free list not reused: %#x vs %#x", c, a)
	}
	if _, err := r.driver.AllocPages(0); err == nil {
		t.Fatal("zero-page alloc accepted")
	}
}

func TestMMIOStatusReflectsScratchpad(t *testing.T) {
	r := newRig(t, 4<<20, 8) // big LLC: pages stay pending until Use
	free0, pend0, err := r.driver.readStatus()
	if err != nil {
		t.Fatal(err)
	}
	if free0 != 2048 || pend0 != 0 {
		t.Fatalf("initial status %d/%d", free0, pend0)
	}
	sbuf, _ := r.driver.AllocPages(1)
	dbuf, _ := r.driver.AllocPages(1)
	r.hier.Write(0, sbuf, corpus.Generate(corpus.Text, MaxCompressInput, 1))
	ctx := &OffloadContext{Op: OpCompress, Length: MaxCompressInput}
	if _, err := r.driver.CompCpy(0, dbuf, sbuf, PageSize, ctx, true); err != nil {
		t.Fatal(err)
	}
	free1, pend1, _ := r.driver.readStatus()
	if free1 != 2047 || pend1 != 1 {
		t.Fatalf("status after offload %d/%d, want 2047/1", free1, pend1)
	}
	r.driver.Use(0, dbuf, PageSize)
	free2, pend2, _ := r.driver.readStatus()
	if free2 != 2048 || pend2 != 0 {
		t.Fatalf("status after use %d/%d, want 2048/0", free2, pend2)
	}
}

func TestReRegistrationEvictsStaleAllocation(t *testing.T) {
	r := newRig(t, 4<<20, 8) // big LLC so the first record stays live
	sbuf, _ := r.driver.AllocPages(1)
	dbuf, _ := r.driver.AllocPages(1)
	data := corpus.Generate(corpus.Text, MaxCompressInput, 21)
	r.hier.Write(0, sbuf, data)
	ctx := &OffloadContext{Op: OpCompress, Length: MaxCompressInput}
	if _, err := r.driver.CompCpy(0, dbuf, sbuf, PageSize, ctx, true); err != nil {
		t.Fatal(err)
	}
	// Reusing the buffers while the old record is still un-recycled
	// implicitly retires the stale allocation (buffer reuse = consent).
	data2 := corpus.Generate(corpus.Text, MaxCompressInput, 22)
	r.hier.Write(0, sbuf, data2)
	if _, err := r.driver.CompCpy(0, dbuf, sbuf, PageSize, ctx, true); err != nil {
		t.Fatalf("re-registration failed: %v", err)
	}
	if r.dev.Stats().StaleEvictions == 0 {
		t.Fatal("stale eviction not counted")
	}
	page, _, err := r.driver.Use(0, dbuf, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := DecodeCompressedPage(page)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, data2) {
		t.Fatal("second offload corrupted after stale eviction")
	}
	// No leaks: scratchpad fully free after Use.
	if free := r.dev.ScratchpadFreePages(); free != 2048 {
		t.Fatalf("scratchpad free = %d, want 2048", free)
	}
}

func TestOpcodeString(t *testing.T) {
	for op, want := range map[Opcode]string{
		OpNone: "none", OpTLSEncrypt: "tls-encrypt", OpTLSDecrypt: "tls-decrypt",
		OpCompress: "compress", OpDecompress: "decompress",
	} {
		if op.String() != want {
			t.Errorf("%d = %q", op, op.String())
		}
	}
}

func TestCompressedPageFormat(t *testing.T) {
	enc := deflate.NewHWEncoder(deflate.PaperHWConfig())
	// Compressible data: deflate payload.
	data := bytes.Repeat([]byte("abcd"), 1023)
	page, err := EncodeCompressedPage(data, enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != PageSize {
		t.Fatal("page size wrong")
	}
	out, err := DecodeCompressedPage(page)
	if err != nil || !bytes.Equal(out, data) {
		t.Fatal("compressible round trip failed")
	}
	// Incompressible data: raw fallback at the maximum input size.
	rnd := make([]byte, MaxCompressInput)
	rand.New(rand.NewSource(1)).Read(rnd)
	page, err = EncodeCompressedPage(rnd, enc)
	if err != nil {
		t.Fatal(err)
	}
	out, err = DecodeCompressedPage(page)
	if err != nil || !bytes.Equal(out, rnd) {
		t.Fatal("raw fallback round trip failed")
	}
	// Oversized input is rejected with an error, not a panic.
	if _, err := EncodeCompressedPage(make([]byte, PageSize), enc); err == nil {
		t.Error("oversized compression input accepted")
	}
	// Corrupt headers and payloads are rejected with deflate.ErrCorrupt.
	if _, err := DecodeCompressedPage([]byte{1}); !errors.Is(err, deflate.ErrCorrupt) {
		t.Fatalf("short page: %v", err)
	}
	if _, err := CompressedPayloadLen([]byte{1}); !errors.Is(err, deflate.ErrCorrupt) {
		t.Fatalf("short page length: %v", err)
	}
	bad := make([]byte, 64)
	bad[0] = 0xFF
	bad[1] = 0xFF
	bad[2] = 0xFF
	if _, err := DecodeCompressedPage(bad); !errors.Is(err, deflate.ErrCorrupt) {
		t.Fatalf("overrun length: %v", err)
	}
	page, err = EncodeCompressedPage(data, enc)
	if err != nil {
		t.Fatal(err)
	}
	page[compHeaderSize] |= 0x06 // BTYPE=11, reserved
	if _, err := DecodeCompressedPage(page); !errors.Is(err, deflate.ErrCorrupt) {
		t.Fatalf("reserved block type: %v", err)
	}
}

// TestSoftCompressPage checks the software page producer: its HTML page
// holds a compress/flate stream that compress/flate and
// DecodeCompressedPage both inflate, shorter than the DSA's, and a
// page resets a pooled writer instead of building a new one (about
// 1 MB of state), which leaves the page buffer and the writer's sink:
// 2 allocations per page, measured (not under -race, which empties
// pools at random).
func TestSoftCompressPage(t *testing.T) {
	html := corpus.Generate(corpus.HTML, MaxCompressInput, 4)
	page := SoftCompressPage(html)
	n, err := CompressedPayloadLen(page)
	if err != nil || binary.LittleEndian.Uint32(page)&compRawFlag != 0 || len(page) != compHeaderSize+n {
		t.Fatalf("HTML page: header %#x, %d bytes, err %v", binary.LittleEndian.Uint32(page), len(page), err)
	}
	ref, err := io.ReadAll(flate.NewReader(bytes.NewReader(page[compHeaderSize:])))
	if err != nil || !bytes.Equal(ref, html) {
		t.Fatalf("compress/flate inflate: %v", err)
	}
	if out, err := DecodeCompressedPage(page); err != nil || !bytes.Equal(out, html) {
		t.Fatalf("DecodeCompressedPage: %v", err)
	}
	dsa, err := EncodeCompressedPage(html, deflate.NewHWEncoder(deflate.PaperHWConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if dn, _ := CompressedPayloadLen(dsa); n >= dn {
		t.Fatalf("software stream %d bytes, DSA stream %d: software should compress better", n, dn)
	}
	if raceEnabled {
		return
	}
	const maxAllocs = 2
	if allocs := testing.AllocsPerRun(50, func() { SoftCompressPage(html) }); allocs > maxAllocs {
		t.Fatalf("%v allocs per page, want at most %d", allocs, maxAllocs)
	}
}

func TestDeviceConfigValidation(t *testing.T) {
	if _, err := NewDevice(DeviceConfig{Geometry: dram.SmallGeometry()}); err == nil {
		t.Fatal("zero scratchpad accepted")
	}
	bad := PaperDeviceConfig(dram.Geometry{Ranks: 3, BankGroups: 4, BanksPerBG: 4, Rows: 16, ColsPerRow: 16})
	if _, err := NewDevice(bad); err == nil {
		t.Fatal("bad geometry accepted")
	}
}

func TestTranslationTableStaysHealthy(t *testing.T) {
	r := newRig(t, 64*1024, 8)
	key := []byte("0123456789abcdef")
	for i := 0; i < 20; i++ {
		pt := corpus.Generate(corpus.Text, 3000, int64(i))
		runTLSEncrypt(t, r, key, []byte("abcdefghijkl"), nil, pt)
	}
	ts := r.dev.TranslationStats()
	if ts.FailedInserts != 0 {
		t.Fatalf("translation insert failures: %+v", ts)
	}
	if ts.Inserts == 0 || ts.Deletes == 0 {
		t.Fatalf("translation table unused: %+v", ts)
	}
}

// TestBuildDSARejectsUnknownDirection: a TLS context whose direction
// byte is neither encrypt nor decrypt is a config error. Accepted, it
// would build a DSA that decrypts but never captures the tag, holding
// the trailer line forever.
func TestBuildDSARejectsUnknownDirection(t *testing.T) {
	key, iv := []byte("0123456789abcdef"), []byte("abcdefghijkl")
	for _, op := range []Opcode{OpTLSEncrypt, OpTLSDecrypt} {
		ctx := tlsOffloadContext(t, aesgcm.Decrypt, key, iv, nil, 100)
		ctx.Op = op
		ctx.TLS.Direction = 2
		raw, err := marshalContext(nil, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := buildDSA(op, 100+TagSize, raw, newScheduleCache(1), nil, 0); !errors.Is(err, ErrDSAConfig) {
			t.Errorf("%v with direction 2: err = %v, want ErrDSAConfig", op, err)
		}
	}
}

// TestFeedDSAZeroAllocs checks that a registered TLS record's source
// rdCAS, through the memory controller, the DSA and into the
// Scratchpad, allocates nothing per source line.
func TestFeedDSAZeroAllocs(t *testing.T) {
	r := newRig(t, 256*1024, 8)
	const nPages = 4
	sbuf, _ := r.driver.AllocPages(nPages)
	dbuf, _ := r.driver.AllocPages(nPages)
	payload := nPages*PageSize - TagSize
	ctx := tlsOffloadContext(t, aesgcm.Encrypt, []byte("0123456789abcdef"), []byte("abcdefghijkl"), nil, payload)
	if _, err := r.driver.register(sbuf, dbuf, payload+TagSize, nPages, ctx); err != nil {
		t.Fatal(err)
	}
	ctl := r.hier.Channels[0].Ctl
	var line [dram.CachelineSize]byte
	off := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ctl.Read(sbuf+off, 0, line[:]); err != nil {
			t.Fatal(err)
		}
		off += dram.CachelineSize
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per source line, want 0", allocs)
	}
	if st := r.dev.Stats(); st.DSALinesFed != 101 || st.DSAErrors != 0 {
		t.Fatalf("fed %d lines with %d DSA errors, want 101 and 0", st.DSALinesFed, st.DSAErrors)
	}
}

// TestCompressRecordZeroAllocs checks that once a compression record is
// registered, its 64 source rdCAS, including the one that runs the
// encoder and frames the page into the Scratchpad, allocate nothing.
// Consecutive records re-register the same pages, which retires the
// previous record, so each takes the DSA, source buffer included, that
// its predecessor returned to the free list.
func TestCompressRecordZeroAllocs(t *testing.T) {
	r := newRig(t, 256*1024, 8)
	sbuf, _ := r.driver.AllocPages(1)
	dbuf, _ := r.driver.AllocPages(1)
	ctl := r.hier.Channels[0].Ctl
	ctx := &OffloadContext{Op: OpCompress, Length: MaxCompressInput}
	enc := deflate.NewHWEncoder(deflate.PaperHWConfig())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var line [dram.CachelineSize]byte
	var before, after runtime.MemStats
	var first *deflateDSA
	const records = 5
	for i := 0; i < records; i++ {
		data := corpus.Generate(corpus.HTML, MaxCompressInput, int64(i))
		if _, err := r.hier.Write(0, sbuf, data); err != nil {
			t.Fatal(err)
		}
		if _, err := r.hier.Flush(sbuf, PageSize); err != nil {
			t.Fatal(err)
		}
		if _, err := r.driver.register(sbuf, dbuf, PageSize, 1, ctx); err != nil {
			t.Fatal(err)
		}
		tr, ok := r.dev.tt.Lookup(r.driver.localPage(sbuf))
		if !ok {
			t.Fatal("source page not registered")
		}
		dsa := tr.rec.dsa.(*deflateDSA)
		if i == 0 {
			first = dsa
		} else if dsa != first {
			t.Fatalf("record %d did not reuse the retired record's DSA and source buffer", i)
		}
		runtime.ReadMemStats(&before)
		for off := uint64(0); off < PageSize; off += dram.CachelineSize {
			if _, err := ctl.Read(sbuf+off, 0, line[:]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		// The first record may grow state the device keeps.
		if n := after.Mallocs - before.Mallocs; i > 0 && n != 0 {
			t.Fatalf("record %d: %d allocs over its source lines, want 0", i, n)
		}
		page, _, err := r.driver.Use(0, dbuf, PageSize)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := EncodeCompressedPage(data, enc)
		if !bytes.Equal(page, want) {
			t.Fatalf("record %d: Scratchpad page differs from EncodeCompressedPage", i)
		}
	}
	if st := r.dev.Stats(); st.DSALinesFed != records*LinesPerPage || st.DSAErrors != 0 {
		t.Fatalf("fed %d lines with %d DSA errors, want %d and 0", st.DSALinesFed, st.DSAErrors, records*LinesPerPage)
	}
}

// TestDecompressRecordReusesDSA checks that the Inflate DSA is pooled
// like the Deflate and TLS ones: consecutive decompression records
// re-register the same pages, which retires the previous record, so
// each takes the DSA, page buffer included, that its predecessor
// returned to the free list; and every page still round-trips.
func TestDecompressRecordReusesDSA(t *testing.T) {
	r := newRig(t, 256*1024, 8)
	sbuf, _ := r.driver.AllocPages(1)
	dbuf, _ := r.driver.AllocPages(1)
	ctl := r.hier.Channels[0].Ctl
	ctx := &OffloadContext{Op: OpDecompress, Length: PageSize}
	enc := deflate.NewHWEncoder(deflate.PaperHWConfig())
	var line [dram.CachelineSize]byte
	var first *inflateDSA
	const records = 4
	for i := 0; i < records; i++ {
		data := corpus.Generate(corpus.HTML, MaxCompressInput-i*100, int64(i))
		page, err := EncodeCompressedPage(data, enc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.hier.Write(0, sbuf, page); err != nil {
			t.Fatal(err)
		}
		if _, err := r.hier.Flush(sbuf, PageSize); err != nil {
			t.Fatal(err)
		}
		if _, err := r.driver.register(sbuf, dbuf, PageSize, 1, ctx); err != nil {
			t.Fatal(err)
		}
		tr, ok := r.dev.tt.Lookup(r.driver.localPage(sbuf))
		if !ok {
			t.Fatal("source page not registered")
		}
		dsa := tr.rec.dsa.(*inflateDSA)
		if i == 0 {
			first = dsa
		} else if dsa != first {
			t.Fatalf("record %d did not reuse the retired record's Inflate DSA", i)
		}
		for off := uint64(0); off < PageSize; off += dram.CachelineSize {
			if _, err := ctl.Read(sbuf+off, 0, line[:]); err != nil {
				t.Fatal(err)
			}
		}
		out, _, err := r.driver.Use(0, dbuf, PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out[:len(data)], data) || !bytes.Equal(out[len(data):], make([]byte, PageSize-len(data))) {
			t.Fatalf("record %d: inflated page differs from the original", i)
		}
	}
	if st := r.dev.Stats(); st.DSALinesFed != records*LinesPerPage || st.DSAErrors != 0 {
		t.Fatalf("fed %d lines with %d DSA errors, want %d and 0", st.DSALinesFed, st.DSAErrors, records*LinesPerPage)
	}
}

// TestTLSRecordZeroAllocs checks that once the device has served a TLS
// record, later records on the same key allocate nothing from
// registration to retirement: CompCpy (status read, registration and
// context, the source rdCAS through the DSA into the Scratchpad) and the
// destination flush whose writebacks self-recycle every line. Each
// record re-registers the same two pages; the output must match
// crypto/cipher's GCM.
func TestTLSRecordZeroAllocs(t *testing.T) {
	r := newRig(t, 256*1024, 8)
	const payload = PageSize // with the tag, a two-page record
	sbuf, _ := r.driver.AllocPages(2)
	dbuf, _ := r.driver.AllocPages(2)
	key := []byte("0123456789abcdef")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	const records = 5
	for i := 0; i < records; i++ {
		iv := []byte("abcdefghijk" + string(rune('a'+i)))
		aad := []byte{0x17, 0x03, 0x03, byte(i), 0}
		pt := corpus.Generate(corpus.Text, payload, int64(i))
		if _, err := r.hier.Write(0, sbuf, pt); err != nil {
			t.Fatal(err)
		}
		ctx := tlsOffloadContext(t, aesgcm.Encrypt, key, iv, aad, payload)
		runtime.ReadMemStats(&before)
		if _, err := r.driver.CompCpy(0, dbuf, sbuf, payload+TagSize, ctx, false); err != nil {
			t.Fatal(err)
		}
		if _, err := r.hier.Flush(dbuf, payload+TagSize); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		// The first record backs the device's pools, key schedule and
		// Scratchpad pages.
		if n := after.Mallocs - before.Mallocs; i > 0 && n != 0 {
			t.Fatalf("record %d: %d allocs from registration to retirement, want 0", i, n)
		}
		if n := r.dev.InFlightRecords(); n != 0 {
			t.Fatalf("record %d: %d records in flight after the flush, want 0 (retired)", i, n)
		}
		got, _, err := r.driver.Use(0, dbuf, payload+TagSize)
		if err != nil {
			t.Fatal(err)
		}
		if want := stdSeal(t, key, iv, pt, aad); !bytes.Equal(got, want) {
			t.Fatalf("record %d: ciphertext||tag differs from crypto/cipher", i)
		}
	}
	st := r.dev.Stats()
	if st.DSAErrors != 0 || st.RecordAborts != 0 || st.PagesRecycled != 2*records {
		t.Fatalf("%d DSA errors, %d aborts, %d pages recycled; want 0, 0, %d", st.DSAErrors, st.RecordAborts, st.PagesRecycled, 2*records)
	}
}

// backedPages counts the Scratchpad pages that hold host memory.
func backedPages(d *Device) int {
	n := 0
	for _, p := range d.sp.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// registerTLS registers (without copying) a one-page TLS record of n
// payload bytes on fresh source and destination pages.
func registerTLS(t *testing.T, r *rig, n int) (sbuf, dbuf uint64, err error) {
	t.Helper()
	sbuf, _ = r.driver.AllocPages(1)
	dbuf, _ = r.driver.AllocPages(1)
	ctx := tlsOffloadContext(t, aesgcm.Encrypt, []byte("0123456789abcdef"), []byte("abcdefghijkl"), nil, n)
	_, err = r.driver.register(sbuf, dbuf, n+TagSize, 1, ctx)
	return sbuf, dbuf, err
}

// TestScratchpadBacksPagesOnFirstUse checks that Scratchpad pages hold
// host memory only once a record takes them: records served one at a
// time back one page, k records held open back k pages, the device
// still runs out at exactly ScratchpadPages, and a reused page never
// serves the bytes of the record that used it before.
func TestScratchpadBacksPagesOnFirstUse(t *testing.T) {
	key, iv := []byte("0123456789abcdef"), []byte("abcdefghijkl")
	r := newRig(t, 256*1024, 8)
	if n := backedPages(r.dev); n != 0 {
		t.Fatalf("fresh device backs %d pages, want 0", n)
	}
	for i := 0; i < 4; i++ {
		runTLSEncrypt(t, r, key, iv, nil, corpus.Generate(corpus.Text, 1000, int64(i)))
		if free := r.dev.ScratchpadFreePages(); free != r.dev.cfg.ScratchpadPages {
			t.Fatalf("record %d: %d free pages after its use, want all %d", i, free, r.dev.cfg.ScratchpadPages)
		}
		if n := backedPages(r.dev); n != 1 {
			t.Fatalf("record %d: %d backed pages, want 1", i, n)
		}
	}

	r = newRig(t, 256*1024, 8)
	const open = 5
	for i := 0; i < open; i++ {
		if _, _, err := registerTLS(t, r, 1000); err != nil {
			t.Fatal(err)
		}
	}
	if n := backedPages(r.dev); n != open {
		t.Fatalf("%d records open back %d pages, want %d", open, n, open)
	}

	cfg := PaperDeviceConfig(dram.SmallGeometry())
	cfg.ScratchpadPages, cfg.ConfigPages = 16, 64
	r = newRigConfig(t, cfg, 256*1024, 8)
	for i := 0; i < cfg.ScratchpadPages; i++ {
		if _, _, err := registerTLS(t, r, 1000); err != nil {
			t.Fatalf("record %d of %d: %v", i, cfg.ScratchpadPages, err)
		}
	}
	if _, _, err := registerTLS(t, r, 1000); !errors.Is(err, ErrNoScratchpad) {
		t.Fatalf("record %d: err = %v, want ErrNoScratchpad", cfg.ScratchpadPages, err)
	}
	if n := backedPages(r.dev); n != cfg.ScratchpadPages {
		t.Fatalf("full device backs %d pages, want %d", n, cfg.ScratchpadPages)
	}

	// The page record 1 used holds its ciphertext; record 2 takes the
	// same page, and a read of a line its DSA has not produced yet must
	// assert ALERT_N (S13), not serve record 1's bytes.
	r = newRig(t, 256*1024, 8)
	runTLSEncrypt(t, r, key, iv, nil, corpus.Generate(corpus.Text, 1000, 1))
	_, dbuf, err := registerTLS(t, r, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if n := backedPages(r.dev); n != 1 {
		t.Fatalf("second record backs %d pages, want the first record's 1", n)
	}
	alerts := r.dev.Stats().Alerts
	var line [dram.CachelineSize]byte
	if _, err := r.hier.Channels[0].Ctl.Read(dbuf, 0, line[:]); !errors.Is(err, memctrl.ErrAlertRetryExhausted) {
		t.Fatalf("read of a pending line: err = %v, want ALERT_N retries exhausted", err)
	}
	if r.dev.Stats().Alerts == alerts {
		t.Fatal("read of a pending line on a reused page asserted no ALERT_N")
	}
}

// pendingList is the Force-Recycle page list as the MMIO config space
// reported it when it built the whole list per read: the destination
// pages of the in-use Scratchpad pages, in page order.
func pendingList(d *Device) []uint64 {
	var out []uint64
	for _, p := range d.sp.pages {
		if p != nil && p.inUse {
			out = append(out, p.dbufPage)
		}
	}
	return out
}

// TestMMIOReadsMatchPendingList checks the MMIO status word and the
// pending-page chunks against the list-built reference on a device
// holding pending pages around holes a retired and an aborted record
// left, and that a status read allocates nothing.
func TestMMIOReadsMatchPendingList(t *testing.T) {
	r := newRig(t, 256*1024, 8)
	var srcs []uint64
	for i := 0; i < 12; i++ {
		sbuf, _, err := registerTLS(t, r, 1000)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, sbuf)
	}
	r.driver.abortOffload(srcs[3])
	r.driver.abortOffload(srcs[7])
	runTLSEncrypt(t, r, []byte("0123456789abcdef"), []byte("abcdefghijkl"), nil, make([]byte, 1000))
	list := pendingList(r.dev)
	if len(list) != 10 || backedPages(r.dev) != 12 {
		t.Fatalf("%d pending of %d backed pages, want 10 of 12", len(list), backedPages(r.dev))
	}

	var got [dram.CachelineSize]byte
	read := func(off uint64) []byte {
		t.Helper()
		if err := r.dev.mmioRead(r.dev.mmioBase+off, dram.Command{}, got[:]); err != nil {
			t.Fatal(err)
		}
		return got[:]
	}
	var want [dram.CachelineSize]byte
	binary.LittleEndian.PutUint64(want[0:], uint64(r.dev.sp.freePages()))
	binary.LittleEndian.PutUint64(want[8:], uint64(len(list)))
	binary.LittleEndian.PutUint64(want[16:], r.dev.stats.AuthFailures)
	binary.LittleEndian.PutUint64(want[24:], uint64(r.dev.sp.occupancyBytes()))
	if !bytes.Equal(read(0), want[:]) {
		t.Fatalf("status read %x, want %x", got, want)
	}
	for chunk := 0; chunk < 3; chunk++ {
		want = [dram.CachelineSize]byte{}
		for i := 0; i < 8 && chunk*8+i < len(list); i++ {
			binary.LittleEndian.PutUint64(want[i*8:], list[chunk*8+i])
		}
		if !bytes.Equal(read(uint64(chunk+1)*dram.CachelineSize), want[:]) {
			t.Fatalf("chunk %d read %x, want %x", chunk, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { read(0) }); n != 0 {
		t.Fatalf("status read: %v allocs, want 0", n)
	}
}

// TestRetiredRecordDisownsTranslations checks the generation stamp that
// keeps pooled records sound: once a record is torn down and its struct
// serves the next record, a translation made for the old record no
// longer names an owner, so retirePage and abortRecord cannot take it
// for the new record's.
func TestRetiredRecordDisownsTranslations(t *testing.T) {
	r := newRig(t, 256*1024, 8)
	sbuf, _, err := registerTLS(t, r, 1000)
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := r.dev.tt.Lookup(r.driver.localPage(sbuf))
	if !ok || tr.owner() == nil {
		t.Fatal("registered source page has no owning record")
	}
	stale := *tr
	r.driver.abortOffload(sbuf)
	sbuf, _, err = registerTLS(t, r, 1000)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ = r.dev.tt.Lookup(r.driver.localPage(sbuf))
	if tr.rec != stale.rec {
		t.Fatal("the second record did not reuse the aborted record's struct")
	}
	if tr.owner() != stale.rec || stale.owner() != nil {
		t.Fatalf("owner of the live entry = %p, of the stale one = %p; want the record and nil", tr.owner(), stale.owner())
	}
}

// TestStaleDestinationKeepsNewOwner is the regression for a record
// whose destination page was stale-evicted and re-registered by another
// record while it still had a source line to feed: that line's output
// must not land in the other record's Scratchpad page or mark its line
// ready. It is dropped and counted as a DSA error, as for a destination
// with no Translation Table entry.
func TestStaleDestinationKeepsNewOwner(t *testing.T) {
	r := newRig(t, 256*1024, 8)
	key, iv := []byte("0123456789abcdef"), []byte("abcdefghijkl")
	const nPages = 2
	sbufA, _ := r.driver.AllocPages(nPages)
	dbufA, _ := r.driver.AllocPages(nPages)
	payload := nPages*PageSize - TagSize
	ctx := tlsOffloadContext(t, aesgcm.Encrypt, key, iv, nil, payload)
	if _, err := r.driver.register(sbufA, dbufA, payload+TagSize, nPages, ctx); err != nil {
		t.Fatal(err)
	}
	trA, _ := r.dev.tt.Lookup(r.driver.localPage(sbufA))
	recA := trA.owner()
	// Feed every source line of A but the first of its second page.
	ctl := r.hier.Channels[0].Ctl
	var line [dram.CachelineSize]byte
	last := sbufA + PageSize
	for off := uint64(0); off < nPages*PageSize; off += dram.CachelineSize {
		if sbufA+off == last {
			continue
		}
		if _, err := ctl.Read(sbufA+off, 0, line[:]); err != nil {
			t.Fatal(err)
		}
	}

	// Record B takes A's second destination page, which evicts A's
	// allocation there.
	sbufB, _ := r.driver.AllocPages(1)
	shared := dbufA + PageSize
	ctx = tlsOffloadContext(t, aesgcm.Encrypt, key, iv, nil, 1000)
	if _, err := r.driver.register(sbufB, shared, 1000+TagSize, 1, ctx); err != nil {
		t.Fatal(err)
	}
	trB, ok := r.dev.tt.Lookup(r.driver.localPage(shared))
	if !ok || trB.isSource || trB.owner() == nil || trB.owner() == recA {
		t.Fatal("the shared page is not B's destination")
	}
	sp := r.dev.sp.pages[trB.spIdx]
	data, state := sp.data, sp.state
	if state[0] != linePending {
		t.Fatalf("B's first line in state %v, want pending", state[0])
	}
	errs := r.dev.Stats().DSAErrors

	if _, err := ctl.Read(last, 0, line[:]); err != nil {
		t.Fatal(err)
	}
	settle(recA)
	if sp.state != state || sp.data != data {
		t.Fatalf("A's last line changed B's Scratchpad page (first line now %v)", sp.state[0])
	}
	if r.dev.Stats().DSAErrors == errs {
		t.Fatal("A's unplaceable line counted no DSA error")
	}
}
