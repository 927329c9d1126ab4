package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/aesgcm"
	"repro/internal/deflate"
	"repro/internal/dram"
)

// rawDevice drives a Device through bare DDR commands, bypassing the
// memory controller, to pin down the arbiter's Fig. 6 states.
type rawDevice struct {
	t   *testing.T
	dev *Device
}

func newRawDevice(t *testing.T) *rawDevice {
	t.Helper()
	dev, err := NewDevice(PaperDeviceConfig(dram.SmallGeometry()))
	if err != nil {
		t.Fatal(err)
	}
	return &rawDevice{t: t, dev: dev}
}

// cmdFor decodes phys into an activated command of the given kind.
func (r *rawDevice) cmdFor(kind dram.CommandKind, phys uint64) dram.Command {
	cmd, err := r.dev.Mapper().Decode(phys)
	if err != nil {
		r.t.Fatal(err)
	}
	cmd.Kind = kind
	return cmd
}

// open activates the row containing phys (precharging first if needed).
func (r *rawDevice) open(cycle int64, phys uint64) {
	cmd := r.cmdFor(dram.CmdACT, phys)
	idx := r.dev.Mapper().BankIndex(cmd.Rank, cmd.BG, cmd.BA)
	if r.dev.bank[idx] != -1 {
		pre := cmd
		pre.Kind = dram.CmdPRE
		if _, err := r.dev.HandleCommand(cycle, pre, nil, nil); err != nil {
			r.t.Fatal(err)
		}
	}
	if _, err := r.dev.HandleCommand(cycle, cmd, nil, nil); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rawDevice) write(cycle int64, phys uint64, data []byte) (alert bool) {
	r.open(cycle, phys)
	alert, err := r.dev.HandleCommand(cycle, r.cmdFor(dram.CmdWr, phys), data, nil)
	if err != nil {
		r.t.Fatal(err)
	}
	return alert
}

func (r *rawDevice) read(cycle int64, phys uint64, dst []byte) (alert bool) {
	r.open(cycle, phys)
	alert, err := r.dev.HandleCommand(cycle, r.cmdFor(dram.CmdRd, phys), nil, dst)
	if err != nil {
		r.t.Fatal(err)
	}
	return alert
}

// registerTLS registers a one-page TLS encrypt offload directly via MMIO
// writes and returns (sbufPage, dbufPage) physical bases.
func (r *rawDevice) registerTLS(cycle int64, payloadLen int, key, iv []byte) (uint64, uint64) {
	r.t.Helper()
	g, err := aesgcm.NewGCM(key)
	if err != nil {
		r.t.Fatal(err)
	}
	eiv, err := g.EIV(iv)
	if err != nil {
		r.t.Fatal(err)
	}
	ctx := &OffloadContext{
		Op: OpTLSEncrypt,
		TLS: &TLSContext{Direction: aesgcm.Encrypt, Key: key, IV: iv,
			H: g.H(), EIV: eiv, PayloadLen: payloadLen},
		Length: payloadLen,
	}
	raw, err := marshalContext(ctx)
	if err != nil {
		r.t.Fatal(err)
	}
	const sbufPage, dbufPage = 4, 8
	var hdr [64]byte
	binary.LittleEndian.PutUint16(hdr[0:], regMagic)
	hdr[2] = byte(OpTLSEncrypt)
	binary.LittleEndian.PutUint16(hdr[4:], uint16(len(raw)))
	binary.LittleEndian.PutUint16(hdr[6:], 0)
	binary.LittleEndian.PutUint64(hdr[8:], sbufPage)
	binary.LittleEndian.PutUint64(hdr[16:], dbufPage)
	binary.LittleEndian.PutUint32(hdr[24:], uint32(payloadLen+TagSize))
	binary.LittleEndian.PutUint64(hdr[28:], sbufPage)
	if alert := r.write(cycle, r.dev.MMIOBase(), hdr[:]); alert {
		r.t.Fatal("MMIO write alerted")
	}
	for off := 0; off < len(raw); off += 64 {
		var chunk [64]byte
		copy(chunk[:], raw[off:])
		k := off / 64
		r.write(cycle, r.dev.MMIOBase()+uint64(k+1)*64, chunk[:])
	}
	return sbufPage * PageSize, dbufPage * PageSize
}

func TestArbiterS13AlertOnPendingRead(t *testing.T) {
	r := newRawDevice(t)
	key := []byte("0123456789abcdef")
	iv := []byte("abcdefghijkl")
	payload := bytes.Repeat([]byte{7}, 64)
	// Stage the source line in DRAM first (before registration, so the
	// write passes through).
	_, _ = r.dev, payload
	sbuf, dbuf := r.registerTLS(0, 64, key, iv)
	// The destination is entirely pending: a read must assert ALERT_N.
	var line [64]byte
	if alert := r.read(10, dbuf, line[:]); !alert {
		t.Fatal("read of pending destination line did not assert ALERT_N (S13)")
	}
	if r.dev.Stats().Alerts == 0 {
		t.Fatal("alert not counted")
	}
	// Feed the source line; result becomes ready after dsaLatencyCycles.
	r.write(10, sbuf, payload) // source write passes through (chips)
	if alert := r.read(11, sbuf, line[:]); alert {
		t.Fatal("source read alerted")
	}
	if r.dev.Stats().DSALinesFed != 1 {
		t.Fatalf("DSA fed %d lines", r.dev.Stats().DSALinesFed)
	}
	// Immediately after the feed the result is still in the pipeline:
	// S13 again.
	if alert := r.read(12, dbuf, line[:]); !alert {
		t.Fatal("read before DSA latency elapsed did not alert")
	}
	// After the latency: S10 serves from the scratchpad.
	if alert := r.read(12+dsaLatencyCycles, dbuf, line[:]); alert {
		t.Fatal("ready line still alerting")
	}
	if r.dev.Stats().ScratchpadReads != 1 {
		t.Fatalf("S10 reads = %d, want 1", r.dev.Stats().ScratchpadReads)
	}
	// The served data is the ciphertext.
	g, _ := aesgcm.NewGCM(key)
	want, _ := g.Seal(nil, iv, payload, nil)
	if !bytes.Equal(line[:], want[:64]) {
		t.Fatal("S10 data is not the DSA output")
	}
}

func TestArbiterS7IgnoredWriteThenSwap(t *testing.T) {
	r := newRawDevice(t)
	key := []byte("0123456789abcdef")
	iv := []byte("abcdefghijkl")
	payload := bytes.Repeat([]byte{9}, 64)
	sbuf, dbuf := r.registerTLS(0, 64, key, iv)
	r.write(0, sbuf, payload)
	var line [64]byte
	r.read(1, sbuf, line[:]) // feed the DSA at cycle 1

	// A writeback arriving before readyAt (cycle 1 + 32) is ignored (S7).
	stale := bytes.Repeat([]byte{0xAA}, 64)
	if alert := r.write(2, dbuf, stale); alert {
		t.Fatal("S7 write alerted")
	}
	if r.dev.Stats().IgnoredWrites != 1 {
		t.Fatalf("S7 ignored writes = %d, want 1", r.dev.Stats().IgnoredWrites)
	}
	if r.dev.Stats().SelfRecycles != 0 {
		t.Fatal("premature recycle")
	}
	// After the DSA latency the same writeback self-recycles: the DRAM
	// receives the DSA output, not the CPU's stale data.
	if alert := r.write(100, dbuf, stale); alert {
		t.Fatal("recycle write alerted")
	}
	if r.dev.Stats().SelfRecycles != 1 {
		t.Fatalf("self recycles = %d, want 1", r.dev.Stats().SelfRecycles)
	}
	r.read(200, dbuf, line[:])
	g, _ := aesgcm.NewGCM(key)
	want, _ := g.Seal(nil, iv, payload, nil)
	if !bytes.Equal(line[:], want[:64]) {
		t.Fatal("DRAM holds stale data instead of the DSA output after swap")
	}
}

func TestArbiterSourceWritePassesThrough(t *testing.T) {
	r := newRawDevice(t)
	sbuf, _ := r.registerTLS(0, 64, []byte("0123456789abcdef"), []byte("abcdefghijkl"))
	data := bytes.Repeat([]byte{3}, 64)
	r.write(0, sbuf, data)
	if r.dev.Stats().SourceWrites != 1 {
		t.Fatalf("source writes = %d", r.dev.Stats().SourceWrites)
	}
	var line [64]byte
	r.read(1, sbuf, line[:])
	if !bytes.Equal(line[:], data) {
		t.Fatal("source write did not reach DRAM")
	}
}

func TestMMIOStatusAndPendingList(t *testing.T) {
	r := newRawDevice(t)
	_, dbuf := r.registerTLS(0, 64, []byte("0123456789abcdef"), []byte("abcdefghijkl"))
	var status [64]byte
	r.read(1, r.dev.MMIOBase(), status[:])
	free := binary.LittleEndian.Uint64(status[0:])
	pending := binary.LittleEndian.Uint64(status[8:])
	if free != 2047 || pending != 1 {
		t.Fatalf("status free=%d pending=%d, want 2047/1", free, pending)
	}
	var list [64]byte
	r.read(2, r.dev.MMIOBase()+64, list[:])
	if got := binary.LittleEndian.Uint64(list[0:]); got != dbuf/PageSize {
		t.Fatalf("pending list[0] = %d, want %d", got, dbuf/PageSize)
	}
}

func TestMMIORegistrationErrors(t *testing.T) {
	r := newRawDevice(t)
	var hdr [64]byte
	// Bad magic.
	if _, err := r.dev.HandleCommand(0, r.openedWr(r.dev.MMIOBase()), hdr[:], nil); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Valid magic, zero record length.
	binary.LittleEndian.PutUint16(hdr[0:], regMagic)
	hdr[2] = byte(OpCompress)
	if _, err := r.dev.HandleCommand(0, r.openedWr(r.dev.MMIOBase()), hdr[:], nil); err == nil {
		t.Fatal("zero record length accepted")
	}
	// Context write with no registration in flight.
	if _, err := r.dev.HandleCommand(0, r.openedWr(r.dev.MMIOBase()+64), hdr[:], nil); err == nil {
		t.Fatal("orphan context write accepted")
	}
	// Page referencing an unknown record.
	binary.LittleEndian.PutUint16(hdr[6:], 1)      // pageIndex 1
	binary.LittleEndian.PutUint64(hdr[28:], 0x999) // unknown ctx page
	binary.LittleEndian.PutUint32(hdr[24:], 4096)
	if _, err := r.dev.HandleCommand(0, r.openedWr(r.dev.MMIOBase()), hdr[:], nil); err == nil {
		t.Fatal("unknown record reference accepted")
	}
}

// openedWr opens the row for phys and returns the write command.
func (r *rawDevice) openedWr(phys uint64) dram.Command {
	r.open(0, phys)
	return r.cmdFor(dram.CmdWr, phys)
}

func TestBankTableDisagreementDetected(t *testing.T) {
	r := newRawDevice(t)
	r.open(0, 0)
	cmd := r.cmdFor(dram.CmdRd, 0)
	cmd.Row = 5 // controller claims a different row than the bank table
	var line [64]byte
	if _, err := r.dev.HandleCommand(0, cmd, nil, line[:]); err == nil {
		t.Fatal("bank table / controller row disagreement not detected")
	}
	// CAS to a precharged bank is also rejected by the bank table.
	pre := r.cmdFor(dram.CmdPRE, 0)
	r.dev.HandleCommand(0, pre, nil, nil)
	rd := r.cmdFor(dram.CmdRd, 0)
	if _, err := r.dev.HandleCommand(0, rd, nil, line[:]); err == nil {
		t.Fatal("CAS to precharged bank accepted")
	}
}

func TestBufferCycleClock(t *testing.T) {
	r := newRawDevice(t)
	var line [64]byte
	r.read(400, 0, line[:])
	if got := r.dev.Stats().BufferCycles; got != 100 {
		t.Fatalf("buffer cycles = %d, want 100 (1/4 of DRAM clock)", got)
	}
}

func TestDestCoverage(t *testing.T) {
	cases := []struct {
		op       Opcode
		len, idx int
		want     int
	}{
		{OpTLSEncrypt, 4112, 0, 4096},
		{OpTLSEncrypt, 4112, 1, 16},
		{OpTLSEncrypt, 100, 0, 100},
		{OpTLSEncrypt, 4096, 1, 0},
		{OpCompress, 2000, 0, PageSize},
		{OpDecompress, 4096, 0, PageSize},
	}
	for _, c := range cases {
		if got := destCoverage(c.op, c.len, c.idx); got != c.want {
			t.Errorf("destCoverage(%v,%d,%d) = %d, want %d", c.op, c.len, c.idx, got, c.want)
		}
	}
}

func TestMarshalContextErrors(t *testing.T) {
	if _, err := marshalContext(&OffloadContext{Op: OpTLSEncrypt}); err == nil {
		t.Fatal("TLS opcode without context accepted")
	}
	if _, err := marshalContext(&OffloadContext{Op: OpNone}); err == nil {
		t.Fatal("OpNone accepted")
	}
	bad := &OffloadContext{Op: OpTLSEncrypt, TLS: &TLSContext{
		Key: make([]byte, 16), IV: make([]byte, 12), H: make([]byte, 8), EIV: make([]byte, 16),
	}}
	if _, err := marshalContext(bad); err == nil {
		t.Fatal("short H accepted")
	}
}

func TestBuildDSAErrors(t *testing.T) {
	if _, err := buildDSA(OpTLSEncrypt, 100, []byte{1, 2}, nil, nil); err == nil {
		t.Fatal("truncated TLS context accepted")
	}
	if _, err := buildDSA(Opcode(99), 100, nil, nil, nil); err == nil {
		t.Fatal("unknown opcode accepted")
	}
	if _, err := buildDSA(OpCompress, PageSize+1, nil, nil, nil); err == nil {
		t.Fatal("oversized compress accepted")
	}
	if _, err := buildDSA(OpDecompress, 0, nil, nil, nil); err == nil {
		t.Fatal("zero-length decompress accepted")
	}

	// Out-of-range compression configs are rejected with ErrDSAConfig
	// before any encoder is built.
	var enc encoderSlot
	bad := map[string]deflate.HWConfig{
		"window-over-chunk":    {ParallelWindow: deflate.ChunkSize + 1},
		"huge-table":           {ParallelWindow: 8, Banks: 8, TableEntries: maxDSATableEntries + 1},
		"billions-of-entries":  {ParallelWindow: 8, Banks: 1 << 31, TableEntries: 1<<32 - 1},
		"banks-over-entries":   {ParallelWindow: 8, Banks: 64, TableEntries: 32},
		"banks-over-default":   {ParallelWindow: 8, Banks: 5000},
		"history-over-rfc":     {ParallelWindow: 8, WindowSize: deflate.MaxDistance + 1},
		"negative-wraps-large": {ParallelWindow: 8, WindowSize: -1},
	}
	for name, cfg := range bad {
		raw, err := marshalContext(&OffloadContext{Op: OpCompress, HW: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := buildDSA(OpCompress, 100, raw, nil, &enc); !errors.Is(err, ErrDSAConfig) {
			t.Errorf("%s: err = %v, want ErrDSAConfig", name, err)
		}
	}
	if enc.enc != nil {
		t.Fatalf("rejected configs built an encoder for %+v", enc.cfg)
	}
	good := []deflate.HWConfig{
		{}, // paper config
		{ParallelWindow: deflate.ChunkSize, Banks: 7, PortsPerBank: 1, WindowSize: deflate.MaxDistance, TableEntries: maxDSATableEntries},
		{ParallelWindow: 1, Banks: 3, TableEntries: 3},
	}
	for _, cfg := range good {
		raw, _ := marshalContext(&OffloadContext{Op: OpCompress, HW: cfg})
		if _, err := buildDSA(OpCompress, 100, raw, nil, &enc); err != nil {
			t.Errorf("%+v rejected: %v", cfg, err)
		}
	}
}

// TestEncoderSlot feeds arbitrary context bytes to buildDSA: the
// device's encoder slot never holds a table over maxDSATableEntries,
// a rejected config leaves it as it was, a repeated config reuses its
// encoder and a new one replaces it.
func TestEncoderSlot(t *testing.T) {
	var enc encoderSlot
	rng := rand.New(rand.NewSource(14))
	raw := make([]byte, 20)
	built := 0
	for i := 0; i < 2000; i++ {
		for f := 0; f < 5; f++ {
			// Mostly small values, so many configs are valid.
			v := rng.Uint32() >> uint(rng.Intn(32))
			binary.LittleEndian.PutUint32(raw[4*f:], v)
		}
		before := enc
		if _, err := buildDSA(OpCompress, 1+rng.Intn(MaxCompressInput), raw, nil, &enc); err == nil {
			built++
		} else if enc != before {
			t.Fatalf("rejected config %x replaced the encoder", raw)
		}
		if enc.enc != nil && (enc.cfg.TableEntries > maxDSATableEntries || enc.cfg.Banks > enc.cfg.TableEntries) {
			t.Fatalf("encoder slot holds an oversized config %+v", enc.cfg)
		}
	}
	if built < 20 {
		t.Fatalf("only %d of 2000 random configs were valid; the bound is untested", built)
	}
	p := deflate.PaperHWConfig()
	first := enc.get(p)
	if enc.get(p) != first {
		t.Fatal("a repeated config rebuilt its encoder")
	}
	q := p
	q.Banks = 4
	if enc.get(q) == first || enc.cfg != q {
		t.Fatal("a new config kept the old encoder")
	}
}
