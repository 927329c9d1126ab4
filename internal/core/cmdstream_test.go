package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/aesgcm"
	"repro/internal/cache"
	"repro/internal/corpus"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/memctrl"
	"repro/internal/memsys"
)

// cmdRecorder is a dram.Module that writes one canonical record per
// command before forwarding it: the cycle, the kind, and the rank, bank
// group, bank, row and column it addresses. Two runs issue the same
// command stream exactly when their records hash alike.
type cmdRecorder struct {
	dram.Module
	sum   hash.Hash
	rec   []byte
	kinds [dram.CmdREF + 1]int
}

func newCmdRecorder(mod dram.Module) *cmdRecorder {
	return &cmdRecorder{Module: mod, sum: sha256.New()}
}

// HandleCommand implements dram.Module.
func (r *cmdRecorder) HandleCommand(cycle int64, cmd dram.Command, wdata, rdata []byte) (bool, error) {
	r.rec = fmt.Appendf(r.rec[:0], "%d %v %d %d %d %d %d\n",
		cycle, cmd.Kind, cmd.Rank, cmd.BG, cmd.BA, cmd.Row, cmd.Col)
	r.sum.Write(r.rec)
	r.kinds[cmd.Kind]++
	return r.Module.HandleCommand(cycle, cmd, wdata, rdata)
}

func (r *cmdRecorder) hash() string { return hex.EncodeToString(r.sum.Sum(nil)) }

// streamHier builds a one-channel hierarchy over mod with a 64 KB LLC,
// small enough that the mix evicts and writes back.
func streamHier(t *testing.T, mod dram.Module) (*memsys.Hierarchy, *memctrl.Controller) {
	t.Helper()
	llc, err := cache.New(cache.Config{SizeBytes: 64 * 1024, Ways: 8,
		WayMask: [2]uint64{cache.ClassDMA: 0b11}})
	if err != nil {
		t.Fatal(err)
	}
	ctl := memctrl.New(dram.DDR4_3200(), mod)
	h, err := memsys.New(llc, memsys.Channel{Ctl: ctl, Mod: mod})
	if err != nil {
		t.Fatal(err)
	}
	return h, ctl
}

// streamMix drives the access mix both modules see, in the upper half
// of the device's range (the driver allocates offload buffers from page
// 0): sequential, random and read/write streams, a flush-forced drain,
// a read that drains the write it hits, and injected memctrl.crc
// faults.
func streamMix(t *testing.T, h *memsys.Hierarchy, ctl *memctrl.Controller) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	base := dram.SmallGeometry().CapacityBytes() / 2
	line := make([]byte, dram.CachelineSize)
	data := corpus.Generate(corpus.Text, 96<<10, 7)

	// Sequential: write 96 KB through a 64 KB LLC, then read it back.
	_, err := h.Write(0, base, data)
	must(err)
	buf, _, err := h.Read(nil, 0, base, len(data))
	must(err)

	// Random lines over 32 MB, a third of them stores.
	x := uint64(1)
	for i := 0; i < 3000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		a := base + (x>>24)%(32<<20)
		line[0] = byte(i)
		if i%3 == 0 {
			_, err = h.Write64(0, a, line)
		} else {
			_, err = h.Read64(1, a, line)
		}
		must(err)
	}

	// A read stream beside a DDIO write stream, then NIC TX reads.
	for i := uint64(0); i < 1024; i++ {
		must(h.DMAWrite64(base+40<<20+i*64, line))
		_, err = h.Read64(2, base+48<<20+i*64, line)
		must(err)
	}
	buf, _, err = h.DMARead(buf[:0], base+40<<20, 32<<10)
	must(err)

	// Flush-forced drain: dirty lines written back, then every queue
	// drained.
	_, err = h.Write(0, base+8<<20, data[:16<<10])
	must(err)
	_, err = h.Flush(base+8<<20, 16<<10)
	must(err)

	// A read that hits a queued write drains the queue first.
	_, err = ctl.Write(base+12<<20, -1, line)
	must(err)
	_, err = ctl.Read(base+12<<20, 0, line)
	must(err)

	// Injected CRC failures on every fifth rdCAS.
	ctl.Faults = fault.New(1)
	ctl.Faults.Arm("memctrl.crc", fault.Periodic{Every: 5})
	_, _, err = h.Read(buf[:0], 0, base+16<<20, 32<<10)
	must(err)
	ctl.Faults = nil
	must(h.Membar())
	if ctl.Stats().CRCRetries == 0 {
		t.Fatal("mix injected no memctrl.crc retry")
	}
}

// TestCommandStreamPinned pins the DDR command stream the memory path
// issues for a fixed mix, over a plain DIMM and over a SmartDIMM that
// also runs a TLS and a Deflate CompCpy record and answers a read of a
// not-yet-ready destination line with ALERT_N (S13). A faster memory
// path must reproduce every command at the same cycle: a changed hash
// means the simulated channel changed, not only the host code.
func TestCommandStreamPinned(t *testing.T) {
	const (
		plainHash = "76074e446978eb0f266d2115826caa1078c31e1923fdcebf633633c73058b8ca"
		plainCmds = 15350
		devHash   = "f4b212a1065ad1627c61184c5b456b2128ab1a170ad9f7f72aa1b82138496a30"
		devCmds   = 16156
	)

	plainDIMM, err := dram.NewPlainDIMM(dram.SmallGeometry())
	if err != nil {
		t.Fatal(err)
	}
	plain := newCmdRecorder(plainDIMM)
	h, ctl := streamHier(t, plain)
	streamMix(t, h, ctl)

	dev, err := NewDevice(PaperDeviceConfig(dram.SmallGeometry()))
	if err != nil {
		t.Fatal(err)
	}
	smart := newCmdRecorder(dev)
	h, ctl = streamHier(t, smart)
	r := &rig{dev: dev, hier: h, driver: NewDriver(h, 0, dram.SmallGeometry().CapacityBytes(), 1)}
	streamMix(t, h, ctl)

	key, iv := []byte("0123456789abcdef"), []byte("abcdefghijkl")
	runTLSEncrypt(t, r, key, iv, []byte("\x17\x03\x03\x13\xa0"), corpus.Generate(corpus.Text, 5000, 2))

	sbuf, _ := r.driver.AllocPages(1)
	dbuf, _ := r.driver.AllocPages(1)
	if _, err := h.Write(0, sbuf, corpus.Generate(corpus.HTML, MaxCompressInput, 3)); err != nil {
		t.Fatal(err)
	}
	ctx := &OffloadContext{Op: OpCompress, Length: MaxCompressInput}
	if _, err := r.driver.CompCpy(0, dbuf, sbuf, PageSize, ctx, true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.driver.Use(0, dbuf, PageSize); err != nil {
		t.Fatal(err)
	}

	// S13: read a destination line right after its source line feeds
	// the DSA; the controller retries until the result is ready.
	sbuf, dbuf, err = registerTLS(t, r, 64)
	if err != nil {
		t.Fatal(err)
	}
	alerts := dev.Stats().Alerts
	var line [dram.CachelineSize]byte
	if _, err := ctl.Read(sbuf, 0, line[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Read(dbuf, 0, line[:]); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().Alerts == alerts {
		t.Fatal("read of a destination line in the DSA pipeline asserted no ALERT_N")
	}

	for _, c := range []struct {
		name string
		rec  *cmdRecorder
		hash string
		n    int
	}{{"plain", plain, plainHash, plainCmds}, {"smartdimm", smart, devHash, devCmds}} {
		n := 0
		for _, k := range c.rec.kinds {
			n += k
		}
		for k := dram.CmdACT; k <= dram.CmdWr; k++ {
			if c.rec.kinds[k] == 0 {
				t.Errorf("%s: mix issued no %v", c.name, k)
			}
		}
		if got := c.rec.hash(); got != c.hash || n != c.n {
			t.Errorf("%s: command stream of %d commands hashes %s, want %d commands hashing %s", c.name, n, got, c.n, c.hash)
		}
	}
}

// dataRecorder is a cmdRecorder that also hashes the bytes each CAS
// moves: a wrCAS's burst, and a rdCAS's burst once the module answers
// without ALERT_N. A stale translation in the device shows in the bytes
// even where the commands match.
type dataRecorder struct{ *cmdRecorder }

// HandleCommand implements dram.Module.
func (r dataRecorder) HandleCommand(cycle int64, cmd dram.Command, wdata, rdata []byte) (bool, error) {
	alert, err := r.cmdRecorder.HandleCommand(cycle, cmd, wdata, rdata)
	fmt.Fprintf(r.sum, "%t %t\n", alert, err != nil)
	switch {
	case cmd.Kind == dram.CmdWr:
		r.sum.Write(wdata[:dram.CachelineSize])
	case cmd.Kind == dram.CmdRd && !alert && err == nil:
		r.sum.Write(rdata[:dram.CachelineSize])
	}
	return alert, err
}

// runEdgeMix drives the edges of row runs, in the upper half of the
// device's range: a stream across the end of a row (column 127 to the
// next bank group), a descending stream, one line read twice, two rows
// of one bank in alternation, a drain and a Flush between two reads of
// one row, injected memctrl.crc faults and module ALERT_Ns (armed on the
// module by arm) in the middle of a run, and an address past capacity
// right after a run, read and written.
func runEdgeMix(t *testing.T, h *memsys.Hierarchy, ctl *memctrl.Controller, arm func(*fault.Injector)) {
	t.Helper()
	must := func(_ int64, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	geo := dram.SmallGeometry()
	capacity := geo.CapacityBytes()
	rowBytes := uint64(geo.ColsPerRow * dram.CachelineSize)
	bankStride := rowBytes * uint64(geo.TotalBanks()) // next row, same bank
	base := capacity / 2
	line := make([]byte, dram.CachelineSize)
	data := corpus.Generate(corpus.HTML, 8<<10, 11)

	// Across a row end, read through the LLC, then written and flushed.
	buf, _, err := h.Read(nil, 0, base+rowBytes-8*64, 16*64)
	if err != nil {
		t.Fatal(err)
	}
	must(h.Write(0, base+3*rowBytes-6*64, data[:12*64]))
	must(h.Flush(base+3*rowBytes-6*64, 12*64))

	// Descending, across a row start.
	for i := 23; i >= -24; i-- {
		line[0] = byte(i)
		must(h.Read64(1, base+16*rowBytes+uint64(int64(i)*64), line))
	}

	// One line read twice, by the controller and by a NIC.
	one := base + 20*rowBytes + 5*64
	must(ctl.Read(one, 0, line))
	must(ctl.Read(one, 0, line))
	must(h.DMARead64(one+64, line))
	must(h.DMARead64(one+64, line))

	// Two rows of one bank, alternating: a conflict on every CAS.
	a := base + 1<<20
	for i := uint64(0); i < 16; i++ {
		must(ctl.Read(a+i*64, 2, line))
		must(ctl.Read(a+bankStride+i*64, 2, line))
	}

	// A drain (one write in the row, one far off) and a Flush between
	// two reads of one row; the second read sees the drained write.
	r := base + 2<<20
	must(ctl.Read(r, 0, line))
	copy(line, data[64:])
	must(ctl.Write(r+8*64, -1, line))
	must(ctl.Write(r+4<<20, -1, line))
	must(ctl.DrainWrites())
	must(h.Write(0, r+16*64, data[:4*64]))
	must(h.Flush(r+16*64, 4*64))
	must(ctl.Read(r+64, 0, line))
	must(ctl.Read(r+8*64, 0, line))
	must(ctl.Read(r+17*64, 0, line))

	// Faults in the middle of a run that crosses a row end.
	inj := fault.New(1)
	inj.Arm("memctrl.crc", fault.Periodic{Every: 5})
	ctl.Faults = inj
	arm(inj)
	buf, _, err = h.DMARead(buf[:0], base+3<<20+rowBytes-12*64, 24*64)
	if err != nil {
		t.Fatal(err)
	}
	inj.DisarmAll()
	ctl.Faults = nil
	if ctl.Stats().CRCRetries == 0 {
		t.Fatal("mix injected no memctrl.crc retry")
	}

	// Past capacity right after a run at the top of the range: the
	// read fails and the run's row serves the next reads; the write
	// fails its drain after the write before it issued, and a second
	// drain issues the write after it.
	for i := uint64(4); i >= 1; i-- {
		must(ctl.Read(capacity-i*64, 0, line))
	}
	if _, err := ctl.Read(capacity, 0, line); err == nil {
		t.Fatal("read past capacity succeeded")
	}
	must(ctl.Read(capacity-6*64, 0, line))
	must(ctl.Read(capacity-64, 0, line))
	w := base + 5<<20
	must(ctl.Write(w, -1, line))
	must(ctl.Write(capacity, -1, line))
	must(ctl.Write(w+64, -1, line))
	if _, err := ctl.DrainWrites(); err == nil {
		t.Fatal("drain of a write past capacity succeeded")
	}
	must(ctl.DrainWrites())
	must(ctl.Read(w+64, 0, line))
	if err := h.Membar(); err != nil {
		t.Fatal(err)
	}
}

// TestCommandStreamRunEdges pins the command stream and the data bytes
// of runEdgeMix over a plain DIMM and over a SmartDIMM. The SmartDIMM
// also runs a TLS record whose source and destination pages share one
// row: each destination read right after its source line asserts
// ALERT_N (S13) in the middle of the run; the destination lines recycle,
// and the two pages swap roles in a second record.
func TestCommandStreamRunEdges(t *testing.T) {
	const (
		plainHash = "5c149b9fc0821a688fbc4ec1aa0bd874ab52850427605f51686f8e3571911bee"
		plainCmds = 250
		devHash   = "edf72964f762241a314b4db585aed1b6a11f0a77e8f606bd010fc29af005791f"
		devCmds   = 308
	)

	plainDIMM, err := dram.NewPlainDIMM(dram.SmallGeometry())
	if err != nil {
		t.Fatal(err)
	}
	plain := dataRecorder{newCmdRecorder(plainDIMM)}
	h, ctl := streamHier(t, plain)
	runEdgeMix(t, h, ctl, func(inj *fault.Injector) {
		inj.Arm("dram.alert", fault.Periodic{Every: 7})
		plainDIMM.Faults = inj
	})
	if ctl.Stats().Alerts == ctl.Stats().CRCRetries {
		t.Fatal("plain mix asserted no dram.alert")
	}

	dev, err := NewDevice(PaperDeviceConfig(dram.SmallGeometry()))
	if err != nil {
		t.Fatal(err)
	}
	smart := dataRecorder{newCmdRecorder(dev)}
	h, ctl = streamHier(t, smart)
	runEdgeMix(t, h, ctl, func(inj *fault.Injector) {
		inj.Arm("core.alert", fault.Periodic{Every: 7})
		dev.Faults = inj
	})
	dev.Faults = nil
	r := &rig{dev: dev, hier: h, driver: NewDriver(h, 0, dram.SmallGeometry().CapacityBytes(), 1)}

	const payload = 8*dram.CachelineSize - TagSize
	sbuf, dbuf, err := registerTLS(t, r, payload)
	if err != nil {
		t.Fatal(err)
	}
	if sbuf/(2*PageSize) != dbuf/(2*PageSize) {
		t.Fatalf("pages %#x and %#x share no row", sbuf, dbuf)
	}
	var line [dram.CachelineSize]byte
	read := func(addr uint64) {
		t.Helper()
		if _, err := ctl.Read(addr, 0, line[:]); err != nil {
			t.Fatal(err)
		}
	}
	alerts := dev.Stats().Alerts
	for i := uint64(0); i < 8; i++ {
		read(sbuf + i*64)
		read(dbuf + i*64)
	}
	if dev.Stats().Alerts == alerts {
		t.Fatal("destination reads in the DSA pipeline asserted no ALERT_N")
	}
	// Write the destination back: every line self-recycles, the page
	// retires, and both pages read as plain DRAM.
	recycled := dev.Stats().PagesRecycled
	for i := uint64(0); i < 8; i++ {
		if _, err := ctl.Write(dbuf+i*64, -1, line[:]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ctl.DrainWrites(); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().PagesRecycled == recycled {
		t.Fatal("destination page did not retire")
	}
	read(dbuf)
	read(sbuf + 64)

	// The pages swap roles in a second record.
	ctx := tlsOffloadContext(t, aesgcm.Encrypt, []byte("fedcba9876543210"), []byte("lkjihgfedcba"), nil, payload)
	if _, err := r.driver.register(dbuf, sbuf, payload+TagSize, 1, ctx); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		read(dbuf + i*64)
	}
	for i := uint64(0); i < 8; i++ {
		read(sbuf + i*64)
	}

	for _, c := range []struct {
		name string
		rec  *cmdRecorder
		hash string
		n    int
	}{{"plain", plain.cmdRecorder, plainHash, plainCmds}, {"smartdimm", smart.cmdRecorder, devHash, devCmds}} {
		n := 0
		for _, k := range c.rec.kinds {
			n += k
		}
		if got := c.rec.hash(); got != c.hash || n != c.n {
			t.Errorf("%s: command stream of %d commands hashes %s, want %d commands hashing %s", c.name, n, got, c.n, c.hash)
		}
	}
}

// TestCommandStreamRetranslates pins the command stream and the data
// bytes of CAS commands to a page right after its registration changed,
// with no CAS to another page between: a page read as plain DRAM and
// then registered as a record's source (track), a destination page
// written as plain DRAM right after the writeback that retired it, and
// one written right after an abort op that tore its record down
// (untrack). A Translation Table memo that outlived either change would
// serve the page as it was registered before.
func TestCommandStreamRetranslates(t *testing.T) {
	const (
		devHash = "8f0133a371ef52292a1c189346eb08f0885f133bbc200c87be5e8898cb3b78c2"
		devCmds = 49
	)
	dev, err := NewDevice(PaperDeviceConfig(dram.SmallGeometry()))
	if err != nil {
		t.Fatal(err)
	}
	smart := dataRecorder{newCmdRecorder(dev)}
	h, ctl := streamHier(t, smart)
	r := &rig{dev: dev, hier: h, driver: NewDriver(h, 0, dram.SmallGeometry().CapacityBytes(), 1)}
	sbuf, _ := r.driver.AllocPages(1)
	dbuf, _ := r.driver.AllocPages(1)
	var line [dram.CachelineSize]byte
	read := func(addr uint64) {
		t.Helper()
		if _, err := ctl.Read(addr, 0, line[:]); err != nil {
			t.Fatal(err)
		}
	}
	write := func(addr uint64, data []byte) {
		t.Helper()
		if _, err := ctl.Write(addr, -1, data); err != nil {
			t.Fatal(err)
		}
		if _, err := ctl.DrainWrites(); err != nil {
			t.Fatal(err)
		}
	}

	// A plain read of the source page, then its registration: only
	// MMIO commands reach the device between them.
	const payload = 8*dram.CachelineSize - TagSize
	pt := corpus.Generate(corpus.Text, payload+TagSize, 21)
	for i := uint64(0); i < 8; i++ {
		write(sbuf+i*64, pt[i*64:(i+1)*64])
	}
	read(sbuf)
	ctx := tlsOffloadContext(t, aesgcm.Encrypt, []byte("0123456789abcdef"), []byte("abcdefghijkl"), nil, payload)
	if _, err := r.driver.register(sbuf, dbuf, payload+TagSize, 1, ctx); err != nil {
		t.Fatal(err)
	}
	fed := dev.Stats().DSALinesFed
	for i := uint64(0); i < 8; i++ {
		read(sbuf + i*64)
	}
	if n := dev.Stats().DSALinesFed - fed; n != 8 {
		t.Fatalf("%d source lines fed to the DSA after registration, want 8", n)
	}
	for i := uint64(0); i < 8; i++ {
		read(dbuf + i*64)
	}

	// Write the destination back: the last line retires the page, and
	// the next write to it is a plain one that the next read returns.
	for i := uint64(0); i < 8; i++ {
		write(dbuf+i*64, line[:])
	}
	if dev.Stats().PagesRecycled != 1 {
		t.Fatal("destination page did not retire")
	}
	plain := bytes.Repeat([]byte("plain!"), 11)[:dram.CachelineSize]
	write(dbuf, plain)
	read(dbuf)
	if !bytes.Equal(line[:], plain) {
		t.Fatal("a write to a retired destination page did not land")
	}

	// A second record on the same pages, aborted right after a read of
	// its destination page: a write to a line the DSA never reached
	// then lands, and the next read returns it.
	ctx = tlsOffloadContext(t, aesgcm.Encrypt, []byte("fedcba9876543210"), []byte("lkjihgfedcba"), nil, payload)
	if _, err := r.driver.register(sbuf, dbuf, payload+TagSize, 1, ctx); err != nil {
		t.Fatal(err)
	}
	read(sbuf)
	read(dbuf)
	r.driver.AbortBuffer(sbuf, 1)
	if dev.Stats().RecordAborts != 1 {
		t.Fatal("the abort op tore down no record")
	}
	write(dbuf+5*64, plain)
	read(dbuf + 5*64)
	if !bytes.Equal(line[:], plain) {
		t.Fatal("a write to an aborted destination page did not land")
	}

	n := 0
	for _, k := range smart.kinds {
		n += k
	}
	if got := smart.hash(); got != devHash || n != devCmds {
		t.Errorf("command stream of %d commands hashes %s, want %d commands hashing %s", n, got, devCmds, devHash)
	}
}
