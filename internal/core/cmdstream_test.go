package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

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
