package offload

import (
	"bytes"
	"testing"

	"repro/internal/aesgcm"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/sim"
	"repro/internal/ulp"
)

func newSys(t testing.TB, llcBytes int, withDIMM bool) *sim.System {
	t.Helper()
	sys, err := sim.NewSystem(sim.SystemConfig{
		Params: sim.DefaultParams(), LLCBytes: llcBytes, LLCWays: 8,
		WithSmartDIMM: withDIMM,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// verifyTLS decodes the records a backend produced and checks they
// decrypt to payload under the connection's key schedule.
func verifyTLS(t *testing.T, sys *sim.System, conn *Conn, res Result, payload []byte, nicEncrypts bool) {
	t.Helper()
	records, err := ReadOutput(sys, 0, conn, res)
	if err != nil {
		t.Fatal(err)
	}
	g, err := aesgcm.NewGCM(conn.Key)
	if err != nil {
		t.Fatal(err)
	}
	// Re-derive the IVs used (sequence restarts at 0 per connection).
	seqConn := &Conn{ivBase: conn.ivBase}
	off := 0
	for i, rec := range records {
		iv := seqConn.NextIV()
		var hdr, body []byte
		if conn.onSmartDIMM {
			// SmartDIMM spans carry ciphertext||tag without the header.
			hdr = ulp.Header(len(rec))
			body = rec
		} else {
			hdr = rec[:ulp.RecordHeaderLen]
			body = rec[ulp.RecordHeaderLen:]
		}
		n := len(body) - aesgcm.TagSize
		want := payload[off : off+n]
		if nicEncrypts {
			// SmartNIC records carry plaintext on the host; the NIC
			// encrypts on the wire. Verify plaintext passthrough.
			if !bytes.Equal(body[:n], want) {
				t.Fatalf("record %d: plaintext mismatch", i)
			}
		} else {
			pt, err := g.Open(nil, iv, body, hdr)
			if err != nil {
				t.Fatalf("record %d: decrypt failed: %v", i, err)
			}
			if !bytes.Equal(pt, want) {
				t.Fatalf("record %d: payload mismatch", i)
			}
		}
		off += n
	}
	if off != len(payload) {
		t.Fatalf("records covered %d of %d payload bytes", off, len(payload))
	}
}

func stage(t *testing.T, sys *sim.System, conn *Conn, payload []byte) {
	t.Helper()
	if _, err := StagePayloadCPU(sys, 0, conn, payload); err != nil {
		t.Fatal(err)
	}
}

func TestCPUBackendTLS(t *testing.T) {
	for _, size := range []int{1000, 4096, 16384, 65536} {
		sys := newSys(t, 1<<20, false)
		b := &CPU{Sys: sys, Functional: true}
		conn, err := b.NewConn(TLS, 1, size)
		if err != nil {
			t.Fatal(err)
		}
		payload := corpus.Generate(corpus.HTML, size, int64(size))
		stage(t, sys, conn, payload)
		res, err := b.Process(TLS, 0, conn, size)
		if err != nil {
			t.Fatal(err)
		}
		wantRecords := (size + MaxTLSPayload - 1) / MaxTLSPayload
		if res.Records != wantRecords {
			t.Fatalf("size %d: %d records, want %d", size, res.Records, wantRecords)
		}
		if res.TXBytes != size+wantRecords*(ulp.RecordHeaderLen+aesgcm.TagSize) {
			t.Fatalf("size %d: TXBytes = %d", size, res.TXBytes)
		}
		if res.CPUPs <= 0 || res.DevicePs != 0 {
			t.Fatalf("size %d: costs %d/%d", size, res.CPUPs, res.DevicePs)
		}
		verifyTLS(t, sys, conn, res, payload, false)
	}
}

func TestSmartDIMMBackendTLS(t *testing.T) {
	for _, size := range []int{1000, 4096, 16384, 40000} {
		sys := newSys(t, 256<<10, true)
		b := &SmartDIMM{Sys: sys}
		conn, err := b.NewConn(TLS, 2, size)
		if err != nil {
			t.Fatal(err)
		}
		payload := corpus.Generate(corpus.Text, size, int64(size))
		stage(t, sys, conn, payload)
		res, err := b.Process(TLS, 0, conn, size)
		if err != nil {
			t.Fatal(err)
		}
		verifyTLS(t, sys, conn, res, payload, false)
		if sys.Dev.Stats().DSAErrors != 0 {
			t.Fatalf("size %d: DSA errors", size)
		}
	}
}

func TestSmartNICBackendCarriesPlaintext(t *testing.T) {
	sys := newSys(t, 1<<20, false)
	b := &SmartNIC{Sys: sys}
	conn, _ := b.NewConn(TLS, 3, 4096)
	payload := corpus.Generate(corpus.JSON, 4096, 1)
	stage(t, sys, conn, payload)
	res, err := b.Process(TLS, 0, conn, 4096)
	if err != nil {
		t.Fatal(err)
	}
	verifyTLS(t, sys, conn, res, payload, true)
	if !b.Supports(TLS) || b.Supports(Compression) {
		t.Fatal("SmartNIC support matrix wrong")
	}
	if _, err := b.Process(Compression, 0, conn, 4096); err == nil {
		t.Fatal("SmartNIC accepted compression")
	}
}

func TestQATBackendTLS(t *testing.T) {
	sys := newSys(t, 1<<20, false)
	b := &QAT{Sys: sys, Functional: true}
	conn, _ := b.NewConn(TLS, 4, 4096)
	payload := corpus.Generate(corpus.HTML, 4096, 2)
	stage(t, sys, conn, payload)
	res, err := b.Process(TLS, 0, conn, 4096)
	if err != nil {
		t.Fatal(err)
	}
	verifyTLS(t, sys, conn, res, payload, false)
	// Synchronous QAT: the spin-polled device round trip is charged as
	// CPU time (Observation 2), so CPUPs must include at least the PCIe
	// RTT and there is no overlapped device time.
	if res.DevicePs != 0 {
		t.Fatal("sync QAT should have no overlapped device time")
	}
	if res.CPUPs < int64(sys.Params.QATPCIeRTTUs*float64(sim.Us)) {
		t.Fatal("QAT spin-poll cost not charged")
	}
	// Observation 2: for small offloads the fixed costs dominate — the
	// QAT wall time for 4KB must exceed the CPU path's.
	cpuB := &CPU{Sys: newSys(t, 1<<20, false), Functional: false}
	cpuConn, _ := cpuB.NewConn(TLS, 5, 4096)
	stage(t, cpuB.Sys, cpuConn, payload)
	cpuRes, _ := cpuB.Process(TLS, 0, cpuConn, 4096)
	if res.WallPs() <= cpuRes.WallPs() {
		t.Fatalf("QAT 4KB (%dps) should be slower than CPU (%dps)", res.WallPs(), cpuRes.WallPs())
	}
}

func TestCompressionBackendsProduceDecodablePages(t *testing.T) {
	payload := corpus.Generate(corpus.HTML, 12000, 7)
	check := func(name string, sys *sim.System, b Backend) {
		conn, err := b.NewConn(Compression, 6, len(payload))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stage(t, sys, conn, payload)
		res, err := b.Process(Compression, 0, conn, len(payload))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.TXBytes >= len(payload) {
			t.Fatalf("%s: no compression achieved (%d >= %d)", name, res.TXBytes, len(payload))
		}
		records, err := ReadOutput(sys, 0, conn, res)
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		for _, rec := range records {
			page := make([]byte, core.PageSize)
			copy(page, rec)
			orig, err := core.DecodeCompressedPage(page)
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			got = append(got, orig...)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
	sysCPU := newSys(t, 1<<20, false)
	check("cpu", sysCPU, &CPU{Sys: sysCPU, Functional: true})
	sysD := newSys(t, 256<<10, true)
	check("smartdimm", sysD, &SmartDIMM{Sys: sysD})
	sysQ := newSys(t, 1<<20, false)
	check("qat", sysQ, &QAT{Sys: sysQ, Functional: true})
}

func TestSmartDIMMCheaperCPUThanCPUBackend(t *testing.T) {
	// The core claim: under contention, SmartDIMM's per-request CPU cost
	// (copy + registration) beats CPU crypto + thrashing.
	const size = 16384
	payload := corpus.Generate(corpus.Text, size, 1)

	sysC := newSys(t, 128<<10, false)
	cpu := &CPU{Sys: sysC, Functional: true}
	cc, _ := cpu.NewConn(TLS, 1, size)
	stage(t, sysC, cc, payload)
	cpuRes, err := cpu.Process(TLS, 0, cc, size)
	if err != nil {
		t.Fatal(err)
	}

	sysD := newSys(t, 128<<10, true)
	dimm := &SmartDIMM{Sys: sysD}
	dc, _ := dimm.NewConn(TLS, 1, size)
	stage(t, sysD, dc, payload)
	dimmRes, err := dimm.Process(TLS, 0, dc, size)
	if err != nil {
		t.Fatal(err)
	}
	if dimmRes.CPUPs >= cpuRes.CPUPs {
		t.Fatalf("SmartDIMM CPU %dps >= CPU backend %dps", dimmRes.CPUPs, cpuRes.CPUPs)
	}
}

func TestAdaptiveSwitchesOnContention(t *testing.T) {
	sys := newSys(t, 128<<10, true) // small LLC: high miss rate
	ad := &Adaptive{
		Sys: sys, CPUBackend: &CPU{Sys: sys, Functional: false},
		DIMM: &SmartDIMM{Sys: sys}, ProbeInterval: 4,
	}
	conn, err := ad.NewConn(TLS, 9, 4096)
	if err != nil {
		t.Fatal(err)
	}
	payload := corpus.Generate(corpus.Text, 4096, 1)
	// Generate contention: stream a large range through the tiny LLC.
	big, _ := sys.AllocPlain(1 << 20)
	sys.Hier.Write(1, big, make([]byte, 1<<20))
	sys.Hier.Read(nil, 1, big, 1<<20)

	for i := 0; i < 16; i++ {
		stage(t, sys, conn, payload)
		if _, err := ad.Process(TLS, 0, conn, len(payload)); err != nil {
			t.Fatal(err)
		}
		// Keep contention high between probes.
		sys.Hier.Read(nil, 1, big, 256<<10)
	}
	if ad.OffloadedN == 0 {
		t.Fatalf("adaptive never offloaded under contention (miss rate %.3f)", ad.LastMissRate)
	}
}

func TestAdaptiveStaysOnCPUWhenUncontended(t *testing.T) {
	sys := newSys(t, 8<<20, true) // huge LLC: near-zero miss rate
	ad := &Adaptive{
		Sys: sys, CPUBackend: &CPU{Sys: sys, Functional: false},
		DIMM: &SmartDIMM{Sys: sys}, ProbeInterval: 4,
	}
	conn, _ := ad.NewConn(TLS, 9, 4096)
	payload := corpus.Generate(corpus.Text, 4096, 1)
	// Warm the cache on the CPU path so the steady state has a low miss
	// rate, then clear the probe window before the adaptive loop.
	for i := 0; i < 4; i++ {
		stage(t, sys, conn, payload)
		if _, err := ad.CPUBackend.Process(TLS, 0, conn, len(payload)); err != nil {
			t.Fatal(err)
		}
	}
	sys.LLCMissRateSample()
	for i := 0; i < 24; i++ {
		stage(t, sys, conn, payload)
		if _, err := ad.Process(TLS, 0, conn, len(payload)); err != nil {
			t.Fatal(err)
		}
	}
	if ad.OnCPUN == 0 {
		t.Fatal("adaptive never used the CPU when uncontended")
	}
	if ad.OffloadedN > ad.OnCPUN {
		t.Fatalf("adaptive mostly offloaded without contention: %d vs %d", ad.OffloadedN, ad.OnCPUN)
	}
}

func TestLayoutChunks(t *testing.T) {
	l := LayoutFor(TLS)
	if got := l.Chunks(16368); len(got) != 1 || got[0] != 16368 {
		t.Fatalf("chunks(16368) = %v", got)
	}
	if got := l.Chunks(16384); len(got) != 2 || got[1] != 16 {
		t.Fatalf("chunks(16384) = %v", got)
	}
	if got := l.Chunks(0); got != nil {
		t.Fatalf("chunks(0) = %v", got)
	}
	lc := LayoutFor(Compression)
	if lc.MaxChunk != core.MaxCompressInput {
		t.Fatal("compression chunk size")
	}
	if l.BufBytes(65536) < 4*l.DstStride {
		t.Fatalf("BufBytes(64K) = %d too small", l.BufBytes(65536))
	}
}

func TestULPString(t *testing.T) {
	if TLS.String() != "tls" || Compression.String() != "compression" {
		t.Fatal("ULP names")
	}
}

// TestCPURequestKeepsBuffers checks that a request whose records the
// host CPU builds in software allocates nothing: a non-functional CPU
// request of either ULP, a SmartNIC record (header, plaintext and tag
// placeholder) and a non-functional QuickAssist request. Each walks its
// records without building a chunk list, reads into buffers the backend
// keeps, writes modelled outputs from kept zeros, and returns its spans
// in a kept slice.
func TestCPURequestKeepsBuffers(t *testing.T) {
	sys := newSys(t, 1<<20, false)
	cpu, qat := &CPU{Sys: sys}, &QAT{Sys: sys}
	const msg = 20000 // two TLS records, five compression records
	cases := []struct {
		b Backend
		u ULP
	}{{cpu, Compression}, {cpu, TLS}, {&SmartNIC{Sys: sys}, TLS}, {qat, TLS}, {qat, Compression}}
	for _, c := range cases {
		conn, err := c.b.NewConn(c.u, 0, msg)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := c.b.Process(c.u, 0, conn, msg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s %v: %v allocs per request, want 0", c.b.Name(), c.u, allocs)
		}
	}
}
