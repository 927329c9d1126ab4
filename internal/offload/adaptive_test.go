package offload

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
)

func TestAdaptiveCompressionBothPathsDecodable(t *testing.T) {
	// The adaptive backend must produce valid wire pages from whichever
	// path it picks, so a run that switches mid-stream stays correct.
	sys := newSys(t, 128<<10, true)
	ad := &Adaptive{
		Sys:           sys,
		CPUBackend:    &CPU{Sys: sys, Functional: true},
		DIMM:          &SmartDIMM{Sys: sys},
		ProbeInterval: 3,
	}
	conn, err := ad.NewConn(Compression, 5, core.MaxCompressInput)
	if err != nil {
		t.Fatal(err)
	}
	payload := corpus.Generate(corpus.HTML, core.MaxCompressInput, 11)
	big, _ := sys.AllocPlain(512 << 10)
	for i := 0; i < 12; i++ {
		stage(t, sys, conn, payload)
		res, err := ad.Process(Compression, 0, conn, len(payload))
		if err != nil {
			t.Fatal(err)
		}
		records, err := ReadOutput(sys, 0, conn, res)
		if err != nil {
			t.Fatal(err)
		}
		page := make([]byte, core.PageSize)
		copy(page, records[0])
		orig, err := core.DecodeCompressedPage(page)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if !bytes.Equal(orig, payload) {
			t.Fatalf("iteration %d: round trip mismatch", i)
		}
		// Alternate contention so the policy flips.
		if i%2 == 0 {
			sys.Hier.Read(nil, 1, big, 256<<10)
		}
	}
	if ad.OffloadedN == 0 {
		t.Fatal("never offloaded")
	}
}

func TestBackendMetadata(t *testing.T) {
	sys := newSys(t, 128<<10, true)
	cases := []struct {
		b        Backend
		name     string
		inline   bool
		supports map[ULP]bool
	}{
		{&CPU{Sys: sys}, "CPU", false, map[ULP]bool{TLS: true, Compression: true}},
		{&SmartNIC{Sys: sys}, "SmartNIC", false, map[ULP]bool{TLS: true, Compression: false}},
		{&QAT{Sys: sys}, "QuickAssist", false, map[ULP]bool{TLS: true, Compression: true}},
		{&SmartDIMM{Sys: sys}, "SmartDIMM", true, map[ULP]bool{TLS: true, Compression: true}},
		{&Adaptive{Sys: sys, CPUBackend: &CPU{Sys: sys}, DIMM: &SmartDIMM{Sys: sys}},
			"SmartDIMM-adaptive", true, map[ULP]bool{TLS: true, Compression: true}},
	}
	for _, c := range cases {
		if c.b.Name() != c.name {
			t.Errorf("name %q != %q", c.b.Name(), c.name)
		}
		if c.b.InlineSource() != c.inline {
			t.Errorf("%s: inline = %v", c.name, c.b.InlineSource())
		}
		for u, want := range c.supports {
			if c.b.Supports(u) != want {
				t.Errorf("%s: supports(%v) = %v, want %v", c.name, u, c.b.Supports(u), want)
			}
		}
	}
}

func TestNonFunctionalModeCostsOnly(t *testing.T) {
	// Functional=false models costs without running the transform; the
	// cost structure must match the functional mode's.
	payload := corpus.Generate(corpus.Text, 4096, 1)
	run := func(functional bool) Result {
		sys := newSys(t, 1<<20, false)
		b := &CPU{Sys: sys, Functional: functional}
		conn, err := b.NewConn(TLS, 1, 4096)
		if err != nil {
			t.Fatal(err)
		}
		stage(t, sys, conn, payload)
		res, err := b.Process(TLS, 0, conn, 4096)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	f := run(true)
	nf := run(false)
	if f.TXBytes != nf.TXBytes || f.Records != nf.Records {
		t.Fatalf("framing differs: %+v vs %+v", f, nf)
	}
	ratio := float64(f.CPUPs) / float64(nf.CPUPs)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("cost model drift between modes: %.2f", ratio)
	}
	// estimateCompressed is only used in non-functional compression.
	sys := newSys(t, 1<<20, false)
	b := &CPU{Sys: sys, Functional: false}
	conn, _ := b.NewConn(Compression, 2, 4096)
	stage(t, sys, conn, payload)
	res, err := b.Process(Compression, 0, conn, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if res.TXBytes >= 4096 || res.TXBytes <= 0 {
		t.Fatalf("estimated compressed size %d implausible", res.TXBytes)
	}
}

func TestSoftCompressPageRawFallback(t *testing.T) {
	// Incompressible input exercises the raw branch of the software
	// page producer the functional CPU and QAT paths use.
	rnd := corpus.Generate(corpus.Random, 2048, 3)
	page := core.SoftCompressPage(rnd)
	if len(page) != 4+len(rnd) {
		t.Fatalf("raw fallback length %d", len(page))
	}
	if page[3]&0x80 == 0 {
		t.Fatal("raw flag not set")
	}
	full := make([]byte, core.PageSize)
	copy(full, page)
	out, err := core.DecodeCompressedPage(full)
	if err != nil || !bytes.Equal(out, rnd) {
		t.Fatalf("raw page decode: %v", err)
	}
}
