package server

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/offload"
	"repro/internal/sim"
	"repro/internal/wrkgen"
)

// runClosedLoop drives the server on its system's engine with a
// wrk-style closed-loop client for the warmup and measurement windows.
func runClosedLoop(cfg Config, warmupPs, measurePs int64) (Metrics, error) {
	eng := cfg.Sys.Engine
	srv, err := New(eng, cfg)
	if err != nil {
		return Metrics{}, err
	}
	gen := wrkgen.New(eng, srv, wrkgen.Config{
		Connections: cfg.Connections,
		ThinkPs:     int64(cfg.Sys.Params.RTTUs * float64(sim.Us)),
	})
	gen.Start()
	eng.RunUntil(warmupPs)
	srv.BeginMeasurement()
	eng.RunUntil(warmupPs + measurePs)
	return srv.Collect(), srv.LastError()
}

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

const (
	warm    = 2 * sim.Ms
	measure = 10 * sim.Ms
)

func TestPlainHTTPServes(t *testing.T) {
	sys := newSys(t, 1<<20, false)
	m, err := runClosedLoop(Config{
		Sys: sys, Mode: PlainHTTP, Workers: 4, MsgSize: 4096,
		Connections: 32, FileKind: corpus.HTML, Seed: 1,
	}, warm, measure)
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if m.RPS <= 0 || m.CPUUtil <= 0 || m.CPUUtil > 1.01 {
		t.Fatalf("metrics implausible: %+v", m)
	}
	if m.TXBytes != m.Requests*4096 {
		t.Fatalf("TX accounting: %d for %d requests", m.TXBytes, m.Requests)
	}
}

func TestHTTPSOnCPUServes(t *testing.T) {
	sys := newSys(t, 512<<10, false)
	m, err := runClosedLoop(Config{
		Sys: sys, Backend: &offload.CPU{Sys: sys, Functional: true},
		Mode: HTTPSMode, Workers: 4, MsgSize: 4096,
		Connections: 32, FileKind: corpus.HTML, Seed: 1,
	}, warm, measure)
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests == 0 {
		t.Fatal("no HTTPS requests completed")
	}
	// TLS framing: 4096 payload + header + tag per record.
	per := uint64(4096 + 5 + 16)
	if m.TXBytes != m.Requests*per {
		t.Fatalf("TX bytes %d, want %d per request", m.TXBytes/m.Requests, per)
	}
}

func TestHTTPSMemBWExceedsHTTP(t *testing.T) {
	// The Fig. 3 mechanism: at high connection counts HTTPS moves far
	// more DRAM bytes per request than HTTP.
	run := func(mode Mode) Metrics {
		sys := newSys(t, 256<<10, false)
		cfg := Config{
			Sys: sys, Mode: mode, Workers: 4, MsgSize: 4096,
			Connections: 64, FileKind: corpus.HTML, Seed: 1,
		}
		if mode != PlainHTTP {
			cfg.Backend = &offload.CPU{Sys: sys, Functional: false}
		}
		m, err := runClosedLoop(cfg, warm, measure)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	http := run(PlainHTTP)
	https := run(HTTPSMode)
	perReqHTTP := float64(http.MemBytes) / float64(http.Requests)
	perReqHTTPS := float64(https.MemBytes) / float64(https.Requests)
	if perReqHTTPS <= perReqHTTP*1.5 {
		t.Fatalf("HTTPS/HTTP per-request DRAM = %.0f/%.0f = %.2fx, want > 1.5x",
			perReqHTTPS, perReqHTTP, perReqHTTPS/perReqHTTP)
	}
}

func TestSmartDIMMBeatsCPUUnderContention(t *testing.T) {
	// The Fig. 11 headline at message granularity: with a contended LLC,
	// SmartDIMM yields more RPS and less memory bandwidth than the CPU
	// configuration.
	runWith := func(withDIMM bool) Metrics {
		sys := newSys(t, 256<<10, withDIMM)
		var b offload.Backend
		if withDIMM {
			b = &offload.SmartDIMM{Sys: sys}
		} else {
			b = &offload.CPU{Sys: sys, Functional: false}
		}
		m, err := runClosedLoop(Config{
			Sys: sys, Backend: b, Mode: HTTPSMode, Workers: 4,
			MsgSize: 4096, Connections: 64, FileKind: corpus.Text, Seed: 1,
		}, warm, measure)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cpu := runWith(false)
	dimm := runWith(true)
	if dimm.RPS <= cpu.RPS {
		t.Fatalf("SmartDIMM RPS %.0f <= CPU %.0f", dimm.RPS, cpu.RPS)
	}
	perReqCPU := float64(cpu.MemBytes) / float64(cpu.Requests)
	perReqDIMM := float64(dimm.MemBytes) / float64(dimm.Requests)
	if perReqDIMM >= perReqCPU {
		t.Fatalf("SmartDIMM per-request DRAM %.0f >= CPU %.0f", perReqDIMM, perReqCPU)
	}
}

func TestCompressionMode(t *testing.T) {
	sys := newSys(t, 512<<10, false)
	m, err := runClosedLoop(Config{
		Sys: sys, Backend: &offload.CPU{Sys: sys, Functional: true},
		Mode: CompressedHTTP, Workers: 4, MsgSize: 4096,
		Connections: 16, FileKind: corpus.HTML, Seed: 1,
	}, warm, measure)
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests == 0 {
		t.Fatal("no compressed requests")
	}
	// Compressible HTML: wire bytes well under body bytes.
	if m.TXBytes >= m.Requests*4096 {
		t.Fatalf("no wire savings: %d TX for %d requests", m.TXBytes, m.Requests)
	}
}

func TestSmartNICRejectsCompression(t *testing.T) {
	sys := newSys(t, 512<<10, false)
	_, err := runClosedLoop(Config{
		Sys: sys, Backend: &offload.SmartNIC{Sys: sys},
		Mode: CompressedHTTP, Workers: 2, MsgSize: 4096,
		Connections: 4, FileKind: corpus.HTML, Seed: 1,
	}, warm, measure)
	if err == nil {
		t.Fatal("SmartNIC compression config accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	sys := newSys(t, 512<<10, false)
	eng := sim.NewEngine()
	if _, err := New(eng, Config{Sys: sys, Mode: PlainHTTP, MsgSize: 4096}); err == nil {
		t.Fatal("zero connections accepted")
	}
	if _, err := New(eng, Config{Sys: sys, Mode: PlainHTTP, Connections: 4}); err == nil {
		t.Fatal("zero message size accepted")
	}
	if _, err := New(eng, Config{Sys: sys, Mode: HTTPSMode, Connections: 4, MsgSize: 4096}); err == nil {
		t.Fatal("HTTPS without backend accepted")
	}
}

func TestModeString(t *testing.T) {
	if PlainHTTP.String() != "http" || HTTPSMode.String() != "https" || CompressedHTTP.String() != "http+deflate" {
		t.Fatal("mode names")
	}
}

func TestMoreWorkersMoreThroughput(t *testing.T) {
	run := func(workers int) Metrics {
		sys := newSys(t, 512<<10, false)
		m, err := runClosedLoop(Config{
			Sys: sys, Backend: &offload.CPU{Sys: sys, Functional: false},
			Mode: HTTPSMode, Workers: workers, MsgSize: 16384,
			Connections: 64, FileKind: corpus.Text, Seed: 1,
		}, warm, measure)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	one := run(1)
	eight := run(8)
	if eight.RPS <= one.RPS*2 {
		t.Fatalf("8 workers (%.0f RPS) not scaling over 1 (%.0f RPS)", eight.RPS, one.RPS)
	}
}

func TestAdaptiveBackendInServer(t *testing.T) {
	// The adaptive backend must drive the full server model end to end.
	sys := newSys(t, 256<<10, true)
	ad := &offload.Adaptive{
		Sys:        sys,
		CPUBackend: &offload.CPU{Sys: sys, Functional: false},
		DIMM:       &offload.SmartDIMM{Sys: sys},
	}
	m, err := runClosedLoop(Config{
		Sys: sys, Backend: ad, Mode: HTTPSMode, Workers: 4,
		MsgSize: 4096, Connections: 64, FileKind: corpus.Text, Seed: 3,
	}, 2*sim.Ms, 8*sim.Ms)
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests == 0 {
		t.Fatal("no requests served through adaptive backend")
	}
	// Under this contention the policy should be offloading heavily.
	if ad.OffloadedN == 0 {
		t.Fatal("adaptive never offloaded in a contended server run")
	}
}
