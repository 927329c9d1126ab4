// Black-box determinism tests: the whole simulated stack (server,
// offload, SmartDIMM, memory controllers, fault injection) traced
// end-to-end must produce byte-identical Perfetto JSON from the same
// seed — including when runs fan out across the parallel runner, which
// is what the -race CI stage exercises.
package telemetry_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/chaos"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/nettcp"
	"repro/internal/offload"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wrkgen"
)

// runTracedServing runs one traced closed-loop HTTPS serving window on
// a SmartDIMM system with periodic DSA fault injection and returns the
// Perfetto trace bytes.
func runTracedServing(t *testing.T, seed int64) []byte {
	t.Helper()
	tr := telemetry.New()
	inj := fault.New(seed)
	inj.Arm("core.dsa", fault.Periodic{Every: 400})
	sys, err := sim.NewSystem(sim.SystemConfig{
		Params: sim.DefaultParams(), LLCBytes: 512 << 10, LLCWays: 8,
		WithSmartDIMM: true, Faults: inj, Tracer: tr, TraceCAS: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(sys.Engine, server.Config{
		Sys: sys, Backend: &offload.SmartDIMM{Sys: sys}, Mode: server.HTTPSMode,
		Workers: 4, MsgSize: 4096, Connections: 32, FileKind: corpus.Text, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := wrkgen.New(sys.Engine, srv, wrkgen.Config{
		Connections: 32, ThinkPs: int64(sys.Params.RTTUs * float64(sim.Us)),
	})
	gen.Start()
	sys.Engine.RunUntil(1 * sim.Ms)
	srv.BeginMeasurement()
	sys.Engine.RunUntil(3 * sim.Ms)
	sys.Trace.ExportTo(tr)
	return tr.PerfettoJSON()
}

func TestFullStackTraceReproducible(t *testing.T) {
	a := runTracedServing(t, 7)
	b := runTracedServing(t, 7)
	if len(a) == 0 || !bytes.Contains(a, []byte(`"traceEvents"`)) {
		t.Fatalf("trace missing or malformed (%d bytes)", len(a))
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed traces differ: %d vs %d bytes", len(a), len(b))
	}
	for _, want := range []string{"mem/rank0", "dev/rank0", "driver/rank0", "faults", "worker0", "nic", "requests", "offload", "cas", "CompCpy"} {
		if !bytes.Contains(a, []byte(want)) {
			t.Errorf("trace lacks %q", want)
		}
	}
}

// TestTracingUnderParallelRunner gives every sweep point its own Tracer
// and fans the points across the pool: per-system tracers must not
// race (this is the -race gate) and stay seed-deterministic.
func TestTracingUnderParallelRunner(t *testing.T) {
	seeds := []int64{3, 4, 3, 4}
	pool := runner.New(0)
	traces, err := runner.Map(context.Background(), pool, seeds,
		func(_ context.Context, seed int64, _ int) ([]byte, error) {
			return runTracedServing(t, seed), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(traces[0], traces[2]) || !bytes.Equal(traces[1], traces[3]) {
		t.Fatal("same-seed traces differ across parallel workers")
	}
	if bytes.Equal(traces[0], traces[1]) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestNetTCPTraceInstants checks the TCP layer's loss-recovery instants
// land on the trace deterministically.
func TestNetTCPTraceInstants(t *testing.T) {
	run := func() []byte {
		tr := telemetry.New()
		p := sim.DefaultParams()
		eng := sim.NewEngine()
		rttHalf := int64(p.RTTUs * float64(sim.Us) / 2)
		data := netsim.NewLink(eng, netsim.LinkConfig{
			Gbps: p.LinkGbps, PropPs: rttHalf, DropProb: 0.02, Seed: 9,
		})
		ack := netsim.NewLink(eng, netsim.LinkConfig{Gbps: p.LinkGbps, PropPs: rttHalf, Seed: 10})
		cfg := nettcp.DefaultConfig()
		cfg.MSS = p.MTUBytes - 40
		sender, _, err := nettcp.NewTransfer(eng, data, ack, cfg, nettcp.CPUTLSHook{P: p}, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		sender.Tracer = tr
		sender.TraceTrack = tr.Track("tcp")
		eng.RunUntil(2 * sim.S)
		if !sender.Done() {
			t.Fatal("transfer did not complete")
		}
		if sender.Retransmits == 0 {
			t.Fatal("lossy link produced no retransmits; instants untested")
		}
		return tr.PerfettoJSON()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("nettcp traces differ across same-seed runs")
	}
	if !bytes.Contains(a, []byte("retransmit")) {
		t.Error("trace lacks retransmit instants")
	}
}

// TestChaosRunWithTrace checks a traced chaos run records a
// reproducible Perfetto trace with its fault track.
func TestChaosRunWithTrace(t *testing.T) {
	run := func() []byte {
		tr := telemetry.New()
		rep, err := chaos.Run(21, 8, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Fatalf("chaos violations:\n%s", rep)
		}
		return tr.PerfettoJSON()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed chaos traces differ")
	}
	if !bytes.Contains(a, []byte(`"traceEvents"`)) || !bytes.Contains(a, []byte("faults")) {
		t.Fatal("chaos trace missing fault track")
	}
}
