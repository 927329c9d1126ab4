package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/offload"
	"repro/internal/profile"
	"repro/internal/runner"
	"repro/internal/runner/runnertest"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wrkgen"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got byte-for-byte against testdata/<name>,
// rewriting the file first under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s diverged from golden\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// critScale keeps the traced four-placement sweep fast.
func critScale() Scale {
	return Scale{
		Connections: 32, Workers: 2,
		WarmupPs: sim.Ms / 2, MeasurePs: sim.Ms,
		LLCBytes: 128 << 10, LLCWays: 8,
	}
}

// The rendered critical-path table is pinned byte-for-byte: trace
// emission, request pairing, stage attribution, and formatting all sit
// under this one golden. Regenerate with
// `go test ./internal/experiments/ -run TestCritPathGolden -update`.
func TestCritPathGolden(t *testing.T) {
	rows, err := CritPathBreakdown(nil, critScale(), server.HTTPSMode, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteCritPathTable(&b, rows); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "critpath.golden", []byte(b.String()))

	// The headline claim must hold in the golden itself: SmartDIMM's
	// copy share is zero while CPU's is not.
	var cpu, dimm *CritPathRow
	for i := range rows {
		switch rows[i].Placement {
		case PlaceCPU:
			cpu = &rows[i]
		case PlaceSmartDIMM:
			dimm = &rows[i]
		}
	}
	if cpu == nil || dimm == nil {
		t.Fatal("missing placements")
	}
	if dimm.ShareOf("copy") != 0 {
		t.Fatalf("SmartDIMM copy share = %.2f%%, want 0", dimm.ShareOf("copy"))
	}
	if cpu.ShareOf("copy") <= 0 {
		t.Fatalf("CPU copy share = %.2f%%, want > 0", cpu.ShareOf("copy"))
	}
}

// tracedRun is the pinned single-run scenario behind the cross-scheduler
// gate: one SmartDIMM serving window, traced, exported as Perfetto JSON.
func tracedRun(t *testing.T) []byte {
	t.Helper()
	tr := telemetry.New()
	sys, err := sim.NewSystem(sim.SystemConfig{
		Params: sim.DefaultParams(), LLCBytes: 512 << 10, LLCWays: 8,
		WithSmartDIMM: true, Tracer: tr, TraceCAS: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(sys.Engine, server.Config{
		Sys: sys, Backend: &offload.SmartDIMM{Sys: sys}, Mode: server.HTTPSMode,
		Workers: 4, MsgSize: 4096, Connections: 32, FileKind: corpus.Text, Seed: 7,
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

// analyzeTrace runs a trace through the exact path cmd/tracestat takes:
// Perfetto JSON in, profile tree + critical-path table text out.
func analyzeTrace(t *testing.T, trace []byte) string {
	t.Helper()
	tracks, events, err := profile.ReadPerfetto(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := profile.FromEvents(tracks, events).WriteTree(&b); err != nil {
		t.Fatal(err)
	}
	cp := profile.Analyze(tracks, events, profile.Options{FromPs: 1 * sim.Ms})
	if err := cp.WriteTable(&b); err != nil {
		t.Fatal(err)
	}
	if err := cp.WriteWaterfall(&b, 3); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// The acceptance gate: the same-seed run must yield byte-identical
// profile text and critical-path tables whether two traced runs execute
// serially, side by side on runner pool workers, or under GOMAXPROCS=2.
func TestTracestatByteIdenticalAcrossSchedulers(t *testing.T) {
	runnertest.SameBytes(t, func(workers int) []byte {
		outs, err := runner.Map(context.Background(), runner.New(workers), []int{0, 1},
			func(context.Context, int, int) (string, error) {
				return analyzeTrace(t, tracedRun(t)), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(outs[0], "simulated-time profile") || !strings.Contains(outs[0], "critical path:") {
			t.Fatalf("analysis output malformed:\n%.400s", outs[0])
		}
		return []byte(strings.Join(outs, "\n==== next run ====\n"))
	})
}
