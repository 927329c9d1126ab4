package experiments

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sim"
)

// tiny returns an extra-small scale for unit tests.
func tiny() Scale {
	// Small but heavily contended: the per-connection working set is
	// ~12KB, so 64 connections (~780KB) thrash the 128KB LLC the way
	// 1024 connections thrash the testbed's 22MB one.
	return Scale{
		Connections: 64, Workers: 4,
		WarmupPs: 1 * sim.Ms, MeasurePs: 5 * sim.Ms,
		LLCBytes: 128 << 10, LLCWays: 8,
	}
}

func TestFig2Shape(t *testing.T) {
	pts := Fig2(nil, []float64{0, 0.5})
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	byKey := map[string]float64{}
	for _, p := range pts {
		byKey[p.Placement+dropKey(p.DropPct)] = p.Gbps
	}
	// Parity at zero drops; SmartNIC hit harder by drops.
	if r := byKey["SmartNIC0.0"] / byKey["CPU0.0"]; r < 0.8 || r > 1.3 {
		t.Fatalf("zero-drop ratio %.2f", r)
	}
	nicRet := byKey["SmartNIC0.5"] / byKey["SmartNIC0.0"]
	cpuRet := byKey["CPU0.5"] / byKey["CPU0.0"]
	if nicRet >= cpuRet {
		t.Fatalf("SmartNIC retained %.2f vs CPU %.2f under drops", nicRet, cpuRet)
	}
}

func dropKey(f float64) string {
	if f == 0 {
		return "0.0"
	}
	return "0.5"
}

func TestFig3RatioGrowsWithConnections(t *testing.T) {
	pts, err := Fig3(nil, tiny(), []int{8, 64}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].NormalizedRatio <= 0 || pts[1].NormalizedRatio <= 0 {
		t.Fatal("ratios not measured")
	}
	// More connections => more HTTPS memory amplification.
	if pts[1].NormalizedRatio <= pts[0].NormalizedRatio {
		t.Fatalf("ratio did not grow: %.2f -> %.2f", pts[0].NormalizedRatio, pts[1].NormalizedRatio)
	}
	// At high connection counts HTTPS must cost well over 1x.
	if pts[1].NormalizedRatio < 1.3 {
		t.Fatalf("HTTPS amplification %.2f too small", pts[1].NormalizedRatio)
	}
}

func TestFig9TraceProperties(t *testing.T) {
	res, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Reads() == 0 || res.Trace.Writes() == 0 {
		t.Fatal("trace empty")
	}
	if res.SelfRecycles == 0 {
		t.Fatal("no self-recycle writes in trace window")
	}
	// Buffers spaced 32MB apart: total spread must be large.
	if res.SpreadBytes < 32<<20 {
		t.Fatalf("address spread %d < 32MB", res.SpreadBytes)
	}
	// Monotonic address increase within CompCpy calls: mean run length
	// far above random (which would be ~2).
	for corenum, mean := range res.MeanRunLen {
		if mean < 8 {
			t.Fatalf("core %d mean monotonic run %.1f too short", corenum, mean)
		}
	}
	if len(res.MeanRunLen) < 4 {
		t.Fatalf("expected 4 cores in trace, got %d", len(res.MeanRunLen))
	}
}

func TestFig10EquilibriumScalesWithLLC(t *testing.T) {
	sc := tiny()
	series, err := Fig10(nil, []int{128 << 10, 1 << 20}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatal("series count")
	}
	for _, s := range series {
		if len(s.Points) == 0 {
			t.Fatal("no occupancy samples")
		}
	}
	// Larger LLC => higher scratchpad occupancy at equilibrium (fewer
	// writebacks recycling pages).
	if series[1].EquilibriumKB <= series[0].EquilibriumKB {
		t.Fatalf("equilibrium did not scale: %.0fKB (small LLC) vs %.0fKB (big LLC)",
			series[0].EquilibriumKB, series[1].EquilibriumKB)
	}
}

func TestFig11Shape(t *testing.T) {
	pts, err := RunPlacements(nil, tiny(), server.HTTPSMode, []int{4096}, corpus.Text)
	if err != nil {
		t.Fatal(err)
	}
	got := map[Placement]PerfPoint{}
	for _, p := range pts {
		got[p.Placement] = p
	}
	if len(got) != 4 {
		t.Fatalf("placements = %d, want 4", len(got))
	}
	d := got[PlaceSmartDIMM]
	// SmartDIMM beats CPU on RPS, uses less CPU and memory bandwidth.
	if d.RPSNorm <= 1.0 {
		t.Fatalf("SmartDIMM RPS norm = %.2f, want > 1", d.RPSNorm)
	}
	if d.CPUNorm >= 1.0 {
		t.Fatalf("SmartDIMM CPU norm = %.2f, want < 1", d.CPUNorm)
	}
	if d.MemNorm >= 1.0 {
		t.Fatalf("SmartDIMM mem norm = %.2f, want < 1", d.MemNorm)
	}
	// QAT must not beat CPU at 4KB (Observation 2).
	if q := got[PlaceQAT]; q.RPSNorm > 1.05 {
		t.Fatalf("QAT RPS norm = %.2f at 4KB, want <= ~1", q.RPSNorm)
	}
}

func TestFig12Shape(t *testing.T) {
	pts, err := RunPlacements(nil, tiny(), server.CompressedHTTP, []int{4096}, corpus.HTML)
	if err != nil {
		t.Fatal(err)
	}
	got := map[Placement]PerfPoint{}
	for _, p := range pts {
		got[p.Placement] = p
	}
	// SmartNIC cannot run compression: only 3 placements.
	if _, ok := got[PlaceSmartNIC]; ok {
		t.Fatal("SmartNIC must be absent from Fig. 12")
	}
	d := got[PlaceSmartDIMM]
	// Compression gains exceed TLS gains (the CPU deflate path is far
	// slower than AES-NI): expect multi-x RPS improvement.
	if d.RPSNorm < 1.5 {
		t.Fatalf("SmartDIMM compression RPS norm = %.2f, want >= 1.5", d.RPSNorm)
	}
	if d.CPUNorm >= 0.7 {
		t.Fatalf("SmartDIMM compression CPU norm = %.2f, want well below 1", d.CPUNorm)
	}
}

func TestTable1Isolation(t *testing.T) {
	rows, err := Table1(nil, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byPlace := map[Placement]Table1Row{}
	for _, r := range rows {
		byPlace[r.Placement] = r
	}
	for p, r := range byPlace {
		if r.NginxSlowdown < -0.10 || r.NginxSlowdown > 0.9 {
			t.Fatalf("%v nginx slowdown %.2f implausible", p, r.NginxSlowdown)
		}
	}
	// SmartDIMM interferes less than the CPU configuration.
	if byPlace[PlaceSmartDIMM].McfSlowdown >= byPlace[PlaceCPU].McfSlowdown {
		t.Fatalf("SmartDIMM mcf slowdown %.3f >= CPU %.3f",
			byPlace[PlaceSmartDIMM].McfSlowdown, byPlace[PlaceCPU].McfSlowdown)
	}
}

func TestFig13Scorecard(t *testing.T) {
	rows := Fig13()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	var dimm, cpu Fig13Row
	for _, r := range rows {
		switch r.Placement {
		case "SmartDIMM":
			dimm = r
		case "CPU":
			cpu = r
		}
	}
	if dimm.HighLLCContention <= cpu.HighLLCContention {
		t.Fatal("scorecard must favor SmartDIMM under contention")
	}
	if cpu.LowLLCContention < dimm.LowLLCContention {
		t.Fatal("CPU wins when uncontended")
	}
}

func TestPlacementString(t *testing.T) {
	want := map[Placement]string{PlaceCPU: "CPU", PlaceSmartNIC: "SmartNIC", PlaceQAT: "QuickAssist", PlaceSmartDIMM: "SmartDIMM"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d = %q", p, p.String())
		}
	}
}

func TestMaxAfterDownsample(t *testing.T) {
	var pts []obs.Point
	for i := int64(0); i < 10; i++ {
		pts = append(pts, obs.Point{AtPs: i * 100, V: float64(i)})
	}
	if got := maxAfter(pts, 500); got != 9 {
		t.Fatalf("max after 500 = %v, want 9", got)
	}
	if got := maxAfter(pts, 10_000); got != 0 {
		t.Fatalf("max after end = %v, want 0", got)
	}
	if ds := Downsample(pts, 3); len(ds) != 3 {
		t.Fatalf("downsample = %d points, want 3", len(ds))
	}
}

func TestDownsampleSmall(t *testing.T) {
	pts := []obs.Point{{AtPs: 1, V: 1}}
	if got := Downsample(pts, 10); len(got) != 1 {
		t.Fatalf("downsample of 1 point = %d, want 1", len(got))
	}
	if got := Downsample(pts, 0); len(got) != 1 {
		t.Fatalf("downsample(0) should return all points")
	}
}
