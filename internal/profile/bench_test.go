package profile

import (
	"bytes"
	"testing"

	"repro/internal/corpus"
	"repro/internal/sim"
)

// tinyScenario keeps bench tests fast: short windows, few connections.
func tinyScenario(name string) BenchScenario {
	return BenchScenario{Name: name, Placement: "smartdimm", Devices: 1, ULP: "tls", FileKind: corpus.Text,
		Msg: 1024, Conns: 16, Workers: 4, Seed: 1,
		WarmupPs: sim.Ms / 2, MeasurePs: sim.Ms}
}

// Same scenario, same KPIs, to the last bit — the property the whole
// regression gate stands on.
func TestBenchDeterministic(t *testing.T) {
	a, err := RunBenchScenario(tinyScenario("x"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBenchScenario(tinyScenario("x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.KPIs) == 0 || a.KPIs["requests"] == 0 {
		t.Fatalf("no work measured: %+v", a.KPIs)
	}
	for k, av := range a.KPIs {
		if bv := b.KPIs[k]; bv != av {
			t.Fatalf("KPI %s: %v then %v — nondeterministic", k, av, bv)
		}
	}
	rep := &BenchReport{Scenarios: []BenchResult{a}}
	j1, err := MarshalBench(rep)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := MarshalBench(rep)
	if !bytes.Equal(j1, j2) {
		t.Fatal("bench JSON not byte-stable")
	}
	back, err := UnmarshalBench(j1)
	if err != nil {
		t.Fatal(err)
	}
	if back.Scenarios[0].KPIs["rps"] != a.KPIs["rps"] {
		t.Fatal("JSON round trip lost a KPI")
	}
}

// A deliberately slowed hot path — the host CPU clocked down, so every
// per-byte compute cost inflates — must trip the gate against a
// baseline taken at full speed.
func TestBenchGateTripsOnSlowedHotPath(t *testing.T) {
	fast, err := RunBenchScenario(tinyScenario("gate"))
	if err != nil {
		t.Fatal(err)
	}
	slowParams := sim.DefaultParams()
	slowParams.CPUClockGHz /= 2 // everything CPU-bound halves in speed
	slow := tinyScenario("gate")
	slow.Params = &slowParams
	slowed, err := RunBenchScenario(slow)
	if err != nil {
		t.Fatal(err)
	}
	base := &BenchReport{Scenarios: []BenchResult{fast}}
	got := &BenchReport{Scenarios: []BenchResult{slowed}}
	drifts := CompareBench(base, got, 0.05)
	if len(drifts) == 0 {
		t.Fatalf("halved CPU clock produced no KPI drift\nfast: %+v\nslow: %+v", fast.KPIs, slowed.KPIs)
	}
	// An identical rerun must pass the same gate.
	again, err := RunBenchScenario(tinyScenario("gate"))
	if err != nil {
		t.Fatal(err)
	}
	if d := CompareBench(base, &BenchReport{Scenarios: []BenchResult{again}}, 0.05); len(d) != 0 {
		t.Fatalf("identical rerun tripped the gate: %v", d)
	}
}

// A calibration override reaches every driver: the trace-replay
// workload path honours Params like the closed loop does. The KV path's
// host work is priced in nanoseconds, not cycles (a halved clock moves
// only cycles_per_byte there), so the slowed hot path here is the
// per-request parse.
func TestBenchWorkloadHonoursParams(t *testing.T) {
	kv := BenchScenario{Name: "kv", Placement: "rr", Devices: 2, Workload: "kv", RPS: 4e5,
		Conns: 16, Workers: 4, Seed: 1, WarmupPs: sim.Ms / 2, MeasurePs: sim.Ms}
	fast, err := RunBenchScenario(kv)
	if err != nil {
		t.Fatal(err)
	}
	slowParams := sim.DefaultParams()
	slowParams.HTTPParseNs *= 10
	kv.Params = &slowParams
	slow, err := RunBenchScenario(kv)
	if err != nil {
		t.Fatal(err)
	}
	if slow.KPIs["p99_lat_ps"] <= fast.KPIs["p99_lat_ps"] {
		t.Fatalf("10x parse cost left kv p99 at %v (full speed %v)", slow.KPIs["p99_lat_ps"], fast.KPIs["p99_lat_ps"])
	}
}

// Missing scenarios and missing KPIs are drifts; extra ones are not.
func TestCompareBenchMissingEntries(t *testing.T) {
	base := &BenchReport{Scenarios: []BenchResult{
		{Name: "a", KPIs: map[string]float64{"rps": 100, "p99_lat_ps": 5}},
		{Name: "b", KPIs: map[string]float64{"rps": 10}},
	}}
	got := &BenchReport{Scenarios: []BenchResult{
		{Name: "a", KPIs: map[string]float64{"rps": 101, "extra": 1}}, // p99 gone, rps within 5%
	}}
	drifts := CompareBench(base, got, 0.05)
	if len(drifts) != 2 {
		t.Fatalf("drifts = %v", drifts)
	}
	seen := map[string]bool{}
	for _, d := range drifts {
		seen[d.Scenario+"/"+d.KPI] = true
		if d.String() == "" {
			t.Fatal("empty drift description")
		}
	}
	if !seen["a/p99_lat_ps"] || !seen["b/(scenario)"] {
		t.Fatalf("wrong drifts: %v", drifts)
	}
}
