package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"

	"repro/internal/profile"
	"repro/internal/server"
	"repro/internal/sim"
)

// TestBuilderMatchesPinnedRunners keeps the bench's builder from drifting
// away from the pinned KPI runners: built at a pinned scenario's sizes, a
// workload must reproduce that scenario's KPIs exactly.
func TestBuilderMatchesPinnedRunners(t *testing.T) {
	pinned := map[string]profile.BenchScenario{}
	for _, sc := range profile.DefaultBenchScenarios() {
		pinned[sc.Name] = sc
	}
	sharded := pinned["fleet-8rank-big"]
	sharded.WarmupPs, sharded.MeasurePs = sim.Ms/2, sim.Ms/2
	for _, tc := range []struct {
		workload string
		sc       profile.BenchScenario
	}{
		{"tls4k-fleet4", pinned["fleet-4rank"]},
		{"kv-zipf-open", pinned["kv-4rank"]},
		{"tls4k-sharded8", sharded},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			want, err := profile.RunBenchScenario(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			w, _ := lookup(tc.workload)
			w.warmupPs, w.measurePs = tc.sc.WarmupPs, tc.sc.MeasurePs
			in, err := build(w, tc.sc.Seed, hooks{}, tc.sc.ExecWorkers)
			if err != nil {
				t.Fatal(err)
			}
			in.run(nil)
			got := pinnedKPIs(in)
			for k, v := range want.KPIs {
				if got[k] != v {
					t.Errorf("%s: bench builder gives %v, %s gives %v", k, got[k], tc.sc.Name, v)
				}
			}
		})
	}
}

// pinnedKPIs computes profile.RunBenchScenario's KPIs off a finished run.
func pinnedKPIs(in *instance) map[string]float64 {
	var agg server.Metrics
	agg.Latency.SetBounded()
	var latWeight int64
	for _, s := range in.servers {
		m := s.Collect()
		agg.Requests += m.Requests
		agg.CPUBusyPs += m.CPUBusyPs
		agg.MemBytes += m.MemBytes
		agg.TXBytes += m.TXBytes
		agg.ElapsedPs = m.ElapsedPs
		latWeight += m.MeanLatPs * int64(m.Requests)
		agg.Latency.Merge(&m.Latency)
	}
	secs := float64(agg.ElapsedPs) * 1e-12
	kpis := map[string]float64{
		"requests":        float64(agg.Requests),
		"rps":             float64(agg.Requests) / secs,
		"mean_lat_ps":     float64(latWeight / int64(agg.Requests)),
		"p99_lat_ps":      agg.Latency.Percentile(99),
		"cycles_per_byte": float64(agg.CPUBusyPs) * in.params.CPUClockGHz / 1000 / float64(agg.TXBytes),
		"mem_bw_gbps":     float64(agg.MemBytes) / secs / 1e9,
	}
	if in.open != nil {
		kpis["p99_lat_ps"] = in.open.Latency.Percentile(99)
		kpis["issued"] = float64(in.open.Issued)
	}
	return kpis
}

// TestSmoke runs every workload at a 0.2 ms window, untraced and traced,
// and checks the output against BENCHMARK.json: the end-to-end run emits
// exactly its end_to_end metrics and the traced run exactly its per_layer
// metrics, with the declared units, and no request fails.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Unit string }
	var decl struct {
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the bench runs %d", len(decl.Workloads), len(workloads))
	}
	for _, d := range decl.Workloads {
		if _, ok := lookup(d.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the bench", d.Name)
		}
	}
	check := func(t *testing.T, res result, want []declared) {
		t.Helper()
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
		}
		for _, d := range want {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("metric %s = %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
			}
		}
	}
	for _, w := range workloads {
		w.warmupPs, w.measurePs = sim.Ms/5, sim.Ms/5
		t.Run(w.name, func(t *testing.T) {
			out := &printer{w: io.Discard}
			res, err := runEndToEnd(w, 1, 1e-3, out)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, decl.EndToEnd)
			res, err = runTraced(w, 1, 1e-3, t.TempDir(), out)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, decl.PerLayer)
		})
	}
}
