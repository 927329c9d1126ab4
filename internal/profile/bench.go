// The KPI regression harness behind `./ci.sh bench`. It runs a small
// set of pinned, fully deterministic serving scenarios — same seed,
// same calibration, chaos off — extracts the KPIs the paper's
// evaluation argues about (throughput, tail latency, host cycles per
// transmitted byte, memory bandwidth), and compares them against the
// committed baseline in BENCH_baseline.json. Because the simulator is
// deterministic, an unchanged tree reproduces the baseline to the last
// bit; the tolerance exists so intentional calibration tweaks within a
// band don't trip the gate, while a real regression (a slowed hot path,
// a scheduling bug, an accounting error) does.
package profile

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/corpus"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// BenchScenario pins one deterministic serving run; it is the one
// scenario description every driver consumes.
type BenchScenario = scenario.Spec

// Clock reads a wall-time instant in nanoseconds. The bench harness
// takes it as an injected dependency (internal/ is wall-clock-free by
// the determinism gate in ci.sh); cmd/tracestat passes time.Now.
type Clock func() int64

// BenchResult carries one scenario's extracted KPIs. The map marshals
// with sorted keys, so the JSON report is byte-deterministic.
type BenchResult struct {
	Name string             `json:"name"`
	KPIs map[string]float64 `json:"kpis"`
}

// BenchReport is the whole harness output (BENCH_results.json /
// BENCH_baseline.json).
type BenchReport struct {
	Scenarios []BenchResult `json:"scenarios"`
}

// DefaultBenchScenarios are the pinned regression scenarios: the
// single-device SmartDIMM placement, the 4-rank sharded fleet, and the
// all-CPU baseline the paper compares against. Windows are short — the
// gate needs stable KPIs, not converged steady state, and determinism
// makes short windows exactly reproducible.
func DefaultBenchScenarios() []BenchScenario {
	return []BenchScenario{
		{Name: "smartdimm-1dev", Placement: "smartdimm", Devices: 1, ULP: "tls", FileKind: corpus.Text,
			Msg: 4096, Conns: 64, Workers: 10, Seed: 1, WarmupPs: sim.Ms, MeasurePs: 4 * sim.Ms},
		{Name: "fleet-4rank", Placement: "rr", Devices: 4, ULP: "tls", FileKind: corpus.Text,
			Msg: 4096, Conns: 128, Workers: 10, Seed: 1, WarmupPs: sim.Ms, MeasurePs: 4 * sim.Ms},
		{Name: "cpu-baseline", Placement: "cpu", Devices: 1, ULP: "tls", FileKind: corpus.Text,
			Msg: 4096, Conns: 64, Workers: 10, Seed: 1, WarmupPs: sim.Ms, MeasurePs: 4 * sim.Ms},
		// The sharded PDES scenario: ~100k requests over an 8-shard rack
		// slice, sized so single-run parallelism shows up in the wall
		// columns (sim KPIs stay byte-identical at any ExecWorkers).
		{Name: "fleet-8rank-big", Placement: "rr", Shards: 8, Devices: 1, ULP: "tls", FileKind: corpus.Text,
			Msg: 4096, Conns: 512, Workers: 10, Seed: 1, WarmupPs: sim.Ms, MeasurePs: 20 * sim.Ms},
		// The replicated cluster tier, healthy (chaos off): pins the
		// replication path's client-visible KPIs — quorum-ack write and
		// leased-read goodput, mean ack latency, and the redirect/timeout
		// counters that caught the router cursor ping-pong regression.
		{Name: "cluster-3node", Placement: "cluster", Nodes: 3, ULP: "tls", FileKind: corpus.Text,
			Msg: 1024, Conns: 6, Workers: 2, Seed: 1, WarmupPs: 2 * sim.Ms, MeasurePs: 8 * sim.Ms},
		// The zero-copy peer-DMA data path: fleet-4rank's twin with the
		// NIC depositing records straight into the registered rank
		// buffers. Pins the RDMA ingress KPIs (goodput with the bounce
		// stage gone, doorbell coalescing) against the host-mediated
		// twin above.
		{Name: "rdma-4rank", Placement: "rr", Devices: 4, ULP: "tls", DataPath: "peer", FileKind: corpus.Text,
			Msg: 4096, Conns: 128, Workers: 10, Seed: 1, WarmupPs: sim.Ms, MeasurePs: 4 * sim.Ms},
		// The production workload suite (internal/workload), open-loop
		// at a fixed offered rate, autoscaler off: the KV-cache GET/SET
		// mix and the embedding-gather mix over a 4-rank fleet. These pin
		// the trace-replay path itself — arrival shaping, the workload
		// sources, and the gather stage — not just the serving stack.
		{Name: "kv-4rank", Placement: "rr", Devices: 4, Workload: "kv", RPS: 1.8e6,
			Conns: 64, Workers: 16, Seed: 1, WarmupPs: sim.Ms, MeasurePs: 4 * sim.Ms},
		{Name: "embed-4rank", Placement: "rr", Devices: 4, Workload: "embed", RPS: 5e5,
			Conns: 64, Workers: 16, Seed: 1, WarmupPs: sim.Ms, MeasurePs: 4 * sim.Ms},
	}
}

// RunBenchScenario builds a fresh run of the scenario, drives its
// measurement, and returns its KPIs.
func RunBenchScenario(sc BenchScenario) (BenchResult, error) {
	return RunBenchScenarioClocked(sc, nil)
}

// RunBenchScenarioClocked is RunBenchScenario with an optional wall
// clock. A non-nil clock adds the volatile wall KPIs — "wall_seconds"
// and "sim_req_per_wall_s" (simulated requests retired per wall-clock
// second, the single-run parallelism figure of merit). Wall KPIs never
// belong in BENCH_baseline.json; StripVolatile removes them.
func RunBenchScenarioClocked(sc BenchScenario, clock Clock) (BenchResult, error) {
	res := BenchResult{Name: sc.Name}
	var start int64
	if clock != nil {
		start = clock()
	}
	st, err := scenario.Build(sc)
	var r scenario.Result
	if err == nil {
		r, err = st.Run()
	}
	if err != nil {
		return res, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	res.KPIs = benchKPIs(r, sc.SimParams())
	if clock != nil {
		retired := res.KPIs["requests"] // simulated work units for the wall-rate KPI
		if r.Cluster != nil {
			retired = res.KPIs["ops"]
		}
		wall := float64(clock()-start) * 1e-9
		res.KPIs["wall_seconds"] = wall
		if wall > 0 {
			res.KPIs["sim_req_per_wall_s"] = retired / wall
		}
	}
	return res, nil
}

// benchKPIs extracts a run's KPIs by kind: the client-visible
// replication KPIs of a cluster run, otherwise the serving KPIs of the
// (aggregated) server metrics, with a workload run's tail and issued
// count taken from the open-loop replayer's end-to-end record.
func benchKPIs(r scenario.Result, params sim.Params) map[string]float64 {
	if c := r.Cluster; c != nil {
		return map[string]float64{
			"ops":          float64(c.Ops),
			"ops_per_sec":  c.OpsPerSec,
			"acked_writes": float64(c.AckedWrites),
			"acked_reads":  float64(c.AckedReads),
			"mean_lat_ps":  float64(c.MeanLatPs),
			"redirects":    float64(c.Redirects),
			"timeouts":     float64(c.Timeouts),
			"promotions":   float64(c.Promotions),
		}
	}
	m := r.Metrics
	cyclesPerByte := 0.0
	if m.TXBytes > 0 {
		// ps → cycles: cycles = ps * GHz / 1000.
		cyclesPerByte = float64(m.CPUBusyPs) * params.CPUClockGHz / 1000 / float64(m.TXBytes)
	}
	kpis := map[string]float64{
		"requests":        float64(m.Requests),
		"rps":             m.RPS,
		"mean_lat_ps":     float64(m.MeanLatPs),
		"p99_lat_ps":      m.Latency.Percentile(99),
		"cycles_per_byte": cyclesPerByte,
		"mem_bw_gbps":     m.MemBWGBps,
	}
	if w := r.Workload; w != nil {
		kpis["p99_lat_ps"] = w.P99Ps
		kpis["issued"] = float64(w.Issued)
	}
	return kpis
}

// RunBenchClocked runs every scenario in order with an optional wall
// clock (see RunBenchScenarioClocked).
func RunBenchClocked(scenarios []BenchScenario, clock Clock) (*BenchReport, error) {
	rep := &BenchReport{}
	for _, sc := range scenarios {
		r, err := RunBenchScenarioClocked(sc, clock)
		if err != nil {
			return nil, err
		}
		rep.Scenarios = append(rep.Scenarios, r)
	}
	return rep, nil
}

// StripVolatile removes the wall-clock KPIs ("wall_*",
// "sim_req_per_wall_s") from a report in place and returns it. Baseline
// pinning must call this: wall KPIs vary run to run and host to host,
// and the comparison gate treats a baseline key missing from a fresh
// run as a drift.
func StripVolatile(rep *BenchReport) *BenchReport {
	for _, r := range rep.Scenarios {
		for k := range r.KPIs {
			if k == "sim_req_per_wall_s" || len(k) >= 5 && k[:5] == "wall_" {
				delete(r.KPIs, k)
			}
		}
	}
	return rep
}

// MarshalBench renders a report as stable, committed-diff-friendly
// JSON: scenarios in run order, KPI keys sorted (map marshaling sorts),
// trailing newline.
func MarshalBench(rep *BenchReport) ([]byte, error) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// UnmarshalBench parses a committed report.
func UnmarshalBench(data []byte) (*BenchReport, error) {
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Drift is one KPI that moved beyond tolerance (or vanished).
type Drift struct {
	Scenario string
	KPI      string
	Base     float64
	Got      float64
	Rel      float64 // |got-base| / max(|base|, epsilon); +Inf when missing
}

func (d Drift) String() string {
	return fmt.Sprintf("%s/%s: baseline %g, got %g (drift %.2f%%)",
		d.Scenario, d.KPI, d.Base, d.Got, d.Rel*100)
}

// CompareBench checks a fresh report against the baseline: every
// baseline scenario and KPI must be present and within rel tolerance.
// New scenarios/KPIs in got (not yet in the baseline) are not drifts —
// they appear once the baseline is re-pinned with -update-baseline.
func CompareBench(base, got *BenchReport, tol float64) []Drift {
	byName := map[string]BenchResult{}
	for _, r := range got.Scenarios {
		byName[r.Name] = r
	}
	var drifts []Drift
	for _, b := range base.Scenarios {
		g, ok := byName[b.Name]
		if !ok {
			drifts = append(drifts, Drift{Scenario: b.Name, KPI: "(scenario)", Rel: math.Inf(1)})
			continue
		}
		names := make([]string, 0, len(b.KPIs))
		for k := range b.KPIs {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			bv := b.KPIs[k]
			gv, ok := g.KPIs[k]
			if !ok {
				drifts = append(drifts, Drift{Scenario: b.Name, KPI: k, Base: bv, Rel: math.Inf(1)})
				continue
			}
			denom := math.Abs(bv)
			if denom < 1e-12 {
				denom = 1e-12
			}
			rel := math.Abs(gv-bv) / denom
			if rel > tol {
				drifts = append(drifts, Drift{Scenario: b.Name, KPI: k, Base: bv, Got: gv, Rel: rel})
			}
		}
	}
	return drifts
}
