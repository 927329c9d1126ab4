// Package experiments contains one runner per table and figure of the
// paper's evaluation (§III and §VII). cmd/figures prints their output;
// bench_test.go wraps them as benchmarks; EXPERIMENTS.md records the
// paper-vs-measured comparison.
package experiments

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/corun"
	"repro/internal/fault"
	"repro/internal/nettcp"
	"repro/internal/offload"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Every sweep in this package takes a *runner.Pool: each parameter point
// builds its own sim.System and sim.Engine, so points are independent
// and fan out across the pool's workers. Results are assembled in input
// order, so a parallel sweep prints byte-identically to a serial one
// (nil pool); TestSweepsDeterministicUnderParallelism pins this down.

// Scale bounds an experiment run. Quick keeps `go test` fast; Paper
// approaches the paper's workload sizes.
type Scale struct {
	Connections int
	Workers     int
	WarmupPs    int64
	MeasurePs   int64
	LLCBytes    int
	LLCWays     int
}

// QuickScale is used by tests and benchmarks.
func QuickScale() Scale {
	// 256 connections against 4 workers keeps the server CPU-saturated
	// (the regime the paper evaluates: "a large number of connections
	// and high network rates"), and the ~3MB working set thrashes the
	// 512KB LLC the way the testbed's 1024 connections thrash 22MB.
	return Scale{
		Connections: 256, Workers: 4,
		WarmupPs: 2 * sim.Ms, MeasurePs: 10 * sim.Ms,
		LLCBytes: 512 << 10, LLCWays: 8,
	}
}

// PaperScale approximates the testbed (1024 wrk connections, 10 server
// threads). The LLC is scaled with the workload so contention matches.
func PaperScale() Scale {
	return Scale{
		Connections: 1024, Workers: 10,
		WarmupPs: 4 * sim.Ms, MeasurePs: 20 * sim.Ms,
		LLCBytes: 4 << 20, LLCWays: 16,
	}
}

// Placement names one accelerator configuration of §VI.
type Placement int

// The four placements compared in Fig. 11/12.
const (
	PlaceCPU Placement = iota
	PlaceSmartNIC
	PlaceQAT
	PlaceSmartDIMM
)

// String names the placement as the paper does.
func (p Placement) String() string {
	switch p {
	case PlaceCPU:
		return "CPU"
	case PlaceSmartNIC:
		return "SmartNIC"
	case PlaceQAT:
		return "QuickAssist"
	default:
		return "SmartDIMM"
	}
}

// The scenario.Spec spellings of the placements and server modes.
var (
	specPlacement = [...]string{PlaceCPU: "cpu", PlaceSmartNIC: "smartnic", PlaceQAT: "qat", PlaceSmartDIMM: "smartdimm"}
	specULP       = map[server.Mode]string{server.PlainHTTP: "none", server.HTTPSMode: "tls", server.CompressedHTTP: "compression"}
)

// spec describes one serving run of this package at scale sc.
func (sc Scale) spec(place Placement, mode server.Mode, msg int, kind corpus.Kind, seed int64) scenario.Spec {
	return scenario.Spec{
		Placement: specPlacement[place], ULP: specULP[mode],
		Msg: msg, Conns: sc.Connections, Workers: sc.Workers, Seed: seed,
		WarmupPs: sc.WarmupPs, MeasurePs: sc.MeasurePs,
		LLCBytes: sc.LLCBytes, LLCWays: sc.LLCWays, FileKind: kind,
	}
}

// buildUncontended builds sp's stack with the memory-bandwidth contention
// model off. Fig. 3/10/11/12, Table I and the stage breakdown were
// calibrated without it; turning it on inverts Table I's isolation
// ordering (EXPERIMENTS.md §Table I, ROADMAP).
func buildUncontended(sp scenario.Spec) (*scenario.Stack, error) {
	st, err := scenario.Build(sp)
	if err != nil {
		return nil, err
	}
	st.Sys.Hier.Clock = nil
	return st, nil
}

// measureUncontended builds and runs sp without the contention model.
func measureUncontended(sp scenario.Spec) (server.Metrics, error) {
	st, err := buildUncontended(sp)
	if err != nil {
		return server.Metrics{}, err
	}
	r, err := st.Run()
	return r.Metrics, err
}

// noThink is the zero client think time of the wrk-style runs that
// issue the next request the instant a response lands.
func noThink(int) int64 { return 0 }

// --- Fig. 2 -----------------------------------------------------------------

// Fig2Point is one (placement, drop rate) bandwidth measurement.
type Fig2Point struct {
	Placement string
	DropPct   float64
	Gbps      float64
	Resyncs   uint64
}

// Fig2 measures encrypted-connection bandwidth for the CPU and SmartNIC
// configurations under injected packet drops, one drop rate per worker.
func Fig2(pool *runner.Pool, dropsPct []float64) []Fig2Point {
	p := sim.DefaultParams()
	const total = 8 << 20
	pairs, _ := runner.Map(context.Background(), pool, dropsPct,
		func(_ context.Context, d float64, _ int) ([2]Fig2Point, error) {
			prob := d / 100
			cpu := nettcp.MeasureGoodput(p, nettcp.CPUTLSHook{P: p}, prob, total, 11)
			nic := &nettcp.NICTLSHook{P: p, RecordLen: 16384}
			nicRes := nettcp.MeasureGoodput(p, nic, prob, total, 11)
			return [2]Fig2Point{
				{Placement: "CPU", DropPct: d, Gbps: cpu.GoodputGbps},
				{Placement: "SmartNIC", DropPct: d, Gbps: nicRes.GoodputGbps, Resyncs: nicRes.Resyncs},
			}, nil
		})
	out := make([]Fig2Point, 0, 2*len(pairs))
	for _, pr := range pairs {
		out = append(out, pr[0], pr[1])
	}
	return out
}

// --- Fig. 2b (bursty loss) --------------------------------------------------

// Fig2bPoint is one (placement, burst intensity) goodput measurement
// under Gilbert-Elliott bursty loss, link flaps, and mild reordering.
type Fig2bPoint struct {
	Placement        string
	PGoodBadPct      float64 // burst-entry probability, percent per packet
	Gbps             float64
	BurstDrops       uint64
	FlapDrops        uint64
	Resyncs          uint64
	FallbackEncrypts uint64
}

// Fig2b extends Fig. 2 from Bernoulli drops to the loss patterns real
// networks produce: Gilbert-Elliott bursts (dense loss while the channel
// is bad), periodic link-flap outages, and mild reordering. Each burst
// desynchronizes the autonomous SmartNIC engine again, so the NIC
// placement pays a resync plus a window of software-fallback encryptions
// per loss event while the CPU placement only retransmits — the same
// cliff as Fig. 2, but reached at far lower average loss rates.
func Fig2b(pool *runner.Pool, pGoodBadPct []float64) []Fig2bPoint {
	p := sim.DefaultParams()
	const total = 8 << 20
	pairs, _ := runner.Map(context.Background(), pool, pGoodBadPct,
		func(_ context.Context, g float64, _ int) ([2]Fig2bPoint, error) {
			net := nettcp.BurstyNet{
				Burst:       fault.GEConfig{PGoodBad: g / 100, PBadGood: 0.2, LossBad: 0.8},
				FlapEveryPs: 50 * sim.Ms, FlapDownPs: 200 * sim.Us,
				ReorderProb: 0.001, ReorderDelayPs: 300 * sim.Us,
			}
			cpu := nettcp.MeasureGoodputBursty(p, nettcp.CPUTLSHook{P: p}, net, total, 11)
			nic := &nettcp.NICTLSHook{P: p, RecordLen: 16384, FallbackRecords: 16}
			nicRes := nettcp.MeasureGoodputBursty(p, nic, net, total, 11)
			return [2]Fig2bPoint{
				{Placement: "CPU", PGoodBadPct: g, Gbps: cpu.GoodputGbps,
					BurstDrops: cpu.BurstDrops, FlapDrops: cpu.FlapDrops},
				{Placement: "SmartNIC", PGoodBadPct: g, Gbps: nicRes.GoodputGbps,
					BurstDrops: nicRes.BurstDrops, FlapDrops: nicRes.FlapDrops,
					Resyncs: nicRes.Resyncs, FallbackEncrypts: nicRes.FallbackEncrypts},
			}, nil
		})
	out := make([]Fig2bPoint, 0, 2*len(pairs))
	for _, pr := range pairs {
		out = append(out, pr[0], pr[1])
	}
	return out
}

// --- Fig. 3 -----------------------------------------------------------------

// Fig3Point is one connection-count measurement.
type Fig3Point struct {
	Connections     int
	HTTPMemGBps     float64
	HTTPSMemGBps    float64
	NormalizedRatio float64 // HTTPS/HTTP memory bandwidth per request
}

// Fig3 compares HTTP and HTTPS memory bandwidth as connections grow, one
// connection count per worker.
func Fig3(pool *runner.Pool, sc Scale, connCounts []int, msgSize int) ([]Fig3Point, error) {
	out, err := runner.Map(context.Background(), pool, connCounts,
		func(_ context.Context, conns, _ int) (Fig3Point, error) {
			run := func(mode server.Mode) (server.Metrics, error) {
				sp := sc.spec(PlaceCPU, mode, msgSize, corpus.HTML, 7)
				sp.Conns = conns
				return measureUncontended(sp)
			}
			http, err := run(server.PlainHTTP)
			if err != nil {
				return Fig3Point{}, err
			}
			https, err := run(server.HTTPSMode)
			if err != nil {
				return Fig3Point{}, err
			}
			ratio := 1.0
			if http.MemBWGBps > 0.001 {
				ratio = https.MemBWGBps / http.MemBWGBps
			}
			return Fig3Point{
				Connections: conns, HTTPMemGBps: http.MemBWGBps, HTTPSMemGBps: https.MemBWGBps,
				NormalizedRatio: ratio,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// --- Fig. 9 -----------------------------------------------------------------

// Fig9Result is the CAS trace of concurrent CompCpy offloads.
type Fig9Result struct {
	Trace        *stats.CASTrace
	MeanRunLen   map[int]float64 // mean monotonic rdCAS run length per core
	SpreadBytes  uint64
	SelfRecycles uint64
}

// Fig9 reproduces the trace experiment: four cores concurrently
// offloading TLS records, buffers spaced 32MB apart.
func Fig9() (*Fig9Result, error) {
	sys, err := scenario.System(scenario.Spec{Placement: "smartdimm", LLCBytes: 256 << 10, TraceCAS: 200000})
	if err != nil {
		return nil, err
	}
	const cores = 4
	const msg = 16384 - core.TagSize
	backend := &offload.SmartDIMM{Sys: sys}
	var conns []*offload.Conn
	for c := 0; c < cores; c++ {
		// Space the buffers 32MB apart as in the paper's trace.
		want := uint64(c) * 32 << 20
		for {
			probe, err := sys.Driver.AllocPages(1)
			if err != nil {
				return nil, err
			}
			if probe >= want {
				break
			}
		}
		conn, err := backend.NewConn(offload.TLS, c, msg)
		if err != nil {
			return nil, err
		}
		conns = append(conns, conn)
	}
	payload := corpus.Generate(corpus.Text, msg, 3)
	for round := 0; round < 6; round++ {
		for c := 0; c < cores; c++ {
			if err := offload.StagePayloadDMA(sys, conns[c], payload); err != nil {
				return nil, err
			}
			if _, err := backend.Process(offload.TLS, c, conns[c], msg); err != nil {
				return nil, err
			}
		}
	}
	res := &Fig9Result{
		Trace:        sys.Trace,
		MeanRunLen:   map[int]float64{},
		SpreadBytes:  sys.Trace.AddressSpreadBytes(),
		SelfRecycles: sys.Dev.Stats().SelfRecycles,
	}
	for corenum, runs := range sys.Trace.MonotonicRunLengths() {
		if corenum < 0 {
			continue // DMA / writeback traffic without core attribution
		}
		sum := 0
		for _, r := range runs {
			sum += r
		}
		if len(runs) > 0 {
			res.MeanRunLen[corenum] = float64(sum) / float64(len(runs))
		}
	}
	return res, nil
}

// --- Fig. 10 ----------------------------------------------------------------

// Fig10Series is the scratchpad occupancy over time for one LLC size.
type Fig10Series struct {
	LLCBytes      int
	Series        *stats.TimeSeries
	EquilibriumKB float64 // max occupancy after warmup
	ForceRecycles uint64
}

// Fig10 sweeps LLC provisioning (the paper uses CAT for 10-50MB) and
// samples Scratchpad occupancy while the HTTPS workload runs, one LLC
// size per worker.
func Fig10(pool *runner.Pool, llcSizes []int, sc Scale) ([]Fig10Series, error) {
	out, err := runner.Map(context.Background(), pool, llcSizes,
		func(_ context.Context, llc, _ int) (Fig10Series, error) {
			sp := sc.spec(PlaceSmartDIMM, server.HTTPSMode, 4096, corpus.Text, 3)
			sp.LLCBytes, sp.ThinkPsFor = llc, noThink
			st, err := buildUncontended(sp)
			if err != nil {
				return Fig10Series{}, err
			}
			sys, eng := st.Sys, st.Sys.Engine
			series := &stats.TimeSeries{Name: fmt.Sprintf("llc=%dMB", llc>>20)}
			var tick func()
			tick = func() {
				series.Append(eng.Now(), float64(sys.Dev.ScratchpadOccupancyBytes()))
				eng.After(100*sim.Us, tick)
			}
			eng.After(0, tick)
			if _, err := st.Run(); err != nil {
				return Fig10Series{}, err
			}
			return Fig10Series{
				LLCBytes:      llc,
				Series:        series,
				EquilibriumKB: series.MaxAfter(sc.WarmupPs) / 1024,
				ForceRecycles: sys.Driver.Stats().ForceRecycleCalls,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// --- Fig. 11 / Fig. 12 -------------------------------------------------------

// PerfPoint is one (placement, message size) server measurement,
// normalized against the CPU configuration by the caller.
type PerfPoint struct {
	Placement Placement
	MsgSize   int
	Metrics   server.Metrics
	// Normalized to the CPU run of the same message size:
	RPSNorm, CPUNorm, MemNorm float64
}

// RunPlacements measures the server under every placement supporting
// the ULP, normalizing to CPU (Fig. 11 for TLS, Fig. 12 for
// compression). All (message size, placement) simulations fan out
// across the pool; normalization happens after the barrier, against the
// CPU run of the same message size.
func RunPlacements(pool *runner.Pool, sc Scale, mode server.Mode, msgSizes []int, kind corpus.Kind) ([]PerfPoint, error) {
	placements := []Placement{PlaceCPU, PlaceSmartNIC, PlaceQAT, PlaceSmartDIMM}
	warm, meas := sc.WarmupPs, sc.MeasurePs
	if mode == server.CompressedHTTP {
		// Software deflate is ~50x slower than AES-NI: the closed loop
		// needs proportionally longer windows to reach steady state.
		warm *= 8
		meas *= 8
	}
	type job struct {
		msg   int
		place Placement
	}
	type result struct {
		m    server.Metrics
		skip bool // placement does not support this ULP
	}
	jobs := make([]job, 0, len(msgSizes)*len(placements))
	for _, msg := range msgSizes {
		for _, place := range placements {
			jobs = append(jobs, job{msg: msg, place: place})
		}
	}
	results, err := runner.Map(context.Background(), pool, jobs,
		func(_ context.Context, j job, _ int) (result, error) {
			sp := sc.spec(j.place, mode, j.msg, kind, 5)
			sp.WarmupPs, sp.MeasurePs = warm, meas
			m, err := measureUncontended(sp)
			if errors.Is(err, scenario.ErrUnsupported) {
				return result{skip: true}, nil
			}
			if err != nil {
				return result{}, err
			}
			return result{m: m}, nil
		})
	if err != nil {
		return nil, err
	}
	var out []PerfPoint
	for i, j := range jobs {
		if results[i].skip {
			continue
		}
		m := results[i].m
		pt := PerfPoint{Placement: j.place, MsgSize: j.msg, Metrics: m}
		// The CPU placement leads each message-size group.
		cpuBase := results[(i/len(placements))*len(placements)].m
		if cpuBase.RPS > 0 {
			pt.RPSNorm = m.RPS / cpuBase.RPS
			pt.CPUNorm = perReq(m.CPUBusyPs, m.Requests) / perReq(cpuBase.CPUBusyPs, cpuBase.Requests)
			pt.MemNorm = perReqU(m.MemBytes, m.Requests) / perReqU(cpuBase.MemBytes, cpuBase.Requests)
		}
		out = append(out, pt)
	}
	return out, nil
}

func perReq(v int64, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(v) / float64(n)
}

func perReqU(v, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(v) / float64(n)
}

// --- Table I -----------------------------------------------------------------

// Table1Row is one placement's co-run slowdowns.
type Table1Row struct {
	Placement     Placement
	NginxSlowdown float64 // fraction of solo RPS lost
	McfSlowdown   float64 // fraction of solo ops lost
	CoRunRPS      float64
}

// Table1 measures performance isolation: Nginx+TLS co-running with the
// mcf-like antagonist, each normalized to its solo run. Each placement
// needs three independent simulations (solo server, solo antagonist,
// co-run); all twelve fan out across the pool.
func Table1(pool *runner.Pool, sc Scale) ([]Table1Row, error) {
	// Isolation needs headroom: size the LLC so the solo server largely
	// fits (low miss rate), then let the antagonist evict it. The
	// testbed's 22MB LLC plays this role for 1024 connections; scale it
	// to the configured connection count (~16KB working set each).
	sc.LLCBytes = sc.Connections * 16 << 10
	if sc.LLCBytes < 1<<20 {
		sc.LLCBytes = 1 << 20
	}
	placements := []Placement{PlaceCPU, PlaceSmartNIC, PlaceQAT, PlaceSmartDIMM}
	const (
		soloServer = iota
		soloAntagonist
		coRun
		jobsPerPlace
	)
	type job struct {
		place Placement
		kind  int
	}
	type result struct {
		rps, ops     float64 // solo measurements
		coRPS, coOps float64 // co-run measurements
	}
	jobs := make([]job, 0, len(placements)*jobsPerPlace)
	for _, place := range placements {
		for k := 0; k < jobsPerPlace; k++ {
			jobs = append(jobs, job{place: place, kind: k})
		}
	}
	results, err := runner.Map(context.Background(), pool, jobs,
		func(_ context.Context, j job, _ int) (result, error) {
			sp := sc.spec(j.place, server.HTTPSMode, 4096, corpus.Text, 5)
			switch j.kind {
			case soloServer:
				m, err := measureUncontended(sp)
				if err != nil {
					return result{}, err
				}
				return result{rps: m.RPS}, nil
			case soloAntagonist:
				ops, err := runAntagonist(sp)
				return result{ops: ops}, err
			default:
				coRPS, coOps, err := runCoLocated(sp)
				return result{coRPS: coRPS, coOps: coOps}, err
			}
		})
	if err != nil {
		return nil, err
	}
	out := make([]Table1Row, 0, len(placements))
	for i, place := range placements {
		solo := results[i*jobsPerPlace+soloServer]
		ant := results[i*jobsPerPlace+soloAntagonist]
		co := results[i*jobsPerPlace+coRun]
		out = append(out, Table1Row{
			Placement:     place,
			NginxSlowdown: 1 - co.coRPS/solo.rps,
			McfSlowdown:   1 - co.coOps/ant.ops,
			CoRunRPS:      co.coRPS,
		})
	}
	return out, nil
}

// runAntagonist measures the co-runner's solo throughput on sp's host,
// with no server built.
func runAntagonist(sp scenario.Spec) (float64, error) {
	sys, err := scenario.System(sp)
	if err != nil {
		return 0, err
	}
	sys.Hier.Clock = nil // as buildUncontended
	a, err := corun.Start(sys.Engine, corun.DefaultConfig(sys))
	if err != nil {
		return 0, err
	}
	sys.Engine.RunUntil(sp.WarmupPs)
	a.BeginMeasurement()
	sys.Engine.RunUntil(sp.WarmupPs + sp.MeasurePs)
	return a.OpsPerSecond(), nil
}

// runCoLocated runs the server (zero think time) and the antagonist on
// one engine and memory system, returning client-side RPS.
func runCoLocated(sp scenario.Spec) (rps, ops float64, err error) {
	sp.ThinkPsFor = noThink
	st, err := buildUncontended(sp)
	if err != nil {
		return 0, 0, err
	}
	ant, err := corun.Start(st.Sys.Engine, corun.DefaultConfig(st.Sys))
	if err != nil {
		return 0, 0, err
	}
	st.Warmup()
	ant.BeginMeasurement()
	if _, err := st.Measure(); err != nil {
		return 0, 0, err
	}
	return st.Gen.RPS(), ant.OpsPerSecond(), nil
}

// --- Fig. 13 -----------------------------------------------------------------

// Fig13Row is one placement's qualitative scorecard (0-3 scale, higher
// is better), matching the radar chart's axes.
type Fig13Row struct {
	Placement            string
	LowLLCContention     int // performance when the LLC is uncontended
	HighLLCContention    int // performance under contention
	TransportCompat      int // works with TCP and UDP stacks
	ULPDiversity         int // non-size-preserving / non-incremental ULPs
	LossResistance       int // performance under packet loss/reorder
	TransportFlexibility int // layer-4 software remains evolvable
}

// Fig13 returns the design-space comparison. The scores encode the
// paper's qualitative claims; the quantitative figures substantiate the
// contended/loss axes.
func Fig13() []Fig13Row {
	return []Fig13Row{
		{Placement: "CPU", LowLLCContention: 3, HighLLCContention: 1, TransportCompat: 3, ULPDiversity: 3, LossResistance: 3, TransportFlexibility: 3},
		{Placement: "SmartNIC (autonomous)", LowLLCContention: 3, HighLLCContention: 2, TransportCompat: 2, ULPDiversity: 1, LossResistance: 1, TransportFlexibility: 3},
		{Placement: "SmartNIC (TOE)", LowLLCContention: 3, HighLLCContention: 2, TransportCompat: 1, ULPDiversity: 2, LossResistance: 2, TransportFlexibility: 1},
		{Placement: "PCIe (QuickAssist)", LowLLCContention: 1, HighLLCContention: 1, TransportCompat: 3, ULPDiversity: 3, LossResistance: 3, TransportFlexibility: 3},
		{Placement: "SmartDIMM", LowLLCContention: 2, HighLLCContention: 3, TransportCompat: 3, ULPDiversity: 3, LossResistance: 3, TransportFlexibility: 3},
	}
}
