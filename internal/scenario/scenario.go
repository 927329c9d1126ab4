// Package scenario is the one serving-run assembler. A Spec names a
// serving run — accelerator placement, ULP, data path, load shape,
// measurement windows, and which engine runs it — and Build assembles
// it: a serial system under a closed-loop client, a sharded PDES
// cluster (Shards), a replicated cluster (Nodes), or a trace-replay
// workload run (Workload). Run drives the measurement and returns one
// Result. The KPI bench, the smartdimm-sim CLI and the paper-figure
// sweeps all assemble their runs here, so the path that is measured is
// the path whose timing models run.
package scenario

import (
	"cmp"
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/dram"
	"repro/internal/fleet"
	"repro/internal/offload"
	"repro/internal/rdma"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
	"repro/internal/wrkgen"
)

// Spec pins one deterministic serving run.
type Spec struct {
	Name string `json:"name"`
	// Placement is the accelerator: cpu | smartnic | qat | smartdimm |
	// adaptive, or a fleet policy (rr | leastload | affinity | sticky).
	Placement string `json:"placement"`
	// Devices is the SmartDIMM rank count of a fleet placement; plain
	// smartdimm with Devices above 1 means the rr fleet.
	Devices   int    `json:"devices"`
	ULP       string `json:"ulp"` // tls (or "") | compression | none
	Msg       int    `json:"msg"`
	Conns     int    `json:"conns"`
	Workers   int    `json:"workers"`
	Seed      int64  `json:"seed"`
	WarmupPs  int64  `json:"warmup_ps"`
	MeasurePs int64  `json:"measure_ps"`
	// FileKind is the served corpus. Its zero value is corpus.Zeros, so
	// every spec names its corpus.
	FileKind corpus.Kind `json:"file_kind"`
	// Shards > 0 runs the scenario on the sharded PDES cluster
	// (fleet.Sharded): Shards sub-systems with Devices ranks each,
	// Placement naming the per-shard fleet policy. ExecWorkers sets the
	// epoch parallelism (0 = GOMAXPROCS, 1 = serial reference); the sim
	// KPIs are byte-identical either way, only wall KPIs move.
	Shards      int         `json:"shards,omitempty"`
	ExecWorkers int         `json:"exec_workers,omitempty"`
	Params      *sim.Params `json:"-"` // calibration override; nil = DefaultParams
	// Nodes > 0 runs the scenario on the replicated cluster tier
	// (internal/cluster): Nodes one-rank server nodes behind quorum-ack
	// replication with Conns closed-loop client connections, chaos off.
	// Placement is "cluster" (or empty). The KPI set is the
	// client-visible one (acked ops, redirects, promotions) rather than
	// the per-server serving KPIs.
	Nodes int `json:"nodes,omitempty"`
	// DataPath selects how records reach the device buffers: "" or
	// "host" is the host-mediated path (storage DMA bouncing through
	// host DRAM on page-cache misses); "peer" is the zero-copy RDMA
	// path (the NIC writes straight into the registered lower-half
	// buffers). "peer" requires an inline placement (smartdimm or a
	// fleet policy).
	DataPath string `json:"datapath,omitempty"`
	// Workload, when set ("kv" or "embed"), runs the scenario through
	// the trace-replay workload suite (internal/workload) instead of the
	// closed-loop generator: an open-loop arrival trace at RPS drives
	// the named request mix over a Devices-rank fleet, chaos and
	// autoscaler off (see WorkloadConfig). Placement names the fleet
	// policy; the source's own payload mix replaces Msg and FileKind,
	// and the LLC is fixed, so a workload spec leaves those zero.
	Workload string  `json:"workload,omitempty"`
	RPS      float64 `json:"rps,omitempty"` // open-loop offered rate (Workload only)

	// LLCBytes/LLCWays size the shared LLC; zero selects 2MB / 8 ways.
	LLCBytes int `json:"llc_bytes,omitempty"`
	LLCWays  int `json:"llc_ways,omitempty"`
	// Tracer, when non-nil, threads span tracing through the system and
	// the NIC (serial and sharded specs). A sharded run traces every
	// shard on its own and Run replaces the Tracer's contents with the
	// merged stream. TraceCAS attaches a channel-0 CAS trace of that
	// many events (serial specs only).
	Tracer   *telemetry.Tracer `json:"-"`
	TraceCAS int               `json:"-"`
	// ThinkPsFor, when non-nil, overrides the client's per-connection
	// think time (default: one network RTT; serial specs only).
	ThinkPsFor func(connID int) int64 `json:"-"`
}

// kind names the engine a Spec runs on.
func (sp Spec) kind() string {
	switch {
	case sp.Shards > 0:
		return "sharded"
	case sp.Nodes > 0:
		return "cluster"
	case sp.Workload != "":
		return "workload"
	}
	return "serial"
}

// check refuses every field sp sets that its kind cannot honour, so no
// setting is silently dropped.
func (sp Spec) check() error {
	switch sp.DataPath {
	case "", "host", "peer":
	default:
		return fmt.Errorf("unknown data path %q (want host or peer)", sp.DataPath)
	}
	peer := sp.DataPath == "peer"
	type field struct {
		name string
		set  bool
	}
	var unused []field
	switch sp.kind() {
	case "sharded":
		unused = []field{{"Nodes", sp.Nodes > 0}, {"Workload", sp.Workload != ""}, {"RPS", sp.RPS != 0},
			{"DataPath peer", peer}, {"TraceCAS", sp.TraceCAS != 0}, {"ThinkPsFor", sp.ThinkPsFor != nil}}
	case "cluster":
		unused = []field{{"Workload", sp.Workload != ""}, {"RPS", sp.RPS != 0},
			{"Placement " + sp.Placement, sp.Placement != "" && sp.Placement != "cluster"},
			{"Devices", sp.Devices > 1}, {"ULP none", sp.ULP == "none"}, {"DataPath peer", peer},
			{"Tracer", sp.Tracer != nil}, {"TraceCAS", sp.TraceCAS != 0}, {"ThinkPsFor", sp.ThinkPsFor != nil}}
	case "workload":
		unused = []field{{"ULP " + sp.ULP, sp.ULP != "" && sp.ULP != "tls"},
			{"Msg", sp.Msg != 0}, {"FileKind", sp.FileKind != 0}, {"ExecWorkers", sp.ExecWorkers != 0},
			{"LLCBytes", sp.LLCBytes != 0}, {"LLCWays", sp.LLCWays != 0}, {"DataPath peer", peer},
			{"Tracer", sp.Tracer != nil}, {"TraceCAS", sp.TraceCAS != 0}, {"ThinkPsFor", sp.ThinkPsFor != nil}}
	default:
		unused = []field{{"ExecWorkers", sp.ExecWorkers != 0}, {"RPS", sp.RPS != 0}}
	}
	for _, f := range unused {
		if f.set {
			return fmt.Errorf("%s spec cannot use %s", sp.kind(), f.name)
		}
	}
	return nil
}

// llc returns the shared LLC's size and associativity: 2MB / 8 ways
// unless set.
func (sp Spec) llc() (bytes, ways int) {
	return cmp.Or(sp.LLCBytes, 2<<20), cmp.Or(sp.LLCWays, 8)
}

// SimParams returns the run's calibration: the override or the default.
func (sp Spec) SimParams() sim.Params {
	if sp.Params != nil {
		return *sp.Params
	}
	return sim.DefaultParams()
}

// parseULP maps a ULP name to the server mode serving it.
func parseULP(name string) (server.Mode, error) {
	switch name {
	case "", "tls":
		return server.HTTPSMode, nil
	case "compression":
		return server.CompressedHTTP, nil
	case "none":
		return server.PlainHTTP, nil
	}
	return 0, fmt.Errorf("unknown ulp %q (want tls, compression, or none)", name)
}

// fleetPolicy parses the placement of a fleet-only run (sharded,
// workload): a fleet policy, or smartdimm meaning round-robin.
func fleetPolicy(placement string) (fleet.Policy, error) {
	if placement == "smartdimm" {
		return fleet.RoundRobin, nil
	}
	pol, err := fleet.ParsePolicy(placement)
	if err != nil {
		return 0, fmt.Errorf("placement %q is single-device; use smartdimm or a fleet policy (rr, leastload, affinity, sticky)", placement)
	}
	return pol, nil
}

// placement is a parsed Spec.Placement.
type placement struct {
	name  string // single-device placement name; "" for a fleet
	fleet bool
	pol   fleet.Policy
	peer  bool // zero-copy RDMA ingress
}

// inline reports whether the placement owns device buffers a peer
// write can land in.
func (p placement) inline() bool { return p.fleet || p.name == "smartdimm" }

func parse(sp Spec) (placement, error) {
	var p placement
	switch sp.Placement {
	case "cpu", "smartnic", "qat", "smartdimm", "adaptive":
		p.name = sp.Placement
		if sp.Devices > 1 {
			pol, err := fleetPolicy(sp.Placement)
			if err != nil {
				return p, fmt.Errorf("%d devices: %w", sp.Devices, err)
			}
			p = placement{fleet: true, pol: pol}
		}
	default:
		pol, err := fleet.ParsePolicy(sp.Placement)
		if err != nil {
			return p, fmt.Errorf("unknown placement %q", sp.Placement)
		}
		p = placement{fleet: true, pol: pol}
	}
	if sp.DataPath == "peer" {
		if !p.inline() {
			return p, fmt.Errorf("peer data path: placement %q has no device buffers; use smartdimm or a fleet policy", sp.Placement)
		}
		p.peer = true
	}
	return p, nil
}

// System builds only the simulated host of sp — for runs that drive the
// system without a server (Table I's solo antagonist, Fig. 9's CompCpy streams).
func System(sp Spec) (*sim.System, error) {
	if sp.kind() != "serial" {
		return nil, fmt.Errorf("%s spec has no single system", sp.kind())
	}
	if err := sp.check(); err != nil {
		return nil, err
	}
	p, err := parse(sp)
	if err != nil {
		return nil, err
	}
	return newSystem(sp, p)
}

func newSystem(sp Spec, p placement) (*sim.System, error) {
	llc, ways := sp.llc()
	ranks, dp := 0, sim.DataPathHost
	if p.fleet {
		ranks = sp.Devices
	}
	if p.peer {
		dp = sim.DataPathPeer
	}
	return sim.NewSystem(sim.SystemConfig{
		Params: sp.SimParams(), LLCBytes: llc, LLCWays: ways,
		Geometry:       dram.MediumGeometry(),
		WithSmartDIMM:  p.inline() || p.name == "adaptive",
		SmartDIMMRanks: ranks,
		DataPath:       dp,
		Tracer:         sp.Tracer,
		TraceCAS:       sp.TraceCAS,
	})
}

// ErrUnsupported reports a placement that cannot offload the Spec's ULP
// (the SmartNIC has no compression engine); sweeps skip such points.
var ErrUnsupported = errors.New("placement cannot offload this ulp")

// Stack is one assembled serving run. A serial stack fills Sys through
// Gen; between Build and Run callers may attach more load to Sys.Engine
// (the co-run antagonist) or read any component, all wired to the same
// engine. The other kinds fill only their own field: Sharded, Cluster,
// or Workload — the mapped run config, which callers may extend (the
// autoscaler, alert rules, the flight recorder) before Run.
type Stack struct {
	Spec    Spec
	Mode    server.Mode
	Sys     *sim.System
	Fleet   *fleet.Fleet    // fleet placements only
	NIC     *rdma.NIC       // peer data path only
	Backend offload.Backend // nil for ULP none
	Server  *server.Server
	Gen     *wrkgen.Generator

	Sharded  *fleet.Sharded
	Cluster  *cluster.Cluster
	Workload *workload.RunConfig
}

// Result is one run's outcome: the server metrics over the measured
// window (aggregated over the shards of a sharded run; zero for a
// cluster run, whose servers are replicas) and the kind's own report.
type Result struct {
	Metrics  server.Metrics
	Sharded  *fleet.ShardedMetrics
	Cluster  *cluster.Metrics
	Workload *workload.Report
}

// Build assembles sp's run on the engine its kind names: fleet.Sharded
// for Shards, cluster.Cluster for Nodes, the trace-replay suite for
// Workload, and otherwise one serial system under a closed-loop client.
// A field the kind cannot honour is an error, not silently dropped.
func Build(sp Spec) (*Stack, error) {
	if err := sp.check(); err != nil {
		return nil, err
	}
	mode, err := parseULP(sp.ULP)
	if err != nil {
		return nil, err
	}
	st := &Stack{Spec: sp, Mode: mode}
	llc, ways := sp.llc()
	switch sp.kind() {
	case "sharded":
		var pol fleet.Policy
		if pol, err = fleetPolicy(sp.Placement); err != nil {
			return nil, fmt.Errorf("sharded spec: %w", err)
		}
		st.Sharded, err = fleet.NewSharded(fleet.ShardedConfig{
			Shards: sp.Shards, RanksPerShard: sp.Devices, Policy: pol,
			Workers: sp.Workers, MsgSize: sp.Msg, Connections: sp.Conns,
			FileKind: sp.FileKind, Mode: mode, Seed: sp.Seed,
			ExecWorkers: sp.ExecWorkers, Params: sp.Params,
			LLCBytes: llc, LLCWays: ways, Trace: sp.Tracer != nil,
		})
	case "cluster":
		st.Cluster, err = cluster.New(cluster.Config{
			Nodes: sp.Nodes, Conns: sp.Conns, MsgSize: sp.Msg, Workers: sp.Workers,
			FileKind: sp.FileKind, Mode: mode, Seed: sp.Seed,
			ExecWorkers: sp.ExecWorkers, Params: sp.Params,
			LLCBytes: llc, LLCWays: ways,
		})
	case "workload":
		var rc workload.RunConfig
		rc, err = WorkloadConfig(sp)
		st.Workload = &rc
	default:
		err = st.buildSerial()
	}
	if err != nil {
		return nil, err
	}
	return st, nil
}

// buildSerial wires one serial system under a closed-loop client.
func (st *Stack) buildSerial() error {
	sp, mode := st.Spec, st.Mode
	p, err := parse(sp)
	if err != nil {
		return err
	}
	sys, err := newSystem(sp, p)
	if err != nil {
		return err
	}
	st.Sys = sys
	if p.peer {
		if st.NIC, err = rdma.New(rdma.Config{Sys: sys, Tracer: sp.Tracer}); err != nil {
			return err
		}
	}
	switch p.name {
	case "":
		if st.Fleet, err = fleet.New(fleet.Config{Sys: sys, Policy: p.pol, RNIC: st.NIC}); err != nil {
			return err
		}
		st.Backend = st.Fleet
	case "cpu":
		st.Backend = &offload.CPU{Sys: sys}
	case "smartnic":
		st.Backend = &offload.SmartNIC{Sys: sys}
	case "qat":
		st.Backend = &offload.QAT{Sys: sys}
	case "smartdimm":
		st.Backend = &offload.SmartDIMM{Sys: sys}
	case "adaptive":
		st.Backend = &offload.Adaptive{Sys: sys,
			CPUBackend: &offload.CPU{Sys: sys}, DIMM: &offload.SmartDIMM{Sys: sys}}
	}
	switch {
	case mode == server.PlainHTTP:
		st.Backend = nil
	case !st.Backend.Supports(mode.ULP()):
		return fmt.Errorf("%w: %s cannot offload %v", ErrUnsupported, st.Backend.Name(), mode.ULP())
	case st.NIC != nil:
		if st.Backend, err = offload.NewRDMA(st.Backend, st.NIC); err != nil {
			return err
		}
	}
	if st.Server, err = server.New(sys.Engine, server.Config{
		Sys: sys, Backend: st.Backend, Mode: mode, Workers: sp.Workers,
		MsgSize: sp.Msg, Connections: sp.Conns, FileKind: sp.FileKind, Seed: sp.Seed,
	}); err != nil {
		return err
	}
	st.Gen = wrkgen.New(sys.Engine, st.Server, wrkgen.Config{
		Connections: sp.Conns,
		ThinkPs:     int64(sys.Params.RTTUs * float64(sim.Us)),
		ThinkPsFor:  sp.ThinkPsFor,
	})
	return nil
}

// WorkloadConfig maps a workload spec onto the trace-replay suite's run
// config: an open-loop arrival trace of four streams at RPS over a
// Devices-rank fleet, Zipf-0.99 KV keys, and a 1ms drain past the
// measured window. The autoscaler, alert rules and flight recorder stay
// off; callers layer them on the returned config.
func WorkloadConfig(sp Spec) (workload.RunConfig, error) {
	if err := sp.check(); err != nil {
		return workload.RunConfig{}, err
	}
	pol, err := fleetPolicy(sp.Placement)
	if err != nil {
		return workload.RunConfig{}, fmt.Errorf("workload spec: %w", err)
	}
	return workload.RunConfig{
		Kind: sp.Workload, Ranks: sp.Devices, Policy: pol,
		Conns: sp.Conns, Workers: sp.Workers, Seed: sp.Seed, Params: sp.Params,
		HorizonPs: sp.WarmupPs + sp.MeasurePs, WarmupPs: sp.WarmupPs, DrainPs: sim.Ms,
		KV:       workload.KVConfig{ZipfS: 0.99},
		Arrivals: wrkgen.ArrivalConfig{Streams: 4, BaseRPS: sp.RPS},
	}, nil
}

// Run drives the measurement — warmup, then the measured window — and
// returns its Result.
func (s *Stack) Run() (Result, error) {
	sp := s.Spec
	switch {
	case s.Sharded != nil:
		sm, err := s.Sharded.Run(sp.WarmupPs, sp.MeasurePs)
		if err != nil {
			return Result{}, err
		}
		if sp.Tracer != nil {
			*sp.Tracer = *s.Sharded.MergedTrace()
		}
		return Result{Metrics: sm.Agg, Sharded: &sm}, nil
	case s.Cluster != nil:
		m, err := s.Cluster.Run(sp.WarmupPs, sp.MeasurePs)
		if err != nil {
			return Result{}, err
		}
		return Result{Cluster: &m}, nil
	case s.Workload != nil:
		rep, err := workload.Run(*s.Workload)
		if err != nil {
			return Result{}, err
		}
		return Result{Metrics: rep.Metrics, Workload: &rep}, nil
	}
	s.Warmup()
	m, err := s.Measure()
	return Result{Metrics: m}, err
}

// Warmup starts a serial stack's client and runs the warmup window. Run
// is Warmup then Measure; callers split them to open another
// component's measurement window (the co-run antagonist's) at the same
// instant.
func (s *Stack) Warmup() {
	s.Gen.Start()
	s.Sys.Engine.RunUntil(s.Spec.WarmupPs)
}

// Measure opens a serial stack's measurement window, runs it, and
// collects.
func (s *Stack) Measure() (server.Metrics, error) {
	s.Server.BeginMeasurement()
	s.Gen.BeginMeasurement()
	s.Sys.Engine.RunUntil(s.Spec.WarmupPs + s.Spec.MeasurePs)
	return s.Server.Collect(), s.Server.LastError()
}
