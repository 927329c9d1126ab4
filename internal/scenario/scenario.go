// Package scenario is the one serving-stack assembler. A Spec names a
// serving run — accelerator placement, ULP, data path, load shape and
// measurement windows — and Build wires the simulated host, the
// placement's offload backend, the server model and the closed-loop
// client, all on the system's own engine; Run drives the measurement.
// The KPI bench, the smartdimm-sim CLI and the paper-figure sweeps all
// assemble their servers here, so the path that is measured is the path
// whose timing models run.
package scenario

import (
	"errors"
	"fmt"

	"repro/internal/corpus"
	"repro/internal/dram"
	"repro/internal/fleet"
	"repro/internal/offload"
	"repro/internal/rdma"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
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
	// (internal/cluster): Nodes server nodes behind quorum-ack
	// replication with Conns closed-loop client connections, chaos off.
	// The KPI set is the client-visible one (acked ops, redirects,
	// promotions) rather than the per-server serving KPIs.
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
	// autoscaler off. Placement names the fleet policy; Msg and FileKind
	// are ignored (the source's own payload mix governs).
	Workload string  `json:"workload,omitempty"`
	RPS      float64 `json:"rps,omitempty"` // open-loop offered rate (Workload only)

	// LLCBytes/LLCWays size the shared LLC; zero selects 2MB / 8 ways.
	LLCBytes int `json:"llc_bytes,omitempty"`
	LLCWays  int `json:"llc_ways,omitempty"`
	// Tracer, when non-nil, threads span tracing through the system and
	// the NIC; TraceCAS attaches a channel-0 CAS trace of that many events.
	Tracer   *telemetry.Tracer `json:"-"`
	TraceCAS int               `json:"-"`
	// ThinkPsFor, when non-nil, overrides the client's per-connection
	// think time (default: one network RTT).
	ThinkPsFor func(connID int) int64 `json:"-"`
}

// SimParams returns the run's calibration: the override or the default.
func (sp Spec) SimParams() sim.Params {
	if sp.Params != nil {
		return *sp.Params
	}
	return sim.DefaultParams()
}

// ParseULP maps a ULP name to the server mode serving it.
func ParseULP(name string) (server.Mode, error) {
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

// FleetPolicy parses the placement of a fleet-only run (sharded,
// workload): a fleet policy, or smartdimm meaning round-robin.
func FleetPolicy(placement string) (fleet.Policy, error) {
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
			pol, err := FleetPolicy(sp.Placement)
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
	switch sp.DataPath {
	case "", "host":
	case "peer":
		if !p.inline() {
			return p, fmt.Errorf("peer data path: placement %q has no device buffers; use smartdimm or a fleet policy", sp.Placement)
		}
		p.peer = true
	default:
		return p, fmt.Errorf("unknown data path %q (want host or peer)", sp.DataPath)
	}
	return p, nil
}

// System builds only the simulated host of sp — for runs that drive the
// system without a server (Table I's solo antagonist).
func System(sp Spec) (*sim.System, error) {
	p, err := parse(sp)
	if err != nil {
		return nil, err
	}
	return newSystem(sp, p)
}

func newSystem(sp Spec, p placement) (*sim.System, error) {
	llc, ways := sp.LLCBytes, sp.LLCWays
	if llc == 0 {
		llc = 2 << 20
	}
	if ways == 0 {
		ways = 8
	}
	ranks, dp := 0, sim.DataPathHost
	if p.fleet {
		ranks = sp.Devices
	}
	if p.peer {
		dp = sim.DataPathPeer
	}
	return sim.NewSystem(sim.SystemConfig{
		Params: sp.SimParams(), LLCBytes: llc, LLCWays: ways,
		// 512MB of simulated DRAM per rank: enough for paper-scale
		// connection counts.
		Geometry:       dram.Geometry{Ranks: 1, BankGroups: 4, BanksPerBG: 4, Rows: 4096, ColsPerRow: 128},
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

// Stack is one assembled serving run. Between Build and Run callers may
// attach more load to Sys.Engine (the co-run antagonist) or read any
// component; every field is wired to the same engine.
type Stack struct {
	Spec    Spec
	Mode    server.Mode
	Sys     *sim.System
	Fleet   *fleet.Fleet    // fleet placements only
	NIC     *rdma.NIC       // peer data path only
	Backend offload.Backend // nil for ULP none
	Server  *server.Server
	Gen     *wrkgen.Generator
}

// Build assembles sp's serving stack: one serial system under a
// closed-loop client. Sharded, cluster and workload specs have drivers
// of their own (profile.RunBenchScenario dispatches them), so Build
// refuses them rather than silently running something else.
func Build(sp Spec) (*Stack, error) {
	if sp.Shards > 0 || sp.Nodes > 0 || sp.Workload != "" {
		return nil, fmt.Errorf("scenario %s: Build runs one serial closed loop; a sharded, cluster or workload spec needs its own driver", sp.Name)
	}
	mode, err := ParseULP(sp.ULP)
	if err != nil {
		return nil, err
	}
	p, err := parse(sp)
	if err != nil {
		return nil, err
	}
	sys, err := newSystem(sp, p)
	if err != nil {
		return nil, err
	}
	st := &Stack{Spec: sp, Mode: mode, Sys: sys}
	if p.peer {
		if st.NIC, err = rdma.New(rdma.Config{Sys: sys, Tracer: sp.Tracer}); err != nil {
			return nil, err
		}
	}
	switch p.name {
	case "":
		if st.Fleet, err = fleet.New(fleet.Config{Sys: sys, Policy: p.pol, RNIC: st.NIC}); err != nil {
			return nil, err
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
		return nil, fmt.Errorf("%w: %s cannot offload %v", ErrUnsupported, st.Backend.Name(), mode.ULP())
	case st.NIC != nil:
		if st.Backend, err = offload.NewRDMA(st.Backend, st.NIC); err != nil {
			return nil, err
		}
	}
	if st.Server, err = server.New(sys.Engine, server.Config{
		Sys: sys, Backend: st.Backend, Mode: mode, Workers: sp.Workers,
		MsgSize: sp.Msg, Connections: sp.Conns, FileKind: sp.FileKind, Seed: sp.Seed,
	}); err != nil {
		return nil, err
	}
	st.Gen = wrkgen.New(sys.Engine, st.Server, wrkgen.Config{
		Connections: sp.Conns,
		ThinkPs:     int64(sys.Params.RTTUs * float64(sim.Us)),
		ThinkPsFor:  sp.ThinkPsFor,
	})
	return st, nil
}

// Run drives the closed loop through the warmup and measurement windows
// and returns the server's metrics over the measured window.
func (s *Stack) Run() (server.Metrics, error) {
	s.Warmup()
	return s.Measure()
}

// Warmup starts the client and runs the warmup window. Run is Warmup
// then Measure; callers split them to open another component's
// measurement window (the co-run antagonist's) at the same instant.
func (s *Stack) Warmup() {
	s.Gen.Start()
	s.Sys.Engine.RunUntil(s.Spec.WarmupPs)
}

// Measure opens the measurement window, runs it, and collects.
func (s *Stack) Measure() (server.Metrics, error) {
	s.Server.BeginMeasurement()
	s.Gen.BeginMeasurement()
	s.Sys.Engine.RunUntil(s.Spec.WarmupPs + s.Spec.MeasurePs)
	return s.Server.Collect(), s.Server.LastError()
}
