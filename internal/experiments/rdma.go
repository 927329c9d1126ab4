package experiments

// The zero-copy data-path experiment behind `figures -fig rdma`: the
// same 4-rank serving workload measured under three record-ingress
// configurations — the all-CPU host path, the host-mediated SmartDIMM
// fleet (storage DMA bouncing through host DRAM on page-cache misses),
// and the peer-DMA fleet (the RDMA NIC writing straight into the
// registered lower-half buffers) — each solo and co-located with the
// LLC-thrashing antagonist. The trace-derived stage shares substantiate
// the zero-copy claim: under peer-DMA both the copy stage and the
// host-DRAM bounce stage are absent (their time moves to the rdma
// stage, priced on the rank's write timing), and because refills no
// longer stream through the LLC's DMA ways, the co-run column shows the
// isolation benefit on top of the goodput win.

import (
	"context"
	"fmt"
	"io"

	"repro/internal/corpus"
	"repro/internal/corun"
	"repro/internal/profile"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// RDMARanks is the rank count the rdma figure compares at: equal for
// the host-mediated and peer-DMA fleets, so the delta is the data path.
const RDMARanks = 4

// RDMAPoint is one (data path, co-location) measurement.
type RDMAPoint struct {
	Label string // host-cpu | host-dimm | peer-dimm
	Corun bool

	Requests int
	RPS      float64
	TxGbps   float64
	P99Ps    int64

	// Trace-derived critical-path shares (percent of blocked time).
	CopyPct   float64
	BouncePct float64
	RDMAPct   float64

	// Peer-DMA only: mean WQEs retired per doorbell ring (the
	// submission-queue batching win) and peer bytes deposited.
	WQEPerDoorbell float64
	PeerBytes      uint64

	// Co-run only: antagonist progress, for the isolation argument.
	AntOps float64
}

// rdmaConfig names one column of the figure.
type rdmaConfig struct {
	label string
	ranks int  // SmartDIMM ranks (0 = CPU-only system)
	peer  bool // zero-copy RDMA ingress
	corun bool
}

func rdmaConfigs() []rdmaConfig {
	var out []rdmaConfig
	for _, co := range []bool{false, true} {
		out = append(out,
			rdmaConfig{label: "host-cpu", corun: co},
			rdmaConfig{label: "host-dimm", ranks: RDMARanks, corun: co},
			rdmaConfig{label: "peer-dimm", ranks: RDMARanks, peer: true, corun: co},
		)
	}
	return out
}

// FigRDMA runs the six traced measurements. Each run gets a private
// system, tracer and (for peer columns) NIC; the critical-path analysis
// happens in-process on the recorded events.
func FigRDMA(pool *runner.Pool, sc Scale) ([]RDMAPoint, error) {
	return runner.Map(context.Background(), pool, rdmaConfigs(),
		func(_ context.Context, cf rdmaConfig, _ int) (RDMAPoint, error) {
			return runRDMAConfig(cf, sc)
		})
}

func runRDMAConfig(cf rdmaConfig, sc Scale) (RDMAPoint, error) {
	tr := telemetry.New()
	// 16KB messages (the paper's TLS record size): each record splits
	// into several MTU-sized WQEs, so doorbell coalescing is visible in
	// the wqe/doorbell column.
	sp := sc.spec(PlaceCPU, server.HTTPSMode, 16384, corpus.Text, 5)
	sp.Tracer = tr
	if cf.ranks > 0 {
		sp.Placement, sp.Devices = "rr", cf.ranks
	}
	if cf.peer {
		sp.DataPath = "peer"
	}
	st, err := scenario.Build(sp)
	if err != nil {
		return RDMAPoint{}, err
	}
	var ant *corun.Antagonist
	if cf.corun {
		if ant, err = corun.Start(st.Sys.Engine, st.Sys); err != nil {
			return RDMAPoint{}, err
		}
	}
	st.Warmup()
	if ant != nil {
		ant.BeginMeasurement()
	}
	m, err := st.Measure()
	if err != nil {
		return RDMAPoint{}, fmt.Errorf("rdma %s: %w", cf.label, err)
	}
	cp := profile.AnalyzeTracer(tr, profile.Options{FromPs: sc.WarmupPs})
	row := CritPathRow{Stages: cp.Stages}
	pt := RDMAPoint{
		Label: cf.label, Corun: cf.corun,
		Requests:  int(m.Requests),
		RPS:       m.RPS,
		TxGbps:    float64(m.TXBytes*8) / (float64(m.ElapsedPs) * 1e-12) / 1e9,
		P99Ps:     cp.PercentileLatencyPs(99),
		CopyPct:   row.ShareOf("copy"),
		BouncePct: row.ShareOf("bounce"),
		RDMAPct:   row.ShareOf("rdma"),
	}
	if st.NIC != nil {
		ns := st.NIC.Stats()
		if ns.Doorbells > 0 {
			pt.WQEPerDoorbell = float64(ns.Completed+ns.Failed) / float64(ns.Doorbells)
		}
		pt.PeerBytes = ns.PeerBytes
	}
	if ant != nil {
		pt.AntOps = ant.OpsPerSecond()
	}
	return pt, nil
}

// WriteRDMATable renders the figure the `figures -fig rdma` command
// prints: goodput and stage shares per data path, solo and co-run.
func WriteRDMATable(w io.Writer, pts []RDMAPoint) error {
	if _, err := fmt.Fprintf(w, "%-11s %-6s %8s %10s %9s %8s %8s %8s %8s %12s\n",
		"datapath", "corun", "reqs", "rps", "tx(Gbps)", "p99(us)",
		"copy%", "bounce%", "rdma%", "wqe/doorbell"); err != nil {
		return err
	}
	for _, p := range pts {
		co := "solo"
		if p.Corun {
			co = "+mcf"
		}
		if _, err := fmt.Fprintf(w, "%-11s %-6s %8d %10.0f %9.2f %8.1f %8.1f %8.1f %8.1f %12.2f\n",
			p.Label, co, p.Requests, p.RPS, p.TxGbps,
			float64(p.P99Ps)/float64(sim.Us),
			p.CopyPct, p.BouncePct, p.RDMAPct, p.WQEPerDoorbell); err != nil {
			return err
		}
	}
	return nil
}
