// Package cluster is the scale-out tier on top of the single-server
// SmartDIMM model (ROADMAP item 2): N simulated server nodes — each
// owning a complete sub-system (SmartDIMM ranks, memory hierarchy,
// fleet backend, server worker pool) — joined by an inter-node fabric
// and running primary-backup replication with quorum-acked writes,
// primary lease reads, and backup promotion on failure detection.
//
// The cluster composes with the sharded PDES engine: shard 0 carries
// the client router, shard 1+i carries node i, and every cross-node
// byte crosses shards through the fabric's Send at >= the propagation
// delay, which doubles as the conservative lookahead window. Node-level
// fault domains (kill / drain / rejoin, network partitions) are driven
// by seeded internal/fault plans and god-mode control messages, and the
// recorded client history plus final replica state feed the
// linearizability checker in check.go. See DESIGN.md §15.
package cluster

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/corpus"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The client, replication and fabric constants. Safety rests on two of
// their relations, which TestClusterTimerSafety pins: leasePs must not
// exceed electionPs — the minimum election delay is what makes the read
// lease safe — and heartbeatPs must cover the fabric round trip
// (2·propPs), or heartbeats flood the wire.
const (
	// writeFrac is each client operation's probability of being a write.
	writeFrac = 0.5

	// Client pacing and failure handling.
	thinkPs     = 20 * sim.Us // delay between an ack and the next op
	opTimeoutPs = 2 * sim.Ms  // per-attempt timeout
	retryPs     = 30 * sim.Us // backoff after a redirect

	// Replication timers.
	heartbeatPs = 60 * sim.Us  // leader heartbeat period
	electionPs  = 400 * sim.Us // base election timeout
	leasePs     = electionPs   // primary read lease

	// The inter-node fabric.
	netGbps     = 100          // per-link line rate
	propPs      = 2 * sim.Us   // one-way propagation; the lookahead window
	netRTOPs    = 300 * sim.Us // retransmission backoff after a drop
	netMaxTries = 64           // attempts per message before it expires
)

// Config assembles a cluster.
type Config struct {
	// Nodes is the server-node count (default 3). There is one replica
	// group per node, each on min(3, Nodes) replicas: group g places on
	// nodes {g, g+1, ..} mod Nodes.
	Nodes int

	// Conns is the client connection count (default 2*Nodes); key k
	// belongs to group k mod Nodes, and connection c writes only key c.
	Conns int

	// MsgSize / Mode / Workers / NodeConns / FileKind shape each node's
	// local serving path (the node's server + fleet + SmartDIMM system).
	MsgSize   int
	Mode      server.Mode
	Workers   int
	NodeConns int
	FileKind  corpus.Kind

	Seed int64

	// NetFaults builds the per-endpoint net-plane injector (endpoint 0
	// is the router, 1+i node i). It may be nil.
	NetFaults func(endpoint int) *fault.Injector

	// Trace gives every shard a tracer, merged by MergedTrace.
	Trace bool
	// ExecWorkers caps parallel epoch execution (0 = GOMAXPROCS,
	// 1 = the serial reference schedule).
	ExecWorkers int

	// Params/LLCBytes/LLCWays configure each node's sub-system (zero
	// values select the same defaults as fleet.ShardedConfig).
	Params   *sim.Params
	LLCBytes int
	LLCWays  int
}

// Cluster is the assembled tier.
type Cluster struct {
	cfg     Config
	se      *sim.ShardedEngine
	net     *Net
	rt      *router
	nodes   []*node
	groups  [][]int // group -> member node ids, ascending
	tracers []*telemetry.Tracer
	netInjs []*fault.Injector
}

// New builds the cluster: Nodes+1 engine shards, one sub-system per
// node, the fabric, the replica groups, and the client router.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 2 * cfg.Nodes
	}
	if cfg.MsgSize <= 0 {
		cfg.MsgSize = 2048
	}
	if cfg.Mode == server.PlainHTTP {
		cfg.Mode = server.HTTPSMode
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.NodeConns <= 0 {
		cfg.NodeConns = 4
	}
	params := sim.DefaultParams()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	if cfg.LLCBytes == 0 {
		cfg.LLCBytes, cfg.LLCWays = 2<<20, 8
	}

	c := &Cluster{cfg: cfg}
	c.se = sim.NewShardedEngine(cfg.Nodes+1, propPs)
	c.se.Workers = cfg.ExecWorkers

	c.tracers = make([]*telemetry.Tracer, cfg.Nodes+1)
	c.netInjs = make([]*fault.Injector, cfg.Nodes+1)
	for e := 0; e <= cfg.Nodes; e++ {
		if cfg.Trace {
			c.tracers[e] = telemetry.New()
			c.se.Shard(e).Tracer = c.tracers[e]
		}
		if cfg.NetFaults != nil {
			c.netInjs[e] = cfg.NetFaults(e)
		}
		// Net-plane fault firings carry picosecond timestamps, so they
		// land on the trace directly (the system injector's OnFire hook
		// scales DRAM cycles instead — that is why the planes must keep
		// separate injectors).
		if tr, inj := c.tracers[e], c.netInjs[e]; tr != nil && inj != nil {
			ft := tr.Track("faults")
			inj.OnFire = func(site string, _, now int64) {
				tr.Instant(ft, site, now)
			}
		}
	}
	c.net = newNet(c.se, c.netInjs, c.tracers)

	for i := 0; i < cfg.Nodes; i++ {
		tracer := c.tracers[1+i]
		sys, err := sim.NewSystem(sim.SystemConfig{
			Params: params, LLCBytes: cfg.LLCBytes, LLCWays: cfg.LLCWays,
			Geometry:       dram.MediumGeometry(),
			WithSmartDIMM:  true,
			SmartDIMMRanks: 1,
			Tracer:         tracer,
			Engine:         c.se.Shard(1 + i),
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d system: %w", i, err)
		}
		fl, err := fleet.New(fleet.Config{Sys: sys})
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d fleet: %w", i, err)
		}
		srv, err := server.New(sys.Engine, server.Config{
			Sys: sys, Backend: fl, Mode: cfg.Mode, Workers: cfg.Workers,
			MsgSize: cfg.MsgSize, Connections: cfg.NodeConns, FileKind: cfg.FileKind,
			Seed: cfg.Seed + int64(i)*100_003,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d server: %w", i, err)
		}
		n := &node{
			c: c, id: i, addr: 1 + i,
			eng: c.se.Shard(1 + i), sys: sys, fl: fl, srv: srv,
			tr:   tracer,
			reps: map[int]*replica{},
		}
		n.replTrack = tracer.Track("repl")
		n.ctlTrack = tracer.Track("ctl")
		c.nodes = append(c.nodes, n)
	}

	// Replica placement: group g on rf consecutive nodes starting at
	// g mod Nodes, members listed ascending.
	rf := min(3, cfg.Nodes)
	for g := 0; g < cfg.Nodes; g++ {
		members := make([]int, 0, rf)
		for j := 0; j < rf; j++ {
			members = append(members, (g+j)%cfg.Nodes)
		}
		slices.Sort(members)
		c.groups = append(c.groups, members)
	}
	for g, members := range c.groups {
		for pos, id := range members {
			n := c.nodes[id]
			r := &replica{
				n: n, group: g, members: members, selfPos: pos,
				leader:  -1,
				applied: map[int]appliedVal{},
				widIdx:  map[uint64]int{},
				pending: map[int][]pendingAck{},
				rng:     rand.New(rand.NewSource(cfg.Seed ^ int64(g)*7919 ^ int64(id)*1_000_003)),
			}
			n.reps[g] = r
			n.repList = append(n.repList, r)
		}
	}
	// Arm the failure detectors (setup-time scheduling is legal on every
	// shard engine).
	for _, n := range c.nodes {
		for _, r := range n.repList {
			d := r.electionDelay()
			r.electionAt = d
			n.eng.After(d, r.tickElection)
		}
	}
	c.rt = newRouter(c)
	return c, nil
}

// Net exposes the inter-node fabric.
func (c *Cluster) Net() *Net { return c.net }

// History returns the recorded client operation history (live slice;
// read it only when the simulation is not running).
func (c *Cluster) History() []Op { return c.rt.history }

// Start opens the client loops.
func (c *Cluster) Start() { c.rt.Start() }

// RunUntil advances the whole cluster to the deadline.
func (c *Cluster) RunUntil(deadlinePs int64) uint64 { return c.se.RunUntil(deadlinePs) }

// Quiesce stops the clients and advances settlePs of simulated time so
// replication settles: in-flight operations drain or time out,
// primaries catch followers up, and commit points propagate on
// heartbeats. Run it (after the fault schedule has healed) before
// Check, whose durability invariant inspects every member's committed
// prefix.
func (c *Cluster) Quiesce(settlePs int64) {
	c.rt.stopped = true
	c.se.RunUntil(c.se.Now() + settlePs)
}

// BeginMeasurement snapshots router and per-node server counters.
func (c *Cluster) BeginMeasurement() {
	c.rt.BeginMeasurement()
	for _, n := range c.nodes {
		n.srv.BeginMeasurement()
	}
}

// --- fault-domain control ---------------------------------------------------

// KillAt schedules a node kill at atPs: the node freezes (drops every
// message and timer action) but keeps its durable replication state, as
// a crashed process with an intact log would.
func (c *Cluster) KillAt(nodeID int, atPs int64) {
	n := c.nodes[nodeID]
	c.se.Shard(0).At(atPs, func() {
		c.net.SendControl(0, n.addr, ctlBytes, n.onKill)
	})
}

// RejoinAt schedules a killed node's restart: it rejoins as a follower
// and catches up from the current primaries.
func (c *Cluster) RejoinAt(nodeID int, atPs int64) {
	n := c.nodes[nodeID]
	c.se.Shard(0).At(atPs, func() {
		c.net.SendControl(0, n.addr, ctlBytes, n.onRejoin)
	})
}

// DrainAt schedules a graceful drain: the node stops serving clients
// and hands its leaderships to the best-caught-up backups.
func (c *Cluster) DrainAt(nodeID int, atPs int64) {
	n := c.nodes[nodeID]
	c.se.Shard(0).At(atPs, func() {
		c.net.SendControl(0, n.addr, ctlBytes, n.onDrain)
	})
}

// UndrainAt reverses a drain (the node serves again once re-elected).
func (c *Cluster) UndrainAt(nodeID int, atPs int64) {
	n := c.nodes[nodeID]
	c.se.Shard(0).At(atPs, func() {
		c.net.SendControl(0, n.addr, ctlBytes, n.onUndrain)
	})
}

// --- measurement ------------------------------------------------------------

// Metrics aggregates one measured window.
type Metrics struct {
	Ops         uint64 // acked client operations in the window
	AckedWrites uint64
	AckedReads  uint64
	OpsPerSec   float64
	MeanLatPs   int64 // mean ack latency over the window's acked ops

	Timeouts   uint64 // cumulative router-side counters
	Retries    uint64
	Redirects  uint64
	Promotions uint64 // leader elections won across all nodes
	Net        NetTotals

	PerNode []server.Metrics

	Epochs    uint64
	SentMsgs  uint64
	Processed uint64
}

// Collect implements telemetry.Collector.
func (m Metrics) Collect(emit func(telemetry.Sample)) {
	emit(telemetry.Sample{Name: "ops", Value: float64(m.Ops)})
	emit(telemetry.Sample{Name: "acked_writes", Value: float64(m.AckedWrites)})
	emit(telemetry.Sample{Name: "acked_reads", Value: float64(m.AckedReads)})
	emit(telemetry.Sample{Name: "ops_per_sec", Value: m.OpsPerSec})
	emit(telemetry.Sample{Name: "mean_lat_ps", Value: float64(m.MeanLatPs)})
	emit(telemetry.Sample{Name: "timeouts", Value: float64(m.Timeouts)})
	emit(telemetry.Sample{Name: "retries", Value: float64(m.Retries)})
	emit(telemetry.Sample{Name: "redirects", Value: float64(m.Redirects)})
	emit(telemetry.Sample{Name: "promotions", Value: float64(m.Promotions)})
}

// Run drives the standard protocol: start the clients, warm up, measure,
// collect. A request-processing error on any node fails the run (node
// order picks the reported one deterministically).
func (c *Cluster) Run(warmupPs, measurePs int64) (Metrics, error) {
	c.Start()
	c.se.RunUntil(warmupPs)
	c.BeginMeasurement()
	c.se.RunUntil(warmupPs + measurePs)
	return c.Collect()
}

// Collect gathers metrics for the window since BeginMeasurement.
func (c *Cluster) Collect() (Metrics, error) {
	var m Metrics
	for i, n := range c.nodes {
		if err := n.srv.LastError(); err != nil {
			return m, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		m.PerNode = append(m.PerNode, n.srv.Collect())
		m.Promotions += n.promotions
	}
	rt := c.rt
	m.Ops, m.AckedWrites, m.AckedReads = rt.acked, rt.ackedWrites, rt.ackedReads
	m.Timeouts, m.Retries, m.Redirects = rt.timeouts, rt.retries, rt.redirects
	elapsed := rt.eng.Now() - rt.measureFrom
	if elapsed > 0 {
		m.OpsPerSec = float64(m.Ops) / (float64(elapsed) * 1e-12)
	}
	var latSum int64
	var latN int64
	for i := range rt.history {
		op := &rt.history[i]
		if op.AckPs >= rt.measureFrom && op.AckPs >= 0 && rt.measuring {
			latSum += op.AckPs - op.InvokePs
			latN++
		}
	}
	if latN > 0 {
		m.MeanLatPs = latSum / latN
	}
	m.Net = c.net.Totals()
	m.Epochs = c.se.Epochs()
	m.SentMsgs = c.se.Sent()
	m.Processed = c.se.Processed()
	return m, nil
}

// MergedTrace folds the per-shard tracers into one deterministic stream
// ("rt/" for the router, "n<i>/" per node); nil when Trace was off.
func (c *Cluster) MergedTrace() *telemetry.Tracer {
	if !c.cfg.Trace {
		return nil
	}
	prefixes := make([]string, len(c.tracers))
	prefixes[0] = "rt/"
	for i := 1; i < len(prefixes); i++ {
		prefixes[i] = fmt.Sprintf("n%d/", i-1)
	}
	return telemetry.MergeShards(prefixes, c.tracers)
}
