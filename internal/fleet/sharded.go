// Sharded single-run parallelism: a Sharded cluster partitions one
// serving simulation across a sim.ShardedEngine so a single run uses
// every core (ROADMAP item 1). Shard 0 is the NIC/client front-end — the
// closed-loop generator and the dispatch fabric; shards 1..K each own a
// complete, disjoint sub-system: RanksPerShard SmartDIMM ranks behind
// their own memory controllers, LLC slice, drivers, per-shard fleet
// backend, server worker pool, RNG stream, fault injector, and tracer.
//
// The only cross-shard interaction is the request/response exchange with
// the front-end, which crosses shards through ShardedEngine.Send at the
// dispatch latency — the one-way NIC wire latency, and therefore the
// cluster's conservative lookahead window; DeriveDispatchPs derives it
// from the calibration parameters (half the in-rack RTT) floored at the
// slowest-resolving cross-domain latencies the model carries (the
// memory controller's command/ALERT round trip, the fleet's doorbell
// batch overhead), so shrinking the model's latencies can never silently
// break the conservative contract.
//
// Determinism: shard-local state is only ever touched by shard-local
// events, per-shard telemetry/fault/RNG streams are independent, and the
// engine's barrier merge is ordered (ps, shard, seq) — so traces,
// metrics dumps, and reports are byte-identical for any ExecWorkers and
// GOMAXPROCS setting (the shard determinism gates in ci.sh compare
// exactly this).
package fleet

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/memctrl"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wrkgen"
)

// ShardedConfig assembles a sharded serving cluster.
type ShardedConfig struct {
	// Shards is the number of server shards (each with its own
	// sub-system); the NIC/client front-end adds one more engine shard.
	Shards int
	// RanksPerShard installs this many SmartDIMM ranks per shard behind
	// a per-shard fleet backend. Zero selects 1.
	RanksPerShard int
	// Policy is the per-shard fleet placement policy (default rr).
	Policy Policy
	// Workers is the per-shard server worker count (default 10).
	Workers int
	// MsgSize and Connections describe the workload; connections are
	// partitioned round-robin across shards (connection c lives on shard
	// c mod Shards), so Connections must be >= Shards.
	MsgSize     int
	Connections int
	FileKind    corpus.Kind
	Mode        server.Mode // zero value (PlainHTTP) is rejected; use HTTPSMode/CompressedHTTP
	Seed        int64

	// LookaheadPs is the conservative window; zero selects the dispatch
	// latency (DeriveDispatchPs of Params). It must not exceed that
	// latency — Send rejects shorter crossings.
	LookaheadPs int64
	// ExecWorkers caps parallel epoch execution (ShardedEngine.Workers):
	// 0 = GOMAXPROCS, 1 = the serial reference schedule.
	ExecWorkers int

	// Params/LLCBytes/LLCWays configure each sub-system; zero values
	// select the KPI-bench defaults (2MB 8-way LLC slice per shard).
	// Every shard simulates one dram.MediumGeometry rank set.
	Params   *sim.Params
	LLCBytes int
	LLCWays  int

	// Trace threads a per-shard tracer through every sub-system (and the
	// front-end); MergedTrace folds them into one stream after the run.
	Trace bool
	// Faults, when non-nil, is called once per server shard to build
	// that shard's fault injector (nil return leaves the shard clean).
	Faults func(shard int) *fault.Injector
}

// Sharded is the assembled cluster.
type Sharded struct {
	cfg     ShardedConfig
	dispPs  int64 // one-way front-end<->shard latency (DeriveDispatchPs)
	eng     *sim.ShardedEngine
	systems []*sim.System
	fleets  []*Fleet
	servers []*server.Server
	gen     *wrkgen.Generator
	tracers []*telemetry.Tracer // index 0 = front-end, 1+s = shard s
	perConn []int               // connection count per shard

	dispTrack  telemetry.TrackID // fe-tracer lane for fabric spans
	dispatched uint64
	// crossings holds finished request crossings for reuse; only shard 0
	// events touch it.
	crossings []*crossing
}

// crossing is one request's round trip between the front-end and its
// home shard. Its callbacks are bound once, so a reused crossing
// allocates nothing: submit runs on the home shard, respond there when
// the server completes, finish back on the front-end.
type crossing struct {
	srv                     *server.Server
	shard, local            int
	id                      uint64
	done                    func()
	submit, respond, finish func()
}

// ShardedMetrics carries the aggregated and per-shard measurements of
// one Run. Aggregation happens in shard order with deterministic
// histogram merges, so a metrics dump is byte-stable.
type ShardedMetrics struct {
	Agg      server.Metrics
	PerShard []server.Metrics
	// Epochs/Sent/Processed summarize the engine's sharded execution.
	Epochs    uint64
	SentMsgs  uint64
	Processed uint64
}

// DeriveDispatchPs returns the one-way front-end->shard dispatch
// latency used as the conservative lookahead window: half the in-rack
// RTT, floored at the memory controller's command/ALERT round trip and
// the fleet's doorbell batch overhead — the slowest cross-domain
// latencies inside a shard's lookahead horizon. See DESIGN.md §14.
func DeriveDispatchPs(p sim.Params) int64 {
	d := int64(p.RTTUs * float64(sim.Us) / 2)
	if floor := memctrl.CommandRoundTripPs(dram.DDR4_3200()); d < floor {
		d = floor
	}
	if floor := int64(120 * sim.Ns); d < floor { // default doorbell batch overhead
		d = floor
	}
	return d
}

// NewSharded builds the cluster: K+1 engine shards, K sub-systems, K
// servers, one generator.
func NewSharded(cfg ShardedConfig) (*Sharded, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("fleet: sharded cluster needs at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.Connections < cfg.Shards {
		return nil, fmt.Errorf("fleet: %d connections across %d shards leaves an empty server", cfg.Connections, cfg.Shards)
	}
	if cfg.MsgSize <= 0 {
		return nil, fmt.Errorf("fleet: sharded cluster needs a message size")
	}
	if cfg.Mode == server.PlainHTTP {
		return nil, fmt.Errorf("fleet: sharded cluster serves ULP modes (https or http+deflate)")
	}
	if cfg.RanksPerShard <= 0 {
		cfg.RanksPerShard = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 10
	}
	params := sim.DefaultParams()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	dispPs := DeriveDispatchPs(params)
	if cfg.LookaheadPs <= 0 {
		cfg.LookaheadPs = dispPs
	}
	if cfg.LookaheadPs > dispPs {
		return nil, fmt.Errorf("fleet: lookahead %dps exceeds dispatch latency %dps; the window must be a lower bound",
			cfg.LookaheadPs, dispPs)
	}
	// The dispatch hops already charge a full RTT per request, so the
	// client thinks for whatever of the RTT they leave over.
	var thinkPs int64
	if rtt := int64(params.RTTUs * float64(sim.Us)); rtt > 2*dispPs {
		thinkPs = rtt - 2*dispPs
	}
	if cfg.LLCBytes == 0 {
		cfg.LLCBytes, cfg.LLCWays = 2<<20, 8
	}

	sc := &Sharded{cfg: cfg, dispPs: dispPs}
	sc.eng = sim.NewShardedEngine(cfg.Shards+1, cfg.LookaheadPs)
	sc.eng.Workers = cfg.ExecWorkers
	sc.tracers = make([]*telemetry.Tracer, cfg.Shards+1)
	if cfg.Trace {
		sc.tracers[0] = telemetry.New()
		sc.eng.Shard(0).Tracer = sc.tracers[0]
		sc.dispTrack = sc.tracers[0].Track("dispatch")
	}
	sc.perConn = make([]int, cfg.Shards)
	for c := 0; c < cfg.Connections; c++ {
		sc.perConn[c%cfg.Shards]++
	}
	for s := 0; s < cfg.Shards; s++ {
		var tracer *telemetry.Tracer
		if cfg.Trace {
			tracer = telemetry.New()
			sc.tracers[1+s] = tracer
		}
		var inj *fault.Injector
		if cfg.Faults != nil {
			inj = cfg.Faults(s)
		}
		sys, err := sim.NewSystem(sim.SystemConfig{
			Params: params, LLCBytes: cfg.LLCBytes, LLCWays: cfg.LLCWays,
			Geometry:       dram.MediumGeometry(),
			WithSmartDIMM:  true,
			SmartDIMMRanks: cfg.RanksPerShard,
			Tracer:         tracer,
			Faults:         inj,
			Engine:         sc.eng.Shard(1 + s),
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d system: %w", s, err)
		}
		fl, err := New(Config{Sys: sys, Policy: cfg.Policy})
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d fleet: %w", s, err)
		}
		// Distinct per-shard seeds keep payloads and page-cache draws
		// independent streams, like distinct servers in a rack.
		srv, err := server.New(sys.Engine, server.Config{
			Sys: sys, Backend: fl, Mode: cfg.Mode, Workers: cfg.Workers,
			MsgSize: cfg.MsgSize, Connections: sc.perConn[s], FileKind: cfg.FileKind,
			Seed: cfg.Seed + int64(s)*100_003,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d server: %w", s, err)
		}
		sc.systems = append(sc.systems, sys)
		sc.fleets = append(sc.fleets, fl)
		sc.servers = append(sc.servers, srv)
	}
	sc.gen = wrkgen.New(sc.eng.Shard(0), sc, wrkgen.Config{
		Connections: cfg.Connections,
		ThinkPs:     thinkPs,
	})
	return sc, nil
}

// Submit implements wrkgen.Target on the front-end shard: the request
// crosses to its connection's home shard over the dispatch fabric, and
// the completion crosses back — each hop one dispatch latency, together the
// wire RTT every request pays. With tracing on, the front-end wraps the
// whole crossing in a "creq" async lifecycle and records each fabric
// hop as a "dispatch" span, so the critical-path analyzer can attribute
// dispatch-fabric wait across shards (profile.Options.ShardAware). Both
// the forward emission and the retroactive return-hop emission run on
// shard 0 events, keeping the fe tracer single-writer.
func (sc *Sharded) Submit(connID int, done func()) {
	var x *crossing
	if n := len(sc.crossings); n > 0 {
		x = sc.crossings[n-1]
		sc.crossings = sc.crossings[:n-1]
	} else {
		x = sc.newCrossing()
	}
	x.shard, x.local, x.done = connID%sc.cfg.Shards, connID/sc.cfg.Shards, done
	x.srv = sc.servers[x.shard]
	sc.dispatched++
	x.id = sc.dispatched
	fe := sc.eng.Shard(0)
	sc.tracers[0].AsyncBegin(sc.dispTrack, "creq", x.id, fe.Now())
	sc.tracers[0].Span(sc.dispTrack, "dispatch", fe.Now(), sc.dispPs)
	sc.eng.Send(0, 1+x.shard, sc.dispPs, x.submit)
}

// newCrossing makes a crossing with its callbacks bound.
func (sc *Sharded) newCrossing() *crossing {
	x := &crossing{}
	x.submit = func() { x.srv.Submit(x.local, x.respond) }
	x.respond = func() { sc.eng.Send(1+x.shard, 0, sc.dispPs, x.finish) }
	x.finish = func() {
		tr, fe := sc.tracers[0], sc.eng.Shard(0)
		tr.Span(sc.dispTrack, "dispatch", fe.Now()-sc.dispPs, sc.dispPs)
		tr.AsyncEnd(sc.dispTrack, "creq", x.id, fe.Now())
		done := x.done
		x.done = nil
		sc.crossings = append(sc.crossings, x)
		done()
	}
	return x
}

// Engine exposes the sharded engine (shard 0 is the front-end).
func (sc *Sharded) Engine() *sim.ShardedEngine { return sc.eng }

// Generator exposes the front-end's closed-loop generator.
func (sc *Sharded) Generator() *wrkgen.Generator { return sc.gen }

// Servers exposes the per-shard server models in shard order.
func (sc *Sharded) Servers() []*server.Server { return sc.servers }

// Systems exposes the per-shard sub-systems in shard order.
func (sc *Sharded) Systems() []*sim.System { return sc.systems }

// Fleets exposes the per-shard fleet backends in shard order.
func (sc *Sharded) Fleets() []*Fleet { return sc.fleets }

// Run drives the standard measurement protocol: warm up, snapshot every
// shard's counters, measure, aggregate. It returns the aggregated and
// per-shard metrics; a request-processing error on any shard fails the
// run (shard order picks the reported one deterministically).
func (sc *Sharded) Run(warmupPs, measurePs int64) (ShardedMetrics, error) {
	sc.gen.Start()
	sc.eng.RunUntil(warmupPs)
	for _, srv := range sc.servers {
		srv.BeginMeasurement()
	}
	sc.gen.BeginMeasurement()
	sc.eng.RunUntil(warmupPs + measurePs)
	var sm ShardedMetrics
	for s, srv := range sc.servers {
		if err := srv.LastError(); err != nil {
			return sm, fmt.Errorf("fleet: shard %d: %w", s, err)
		}
		sm.PerShard = append(sm.PerShard, srv.Collect())
	}
	sm.Agg = sc.aggregate(sm.PerShard)
	sm.Epochs = sc.eng.Epochs()
	sm.SentMsgs = sc.eng.Sent()
	sm.Processed = sc.eng.Processed()
	return sm, nil
}

// aggregate folds per-shard metrics into cluster totals in shard order.
func (sc *Sharded) aggregate(per []server.Metrics) server.Metrics {
	var agg server.Metrics
	agg.Latency.SetBounded()
	var latWeight int64
	for i := range per {
		m := &per[i]
		agg.Requests += m.Requests
		agg.CPUBusyPs += m.CPUBusyPs
		agg.DeviceBusyPs += m.DeviceBusyPs
		agg.MemBytes += m.MemBytes
		agg.TXBytes += m.TXBytes
		agg.Errors += m.Errors
		if m.ElapsedPs > agg.ElapsedPs {
			agg.ElapsedPs = m.ElapsedPs
		}
		for s := range m.StagePs {
			agg.StagePs[s] += m.StagePs[s]
		}
		latWeight += m.MeanLatPs * int64(m.Requests)
		agg.Latency.Merge(&m.Latency)
	}
	if agg.ElapsedPs > 0 {
		agg.RPS = float64(agg.Requests) / (float64(agg.ElapsedPs) * 1e-12)
		agg.CPUUtil = float64(agg.CPUBusyPs) /
			(float64(len(per)*sc.cfg.Workers) * float64(agg.ElapsedPs))
		agg.MemBWGBps = float64(agg.MemBytes) / (float64(agg.ElapsedPs) * 1e-12) / 1e9
	}
	if agg.Requests > 0 {
		agg.MeanLatPs = latWeight / int64(agg.Requests)
	}
	return agg
}

// MergedTrace folds the per-shard tracers into one deterministic stream
// ("fe/" for the front-end, "s<N>/" per shard); nil when Trace was off.
func (sc *Sharded) MergedTrace() *telemetry.Tracer {
	if !sc.cfg.Trace {
		return nil
	}
	prefixes := make([]string, len(sc.tracers))
	prefixes[0] = "fe/"
	for s := 1; s < len(prefixes); s++ {
		prefixes[s] = fmt.Sprintf("s%d/", s-1)
	}
	return telemetry.MergeShards(prefixes, sc.tracers)
}

// RegisterMetrics registers the cluster topology ("sim.shards", engine
// aggregates) plus every shard's sub-system aggregates under
// "shard<N>.*" — the whole cluster, not shard 0 alone.
func (sc *Sharded) RegisterMetrics(reg *telemetry.Registry) {
	reg.Register("sim", telemetry.CollectorFunc(func(emit func(telemetry.Sample)) {
		emit(telemetry.Sample{Name: "shards", Value: float64(len(sc.systems))})
		emit(telemetry.Sample{Name: "lookahead_ps", Value: float64(sc.eng.Lookahead())})
		emit(telemetry.Sample{Name: "epochs", Value: float64(sc.eng.Epochs())})
		emit(telemetry.Sample{Name: "cross_shard_msgs", Value: float64(sc.eng.Sent())})
		emit(telemetry.Sample{Name: "events", Value: float64(sc.eng.Processed())})
		emit(telemetry.Sample{Name: "dispatched", Value: float64(sc.dispatched)})
	}))
	for s, sys := range sc.systems {
		sys.RegisterMetricsPrefixed(reg, fmt.Sprintf("shard%d", s))
		reg.Register(fmt.Sprintf("shard%d.fleet", s), sc.fleets[s].Totals())
	}
}
