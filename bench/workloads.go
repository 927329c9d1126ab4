package main

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/dram"
	"repro/internal/fleet"
	"repro/internal/offload"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/wrkgen"
)

// spec is one benchmark workload: a serving configuration, its traffic
// and its simulated windows. Every workload is built from the public
// constructors the CLIs and the pinned KPI scenarios use.
type spec struct {
	name      string
	mode      server.Mode
	file      corpus.Kind
	msg       int // response body bytes; the kv source sets its own
	conns     int
	workers   int
	ranks     int     // fleet ranks per system; 0 serves from one SmartDIMM
	shards    int     // > 0 runs fleet.NewSharded with ranks ranks per shard
	rps       float64 // > 0 replays an open-loop KV arrival trace at this rate
	warmupPs  int64
	measurePs int64
}

// The workloads isolate different layers; README.md says why each is
// here. Their windows size one repetition at about a second of host time,
// so a run's medians are over many repetitions.
var workloads = []spec{
	{name: "tls4k-fleet4", mode: server.HTTPSMode, file: corpus.Text, msg: 4096,
		conns: 128, workers: 10, ranks: 4, warmupPs: sim.Ms, measurePs: 3 * sim.Ms / 2},
	{name: "deflate4k-dimm", mode: server.CompressedHTTP, file: corpus.HTML, msg: 4096,
		conns: 64, workers: 10, warmupPs: sim.Ms, measurePs: 3 * sim.Ms},
	{name: "kv-zipf-open", mode: server.HTTPSMode, file: corpus.Text,
		conns: 64, workers: 16, ranks: 4, rps: 1.8e6, warmupPs: sim.Ms, measurePs: 4 * sim.Ms},
	{name: "tls4k-sharded8", mode: server.HTTPSMode, file: corpus.Text, msg: 4096,
		conns: 512, workers: 10, ranks: 1, shards: 8, warmupPs: sim.Ms / 2, measurePs: sim.Ms / 2},
}

func lookup(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// kvDrainPs is the settle window after the last open-loop arrival, the
// one the pinned kv-4rank scenario uses.
const kvDrainPs = sim.Ms

// kvSeed seeds the KV source, as in the pinned kv-4rank scenario.
const kvSeed = 1

// benchGeometry is the per-rank DRAM geometry of the pinned KPI scenarios.
var benchGeometry = dram.Geometry{Ranks: 1, BankGroups: 4, BanksPerBG: 4, Rows: 4096, ColsPerRow: 128}

// hooks decorate the public seams a run is built from; a nil hook leaves
// its seam as built. The sharded cluster builds its servers internally,
// so only target reaches it.
type hooks struct {
	backend func(offload.Backend, *sim.System) offload.Backend
	source  func(server.WorkloadSource) server.WorkloadSource
	target  func(wrkgen.Target) wrkgen.Target
}

// instance is one constructed workload, ready to run.
type instance struct {
	w       spec
	params  sim.Params
	client  *client
	systems []*sim.System
	servers []*server.Server
	fleets  []*fleet.Fleet
	dimm    *offload.SmartDIMM // the single-device backend (ranks == 0)
	closed  *wrkgen.Generator
	open    *wrkgen.OpenLoop
	eng     engine             // *sim.Engine, or the sharded one
	sharded *sim.ShardedEngine // sharded workloads, for the epoch counters
}

// engine is what the bench drives a run through.
type engine interface {
	RunUntil(deadlinePs int64) uint64
	Processed() uint64
}

// build constructs w for seed. execWorkers sets the sharded engine's epoch
// parallelism (0 = GOMAXPROCS, 1 = the serial reference).
func build(w spec, seed int64, hk hooks, execWorkers int) (*instance, error) {
	in := &instance{w: w, params: sim.DefaultParams()}
	var err error
	if w.shards > 0 {
		err = in.buildSharded(seed, hk, execWorkers)
	} else {
		err = in.buildSerial(seed, hk)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return in, nil
}

func (in *instance) buildSerial(seed int64, hk hooks) error {
	w := in.w
	sys, err := sim.NewSystem(sim.SystemConfig{
		Params: in.params, LLCBytes: 2 << 20, LLCWays: 8, Geometry: benchGeometry,
		WithSmartDIMM: true, SmartDIMMRanks: w.ranks,
	})
	if err != nil {
		return err
	}
	in.eng, in.systems = sys.Engine, []*sim.System{sys}
	var backend offload.Backend
	if w.ranks > 0 {
		fl, err := fleet.New(fleet.Config{Sys: sys, Policy: fleet.RoundRobin})
		if err != nil {
			return err
		}
		in.fleets, backend = []*fleet.Fleet{fl}, fl
	} else {
		in.dimm = &offload.SmartDIMM{Sys: sys}
		backend = in.dimm
	}
	if hk.backend != nil {
		backend = hk.backend(backend, sys)
	}
	msg := w.msg
	var src server.WorkloadSource
	if w.rps > 0 {
		// The KV store (each key's value size) and the per-connection key
		// streams are the pinned kv-4rank ones whatever the seed: drawn
		// from the seed, the hot keys' sizes moved host time per request
		// by ±20% between seeds, more than a bound can absorb. The seed
		// still draws the arrival trace, payload bytes and page-cache hits.
		kv, err := workload.NewKV(workload.KVConfig{ZipfS: 0.99, Seed: kvSeed})
		if err != nil {
			return err
		}
		src, msg = kv, kv.MaxPayload()
		if hk.source != nil {
			src = hk.source(src)
		}
	}
	srv, err := server.New(sys.Engine, server.Config{
		Sys: sys, Backend: backend, Mode: w.mode, Workers: w.workers,
		MsgSize: msg, Connections: w.conns, FileKind: w.file, Seed: seed, Source: src,
	})
	if err != nil {
		return err
	}
	in.servers = []*server.Server{srv}
	in.client = &client{next: srv, now: sys.Engine.Now, fromPs: w.warmupPs}
	target := hk.wrapTarget(in.client)
	if w.rps == 0 {
		in.closed = wrkgen.New(sys.Engine, target, wrkgen.Config{
			Connections: w.conns, ThinkPs: int64(in.params.RTTUs * float64(sim.Us)),
		})
		return nil
	}
	trace, err := wrkgen.GenArrivals(wrkgen.ArrivalConfig{
		Streams: 4, Connections: w.conns, BaseRPS: w.rps, Seed: seed,
		HorizonPs: w.warmupPs + w.measurePs,
	})
	if err != nil {
		return err
	}
	in.open = wrkgen.NewOpenLoop(sys.Engine, target, trace, nil)
	return nil
}

func (in *instance) buildSharded(seed int64, hk hooks, execWorkers int) error {
	w := in.w
	sc, err := fleet.NewSharded(fleet.ShardedConfig{
		Shards: w.shards, RanksPerShard: w.ranks, Policy: fleet.RoundRobin,
		Workers: w.workers, MsgSize: w.msg, Connections: w.conns,
		FileKind: w.file, Mode: w.mode, Seed: seed,
		ExecWorkers: execWorkers, Params: &in.params,
	})
	if err != nil {
		return err
	}
	in.sharded, in.systems, in.servers, in.fleets = sc.Engine(), sc.Systems(), sc.Servers(), sc.Fleets()
	in.eng = in.sharded
	// The bench drives the cluster through its public front-end Submit with
	// a generator of its own, so the client sees every request. The think
	// time is NewSharded's default: the dispatch hops already charge the RTT.
	fe := sc.Engine().Shard(0)
	think := int64(in.params.RTTUs*float64(sim.Us)) - 2*fleet.DeriveDispatchPs(in.params)
	if think < 0 {
		think = 0
	}
	in.client = &client{next: sc, now: fe.Now, fromPs: w.warmupPs}
	in.closed = wrkgen.New(fe, hk.wrapTarget(in.client), wrkgen.Config{Connections: w.conns, ThinkPs: think})
	return nil
}

func (hk hooks) wrapTarget(t wrkgen.Target) wrkgen.Target {
	if hk.target == nil {
		return t
	}
	return hk.target(t)
}

func (in *instance) start() {
	if in.open != nil {
		in.open.Start()
	} else {
		in.closed.Start()
	}
}

// beginMeasurement opens the measured window on every server and on the
// generator, in the order the pinned runners use.
func (in *instance) beginMeasurement() {
	for _, s := range in.servers {
		s.BeginMeasurement()
	}
	if in.open != nil {
		in.open.BeginMeasurement()
	} else {
		in.closed.BeginMeasurement()
	}
}

// run drives the pinned runners' measurement protocol: warm up, open the
// measured window, run to the horizon and, in the open loop, on through
// the drain window. It returns the open loop's requests in flight at the
// horizon. A non-nil recorder traces each RunUntil call.
func (in *instance) run(rec *recorder) (backlog int) {
	in.start()
	rec.runUntil(in, in.w.warmupPs)
	in.beginMeasurement()
	horizon := in.w.warmupPs + in.w.measurePs
	rec.runUntil(in, horizon)
	if in.open != nil {
		backlog = in.open.InFlight
		rec.runUntil(in, horizon+kvDrainPs)
	}
	return backlog
}

// client sits between the load generator and the server. It counts
// submissions and records each request's simulated latency as the client
// sees it, so the model's percentiles are exact rather than read off the
// server's log-bucketed histogram. In the open loop a request is submitted
// at its scheduled arrival (the simulated generator is never late), so the
// latency includes its queueing.
type client struct {
	next      wrkgen.Target
	now       func() int64
	fromPs    int64 // completions after this instant fall in the measured window
	submitted uint64
	lat       []float64 // ps
}

// Submit implements wrkgen.Target.
func (c *client) Submit(connID int, done func()) {
	c.submitted++
	at := c.now()
	c.next.Submit(connID, func() {
		if t := c.now(); t > c.fromPs {
			c.lat = append(c.lat, float64(t-at))
		}
		done()
	})
}

// model is the simulated server's KPIs over the measured window: a pure
// function of the workload and the seed.
type model struct {
	requests        uint64
	samples         int
	rps             float64
	p50us, p99us    float64
	cyclesPerByte   float64
	dramBytesPerReq float64
}

// collect reads the measured window's KPIs and the failed-request count
// off every server.
func (in *instance) collect() (model, uint64) {
	var req, tx, mem, errs uint64
	var cpuPs, elapsedPs int64
	for _, s := range in.servers {
		m := s.Collect()
		req, tx, mem, errs = req+m.Requests, tx+m.TXBytes, mem+m.MemBytes, errs+m.Errors
		cpuPs += m.CPUBusyPs
		elapsedPs = m.ElapsedPs
	}
	lat := in.client.lat
	md := model{requests: req, samples: len(lat),
		p50us: quantile(lat, 50) / 1e6, p99us: quantile(lat, 99) / 1e6}
	if elapsedPs > 0 {
		md.rps = float64(req) / (float64(elapsedPs) * 1e-12)
	}
	if tx > 0 {
		// ps -> cycles: cycles = ps * GHz / 1000.
		md.cyclesPerByte = float64(cpuPs) * in.params.CPUClockGHz / 1000 / float64(tx)
	}
	if req > 0 {
		md.dramBytesPerReq = float64(mem) / float64(req)
	}
	return md, errs
}

// counters are the layer counters the traced pass reports, summed over
// every system of an instance. They count from construction, whose
// payload staging is a few percent of a repetition's memory traffic.
type counters struct {
	llcAccesses, llcMisses        uint64
	rowHits, rowAccesses, drains  uint64
	compcpy, forceRecycles        uint64
	selfRecycles, linesFed        uint64
	primaryChunks, fallbackChunks uint64
	sheds, descriptors, batches   uint64
}

func (in *instance) counters() counters {
	var c counters
	for _, sys := range in.systems {
		st := sys.Hier.LLC.Stats()
		for i := range st.Accesses {
			c.llcAccesses += st.Accesses[i]
			c.llcMisses += st.Misses[i]
		}
		for _, ctl := range sys.Ctls {
			s := ctl.Stats()
			c.rowHits += s.RowHits
			c.rowAccesses += s.RowHits + s.RowMisses + s.RowConflict
			c.drains += s.Drains
		}
		for _, d := range sys.Drivers {
			s := d.Stats()
			c.compcpy += s.CompCpyCalls
			c.forceRecycles += s.ForceRecycleCalls
		}
		for _, d := range sys.Devs {
			s := d.Stats()
			c.selfRecycles += s.SelfRecycles
			c.linesFed += s.DSALinesFed
		}
	}
	for _, fl := range in.fleets {
		t := fl.Totals()
		c.primaryChunks += t.Degraded.PrimaryOps
		c.fallbackChunks += t.Degraded.FallbackOps
		c.sheds, c.descriptors, c.batches = c.sheds+t.Sheds, c.descriptors+t.Descriptors, c.batches+t.Batches
	}
	if in.dimm != nil {
		c.primaryChunks += in.dimm.Degraded.PrimaryOps
		c.fallbackChunks += in.dimm.Degraded.FallbackOps
	}
	return c
}
