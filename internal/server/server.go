// Package server models the Nginx web server of the paper's evaluation
// (§VI): a fixed pool of worker threads serving persistent connections,
// reading response bodies from a page-cache region, running the ULP
// through a pluggable accelerator placement (internal/offload), and
// transmitting over a shared NIC link. All memory traffic executes
// against the functional memory system, so requests-per-second, CPU
// utilization, and memory bandwidth (Fig. 3, 11, 12, Table I) are
// measured outcomes.
package server

import (
	"fmt"
	"math/rand"

	"repro/internal/corpus"
	"repro/internal/offload"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Mode selects what the server does to response bodies.
type Mode int

// Serving modes.
const (
	PlainHTTP Mode = iota // sendfile-style, no ULP
	HTTPSMode             // TLS via the configured backend
	CompressedHTTP
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case PlainHTTP:
		return "http"
	case HTTPSMode:
		return "https"
	default:
		return "http+deflate"
	}
}

// ULP maps a mode to its offload ULP.
func (m Mode) ULP() offload.ULP {
	if m == HTTPSMode {
		return offload.TLS
	}
	return offload.Compression
}

// Config assembles one server instance.
type Config struct {
	Sys     *sim.System
	Backend offload.Backend // nil is allowed for PlainHTTP
	Mode    Mode
	Workers int // paper: 10 threads pinned to 10 cores
	MsgSize int // response body size (the paper's "message size")
	// Connections is used to size the page-cache working set: each
	// connection serves a distinct file region, which is what creates
	// LLC capacity pressure as connection counts grow (Fig. 3).
	Connections int
	FileKind    corpus.Kind
	Seed        int64
	// Source, when non-nil, shapes each request (payload size, GET vs
	// SET direction, embedding-gather width) — the workload suite's
	// hook. Nil serves the legacy fixed-MsgSize GET stream. MsgSize must
	// cover the largest Payload the source returns: it sizes the
	// connection buffers and the page-cache working set.
	Source WorkloadSource
	// LatWindow, when non-nil, receives every request's end-to-end
	// latency in picoseconds, warmup included — the rolling tail signal
	// the autoscaler reads from the telemetry registry.
	LatWindow *stats.Window
}

// RequestSpec describes one request's work, produced by a
// WorkloadSource at submit time.
type RequestSpec struct {
	// Kind labels the request for accounting ("get", "set", "gather");
	// it does not affect timing.
	Kind string
	// Payload is the value size in bytes (response body for GETs,
	// request body for SETs); clamped to (0, Config.MsgSize].
	Payload int
	// Store marks a SET: the payload travels client->server (staged in
	// over RDMA or the DDIO bounce), and the response is a short Ack.
	Store bool
	// Ack is the SET response size; 0 selects 64 bytes.
	Ack int
	// GatherBytes, when > 0, reads that many embedding-table bytes
	// ahead of the ULP stage (the RecSys gather), attributed to the
	// "gather" pipeline stage.
	GatherBytes int
}

// WorkloadSource produces the next request's shape for a connection.
// Calls happen in submission order under the single-threaded engine, so
// a deterministic source yields a deterministic request stream; sources
// should keep any randomness in per-connection state so the stream
// survives reordering of unrelated connections.
type WorkloadSource interface {
	NextRequest(connID int) RequestSpec
}

// connState is the per-connection server state.
type connState struct {
	id       int
	oconn    *offload.Conn // nil in PlainHTTP mode
	filePage uint64        // page-cache address of this connection's file
	payload  []byte        // the file content (for staging)
}

// Pipeline stage indices for Metrics.StagePs. StageWire is the shared
// NIC link's serialization window, split out from the TX stage's CPU
// cost so the breakdown separates host work from wire occupancy.
// StageBounce is the host-DRAM bounce: a page-cache miss re-staging the
// payload through storage + DDIO (LLC DMA ways) — the cost the peer-DMA
// data path eliminates. StageRDMA is its replacement on DataPathPeer:
// the NIC's one-sided WRITE depositing the record straight into the
// connection's registered SmartDIMM buffer. The two are mutually
// exclusive per run, which is what makes "bounce absent under peer-DMA"
// checkable straight off the critical-path breakdown.
// StageGather is the embedding-gather pass of the RecSys workload: the
// request reads its embedding rows out of the table slab before the ULP
// ships the pooled result — near-memory on inline (SmartDIMM)
// placements, through the CPU cache hierarchy otherwise.
const (
	StageParse = iota
	StageCopy
	StageULP
	StageTX
	StageWire
	StageBounce
	StageRDMA
	StageGather
	NumStages
)

// StageNames labels Metrics.StagePs entries, indexed by Stage*.
var StageNames = [NumStages]string{"parse", "copy", "ulp", "tx", "wire", "bounce", "rdma", "gather"}

// Metrics are the measured outcomes of a run.
type Metrics struct {
	Requests     uint64
	ElapsedPs    int64
	RPS          float64
	CPUBusyPs    int64
	CPUUtil      float64 // busy / (workers * elapsed)
	MemBytes     uint64
	MemBWGBps    float64
	TXBytes      uint64
	MeanLatPs    int64
	DeviceBusyPs int64
	// Latency is the per-request end-to-end latency record (submit to
	// last wire byte, in picoseconds) over the measured window. It runs
	// in the bounded log2-bucketed mode so long windows at fleet request
	// rates keep fixed memory; Min/Max/Mean stay exact.
	Latency stats.Histogram
	// StagePs sums each pipeline stage's duration over measured
	// requests (worker occupancy for parse/copy/ulp/tx, link occupancy
	// for wire) — the per-stage latency breakdown of -fig breakdown.
	StagePs [NumStages]int64
	// Errors counts requests abandoned on processing errors since the
	// server started (not windowed by BeginMeasurement: a fault during
	// warmup still matters to a robustness run).
	Errors uint64
}

// Collect implements telemetry.Collector.
func (m Metrics) Collect(emit func(telemetry.Sample)) {
	emit(telemetry.Sample{Name: "requests", Value: float64(m.Requests)})
	emit(telemetry.Sample{Name: "elapsed_ps", Value: float64(m.ElapsedPs)})
	emit(telemetry.Sample{Name: "rps", Value: m.RPS})
	emit(telemetry.Sample{Name: "cpu_busy_ps", Value: float64(m.CPUBusyPs)})
	emit(telemetry.Sample{Name: "cpu_util", Value: m.CPUUtil})
	emit(telemetry.Sample{Name: "mem_bytes", Value: float64(m.MemBytes)})
	emit(telemetry.Sample{Name: "mem_bw_gbps", Value: m.MemBWGBps})
	emit(telemetry.Sample{Name: "tx_bytes", Value: float64(m.TXBytes)})
	emit(telemetry.Sample{Name: "mean_lat_ps", Value: float64(m.MeanLatPs)})
	emit(telemetry.Sample{Name: "p50_lat_ps", Value: m.Latency.Percentile(50)})
	emit(telemetry.Sample{Name: "p99_lat_ps", Value: m.Latency.Percentile(99)})
	emit(telemetry.Sample{Name: "device_busy_ps", Value: float64(m.DeviceBusyPs)})
	for i, ps := range m.StagePs {
		emit(telemetry.Sample{Name: "stage_ps." + StageNames[i], Value: float64(ps)})
	}
	emit(telemetry.Sample{Name: "errors", Value: float64(m.Errors)})
}

// Server is the Nginx model; it implements wrkgen.Target.
type Server struct {
	cfg   Config
	eng   *sim.Engine
	conns []*connState
	rng   *rand.Rand

	// freeWorkers is a LIFO stack of idle worker ids. Scheduling is
	// governed purely by its length (identical to the old idleWorkers
	// counter); the ids only attribute stages to per-worker trace
	// tracks.
	freeWorkers []int
	// queue[qHead:] are the requests waiting for a worker.
	queue []pendingReq
	qHead int
	// freeCtx holds finished request contexts for reuse. txBuf is the
	// buffer every TX and gather DMA and every app-copy read lands in:
	// the server uses only their latency.
	freeCtx []*reqCtx
	txBuf   []byte

	// link transmitter occupancy (shared NIC)
	linkBusyPs int64

	// ing is the peer-DMA ingress (DataPathPeer only): stage-0 restages
	// and construction-time staging go through the RDMA NIC instead of
	// storage DMA through DDIO. Nil on the host-mediated path.
	ing offload.Ingestor
	// bounceBytes accumulates host-DRAM bounce traffic (DDIO restages)
	// for the LLC-pressure counter on the nic track.
	bounceBytes uint64

	// win mirrors cfg.LatWindow: the rolling latency record the
	// autoscaler polls (fed outside the measurement gate on purpose).
	win *stats.Window

	// tracing (all nil/zero when cfg.Sys.Tracer is nil)
	tr           *telemetry.Tracer
	workerTracks []telemetry.TrackID
	nicTrack     telemetry.TrackID
	reqTrack     telemetry.TrackID
	reqSeq       uint64

	// measurement
	measuring    bool
	measureFrom  int64
	memBase      uint64
	cpuBusyPs    int64
	deviceBusyPs int64
	requests     uint64
	txBytes      uint64
	latSumPs     int64
	latency      stats.Histogram // bounded; per-request end-to-end ps
	stagePs      [NumStages]int64
	errors       uint64
	lastErr      error
}

type pendingReq struct {
	connID int
	done   func()
	at     int64
	spec   RequestSpec
	seq    uint64  // async-span id (only assigned when tracing)
	ctx    *reqCtx // non-nil when re-entering a staged request
}

// New builds the server and its connections (allocating buffers and the
// page-cache working set).
func New(eng *sim.Engine, cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 10
	}
	if cfg.Connections <= 0 {
		return nil, fmt.Errorf("server: need connections")
	}
	if cfg.MsgSize <= 0 {
		return nil, fmt.Errorf("server: need message size")
	}
	s := &Server{
		cfg: cfg, eng: eng,
		rng: rand.New(rand.NewSource(cfg.Seed + 99)),
		win: cfg.LatWindow,
	}
	s.latency.SetBounded()
	// Stacked so worker 0 pops first: the first dispatched stage lands
	// on worker 0's track.
	s.freeWorkers = make([]int, cfg.Workers)
	for i := range s.freeWorkers {
		s.freeWorkers[i] = cfg.Workers - 1 - i
	}
	if tr := cfg.Sys.Tracer; tr != nil {
		s.tr = tr
		for w := 0; w < cfg.Workers; w++ {
			s.workerTracks = append(s.workerTracks, tr.Track(fmt.Sprintf("worker%d", w)))
		}
		s.nicTrack = tr.Track("nic")
		s.reqTrack = tr.Track("requests")
	}
	inline := cfg.Mode != PlainHTTP && cfg.Backend != nil && cfg.Backend.InlineSource()
	if cfg.Sys.DataPath == sim.DataPathPeer {
		ing, ok := cfg.Backend.(offload.Ingestor)
		if !ok || !inline {
			return nil, fmt.Errorf("server: peer data path needs an RDMA-backed inline backend (have %T)", cfg.Backend)
		}
		s.ing = ing
	}
	for id := 0; id < cfg.Connections; id++ {
		c := &connState{id: id}
		c.payload = corpus.Generate(cfg.FileKind, cfg.MsgSize, cfg.Seed+int64(id))
		if cfg.Mode != PlainHTTP {
			if cfg.Backend == nil {
				return nil, fmt.Errorf("server: mode %v needs a backend", cfg.Mode)
			}
			if !cfg.Backend.Supports(cfg.Mode.ULP()) {
				return nil, fmt.Errorf("server: %s cannot offload %v", cfg.Backend.Name(), cfg.Mode.ULP())
			}
			oc, err := cfg.Backend.NewConn(cfg.Mode.ULP(), id, cfg.MsgSize)
			if err != nil {
				return nil, fmt.Errorf("server: conn %d: %w", id, err)
			}
			c.oconn = oc
		}
		if inline {
			// The page cache lives in conn.Src on the SmartDIMM itself
			// (Benefit B2); CompCpy consumes it without a staging copy.
			c.filePage = c.oconn.Src
			if s.ing != nil {
				// Peer path: the working set arrived over RDMA before
				// the measured epoch — registered-MR bounds checks and
				// functional writes, no wire occupancy.
				if err := s.ing.Preload(c.oconn, c.payload); err != nil {
					return nil, err
				}
			} else if err := offload.StagePayloadDMA(cfg.Sys, c.oconn, c.payload); err != nil {
				return nil, err
			}
		} else {
			addr, err := cfg.Sys.AllocPlain(cfg.MsgSize)
			if err != nil {
				return nil, fmt.Errorf("server: page cache: %w", err)
			}
			c.filePage = addr
			// Populate the page cache via storage DMA (DDIO).
			if err := cfg.Sys.Hier.DMAWrite(addr, c.payload); err != nil {
				return nil, err
			}
		}
		s.conns = append(s.conns, c)
	}
	return s, nil
}

// Submit implements wrkgen.Target.
func (s *Server) Submit(connID int, done func()) {
	spec := RequestSpec{Payload: s.cfg.MsgSize}
	if s.cfg.Source != nil {
		spec = s.cfg.Source.NextRequest(connID)
		if spec.Payload <= 0 || spec.Payload > s.cfg.MsgSize {
			spec.Payload = s.cfg.MsgSize
		}
		if s.cfg.Mode == PlainHTTP {
			// Plain HTTP has no record framing to ingest a SET through.
			spec.Store = false
		}
	}
	req := pendingReq{connID: connID, done: done, at: s.eng.Now(), spec: spec}
	if s.tr != nil {
		s.reqSeq++
		req.seq = s.reqSeq
		s.tr.AsyncBegin(s.reqTrack, "req", req.seq, req.at)
	}
	s.enqueue(req)
	s.dispatch()
}

// enqueue appends req to the work queue, first sliding the waiting
// requests to the front of a full backing array.
func (s *Server) enqueue(req pendingReq) {
	if len(s.queue) == cap(s.queue) && s.qHead > 0 {
		s.queue = s.queue[:copy(s.queue, s.queue[s.qHead:])]
		s.qHead = 0
	}
	s.queue = append(s.queue, req)
}

// dispatch hands queued requests to idle workers.
func (s *Server) dispatch() {
	for len(s.freeWorkers) > 0 && s.qHead < len(s.queue) {
		req := s.queue[s.qHead]
		s.queue[s.qHead] = pendingReq{}
		if s.qHead++; s.qHead == len(s.queue) {
			s.queue, s.qHead = s.queue[:0], 0
		}
		w := s.freeWorkers[len(s.freeWorkers)-1]
		s.freeWorkers = s.freeWorkers[:len(s.freeWorkers)-1]
		if req.ctx != nil {
			req.ctx.worker = w
			s.runStage(req.ctx)
		} else {
			s.serve(req, w)
		}
	}
}

// reqCtx carries a request through its pipeline stages. Stages execute
// as separate work items so different connections' stages interleave on
// the workers — modelling the asynchronicity between the storage stack,
// the ULP layer, and TCP processing that creates the ping-pong cache
// behaviour of Fig. 1/Observation 3 (a request's data is evicted by
// other connections' work between its own passes).
type reqCtx struct {
	req      pendingReq
	conn     *connState
	stage    int
	worker   int   // worker currently holding this request's stage
	cpu      int64 // accumulated CPU time
	device   int64
	txBytes  int
	spans    []offload.Span
	flushDst bool
	// next and finish are the engine callbacks that end a stage, bound
	// once when the context is made: both release the worker, then next
	// queues the request's next stage and finish recycles the context.
	next, finish func()
}

// serve starts a request on worker w, in a context from the free list.
func (s *Server) serve(req pendingReq, w int) {
	var rc *reqCtx
	if n := len(s.freeCtx); n > 0 {
		rc = s.freeCtx[n-1]
		s.freeCtx = s.freeCtx[:n-1]
	} else {
		rc = new(reqCtx)
		rc.next = func() {
			s.freeWorkers = append(s.freeWorkers, rc.worker)
			rc.stage++
			s.queueCtx(rc)
			s.dispatch()
		}
		rc.finish = func() {
			s.freeWorkers = append(s.freeWorkers, rc.worker)
			s.freeCtx = append(s.freeCtx, rc)
			s.dispatch()
		}
	}
	*rc = reqCtx{req: req, conn: s.conns[req.connID%len(s.conns)], worker: w,
		spans: rc.spans[:0], next: rc.next, finish: rc.finish}
	s.runStage(rc)
}

// requeue releases the worker after stageCPU+stageDev and re-enters the
// request for its next stage. ran names the stage that just executed
// (PlainHTTP bumps rc.stage before releasing).
func (s *Server) requeue(rc *reqCtx, ran int, stageCPU, stageDev int64) {
	s.requeueSplit(rc, ran, stageCPU, ran, stageDev)
}

// requeueSplit is requeue with separate attribution for the CPU and
// device portions of a stage — how the parse stage's page-cache-miss
// device time lands on the "bounce" (host DDIO) or "rdma" (peer
// deposit) stage while its CPU time stays on "parse". Timing is
// identical to the single-stage form; only the breakdown accounting and
// span names differ.
func (s *Server) requeueSplit(rc *reqCtx, cpuStage int, stageCPU int64, devStage int, stageDev int64) {
	if cpuStage == devStage {
		s.requeueParts(rc, []stagePart{{stage: cpuStage, cpu: stageCPU, dev: stageDev}})
		return
	}
	s.requeueParts(rc, []stagePart{
		{stage: cpuStage, cpu: stageCPU},
		{stage: devStage, dev: stageDev},
	})
}

// stagePart is one attributed slice of a worker occupancy window.
type stagePart struct {
	stage    int
	cpu, dev int64
}

// requeueParts generalizes requeueSplit to any number of sequential
// attribution slices on one worker hold — the embedding workload's
// gather+ulp window is two parts back to back. Total occupancy is the
// sum; each part books its duration to its own stage and emits its own
// span, consecutively from now.
func (s *Server) requeueParts(rc *reqCtx, parts []stagePart) {
	now := s.eng.Now()
	var dur int64
	for _, pt := range parts {
		rc.cpu += pt.cpu
		rc.device += pt.dev
		d := pt.cpu + pt.dev
		if s.measuring {
			s.stagePs[pt.stage] += d
		}
		if s.tr != nil && d > 0 {
			s.tr.Span(s.workerTracks[rc.worker], StageNames[pt.stage], now+dur, d)
		}
		dur += d
	}
	s.eng.At(now+dur, rc.next)
}

// queueCtx re-enters a staged request at the back of the work queue.
func (s *Server) queueCtx(rc *reqCtx) { s.enqueue(pendingReq{ctx: rc}) }

// failReq abandons a request after a processing error: the worker is
// released, the request completes with no response bytes, and the error
// is accounted — the model's analogue of the server answering 5xx and
// moving on instead of crashing the process. Panics remain only for
// programmer errors (impossible states), not for memory-system or
// backend failures.
func (s *Server) failReq(rc *reqCtx, err error) {
	s.errors++
	s.lastErr = fmt.Errorf("server: request on conn %d: %w", rc.conn.id, err)
	now := s.eng.Now()
	if s.tr != nil {
		s.tr.Instant(s.workerTracks[rc.worker], "error", now)
		s.tr.AsyncEnd(s.reqTrack, "req", rc.req.seq, now)
	}
	s.eng.At(now, rc.finish)
	s.eng.At(now, rc.req.done)
}

// LastError returns the most recent request-processing error, if any.
func (s *Server) LastError() error { return s.lastErr }

// runStage executes one pipeline stage synchronously against the memory
// system and schedules the next.
func (s *Server) runStage(rc *reqCtx) {
	c := rc.conn
	p := s.cfg.Sys.Params
	coreID := workerCore(rc.req.connID)
	inline := s.cfg.Mode != PlainHTTP && s.cfg.Backend.InlineSource()

	spec := rc.req.spec
	payload := c.payload
	if spec.Payload < len(payload) {
		payload = payload[:spec.Payload]
	}

	switch rc.stage {
	case 0: // parse + payload fetch (file for GETs, request body for SETs)
		cpu := p.HTTPParseNs * sim.Ns
		var device int64
		devStage := StageParse
		if spec.Store {
			// SET ingest: the value arrives with the request and is
			// staged into the connection's buffers — over one-sided RDMA
			// on the peer path, through the DDIO bounce on the host path
			// (priced as the NIC's RX DMA window, no storage read).
			if s.ing != nil {
				d, err := s.ing.Ingest(c.oconn, payload)
				if err != nil {
					s.failReq(rc, err)
					return
				}
				device = d
				devStage = StageRDMA
			} else {
				if inline {
					if err := offload.StagePayloadDMA(s.cfg.Sys, c.oconn, payload); err != nil {
						s.failReq(rc, err)
						return
					}
				} else if err := s.cfg.Sys.Hier.DMAWrite(c.filePage, payload); err != nil {
					s.failReq(rc, err)
					return
				}
				device = p.LinkSerializationPs(len(payload))
				devStage = StageBounce
				if s.tr != nil {
					s.bounceBytes += uint64(len(payload))
					s.tr.Counter(s.nicTrack, "ddio_bounce_bytes", s.eng.Now(), float64(s.bounceBytes))
				}
			}
		} else if s.rng.Float64() >= p.PageCacheHitRate {
			if s.ing != nil {
				// Peer-DMA refill: the record is re-fetched from the
				// remote origin as one-sided RDMA WRITEs landing in the
				// connection's registered MR — no storage read, no
				// host-DRAM bounce, no DDIO occupancy. The NIC charges
				// doorbells, wire serialization and the owning rank's
				// write timing.
				d, err := s.ing.Ingest(c.oconn, payload)
				if err != nil {
					s.failReq(rc, err)
					return
				}
				device = d
				devStage = StageRDMA
			} else {
				// Host-mediated refill: storage read plus the DDIO
				// bounce through host DRAM / the LLC's DMA ways.
				device = int64(p.StorageReadUsPer4KB * float64(sim.Us) * float64((spec.Payload+4095)/4096))
				if inline {
					if err := offload.StagePayloadDMA(s.cfg.Sys, c.oconn, payload); err != nil {
						s.failReq(rc, err)
						return
					}
				} else if err := s.cfg.Sys.Hier.DMAWrite(c.filePage, payload); err != nil {
					s.failReq(rc, err)
					return
				}
				devStage = StageBounce
				if s.tr != nil {
					s.bounceBytes += uint64(len(payload))
					s.tr.Counter(s.nicTrack, "ddio_bounce_bytes", s.eng.Now(), float64(s.bounceBytes))
				}
			}
		}
		if s.cfg.Mode == PlainHTTP {
			rc.stage++ // skip the copy and ULP stages
		}
		s.requeueSplit(rc, StageParse, cpu, devStage, device)

	case 1: // app copy out of the page cache (skipped for inline)
		var cpu int64
		if !inline {
			var rdLat int64
			var err error
			s.txBuf, rdLat, err = s.cfg.Sys.Hier.Read(s.txBuf[:0], coreID, c.filePage, spec.Payload)
			if err != nil {
				s.failReq(rc, err)
				return
			}
			stageLat, err := offload.StagePayloadCPU(s.cfg.Sys, coreID, c.oconn, payload)
			if err != nil {
				s.failReq(rc, err)
				return
			}
			cpu = rdLat + stageLat
		}
		s.requeue(rc, StageCopy, cpu, 0)

	case 2: // (embedding gather +) ULP processing
		if s.cfg.Mode == PlainHTTP {
			s.transmit(rc, c.filePage, spec.Payload,
				[]offload.Span{{Off: 0, Len: spec.Payload}})
			return
		}
		var buf [2]stagePart
		parts := buf[:0]
		if spec.GatherBytes > 0 {
			gcpu, gdev, err := s.gather(rc, spec.GatherBytes, coreID, inline)
			if err != nil {
				s.failReq(rc, err)
				return
			}
			parts = append(parts, stagePart{stage: StageGather, cpu: gcpu, dev: gdev})
		}
		res, err := s.cfg.Backend.Process(s.cfg.Mode.ULP(), coreID, c.oconn, spec.Payload)
		if err != nil {
			s.failReq(rc, err)
			return
		}
		rc.spans = append(rc.spans[:0], res.DstSpans...)
		rc.txBytes = res.TXBytes
		rc.flushDst = res.DstFlushNeeded
		if spec.Store {
			// SETs answer with a short ack; the processed value stays
			// resident (the ULP cost above is the record decrypt/verify).
			ack := spec.Ack
			if ack <= 0 {
				ack = 64
			}
			if ack > spec.Payload {
				ack = spec.Payload
			}
			rc.txBytes = ack
			rc.spans = append(rc.spans[:0], offload.Span{Off: 0, Len: ack})
			rc.flushDst = false
		}
		parts = append(parts, stagePart{stage: StageULP, cpu: res.CPUPs, dev: res.DevicePs})
		s.requeueParts(rc, parts)

	case 3: // transmission
		s.transmit(rc, c.oconn.Dst, rc.txBytes, rc.spans)
	}
}

// gather reads n bytes of embedding rows out of the connection's table
// slab ahead of the ULP stage. On inline placements the home rank reads
// its own DRAM (device time, no host cache traffic) — the AxDIMM
// near-memory gather; otherwise the CPU pulls the rows through the
// cache hierarchy (CPU time). Gathers wider than the staged region wrap
// around it chunk by chunk.
func (s *Server) gather(rc *reqCtx, n, coreID int, inline bool) (cpu, dev int64, err error) {
	c := rc.conn
	chunk := s.cfg.MsgSize
	for n > 0 {
		step := n
		if step > chunk {
			step = chunk
		}
		if inline {
			var lat int64
			s.txBuf, lat, err = s.cfg.Sys.Hier.DMARead(s.txBuf[:0], c.oconn.Src, step)
			if err != nil {
				return 0, 0, err
			}
			dev += lat
		} else {
			var lat int64
			s.txBuf, lat, err = s.cfg.Sys.Hier.Read(s.txBuf[:0], coreID, c.filePage, step)
			if err != nil {
				return 0, 0, err
			}
			cpu += lat
		}
		n -= step
	}
	return cpu, dev, nil
}

// transmit performs the TX stage: NIC DMA, per-packet kernel costs, and
// shared-link serialization; completes the request.
func (s *Server) transmit(rc *reqCtx, base uint64, txBytes int, spans []offload.Span) {
	p := s.cfg.Sys.Params
	var cpuFlush int64
	if rc.flushDst {
		// USE step of Algorithm 2: write back the stale cached copies so
		// TX DMA observes the DSA output. Under contention most lines
		// already left the LLC (self-recycled), making this flush cheap
		// (the §IV-A residency effect).
		for _, sp := range spans {
			l, err := s.cfg.Sys.Hier.Flush(base+uint64(sp.Off), sp.Len)
			if err != nil {
				s.failReq(rc, fmt.Errorf("dst flush: %w", err))
				return
			}
			cpuFlush += l
		}
	}
	var dmaLat int64
	for _, sp := range spans {
		var l int64
		var err error
		s.txBuf, l, err = s.cfg.Sys.Hier.DMARead(s.txBuf[:0], base+uint64(sp.Off), sp.Len)
		if err != nil {
			s.failReq(rc, fmt.Errorf("TX DMA: %w", err))
			return
		}
		dmaLat += l
	}
	segs := p.SegmentsFor(txBytes)
	cpu := cpuFlush + p.SyscallNs*sim.Ns + int64(segs)*p.PerPacketCPUNs*sim.Ns

	now := s.eng.Now()
	wireStart := now + cpu
	if s.linkBusyPs > wireStart {
		wireStart = s.linkBusyPs
	}
	// The NIC's TX DMA overlaps with other responses' wire time; only
	// the serialization occupies the shared link.
	s.linkBusyPs = wireStart + p.LinkSerializationPs(txBytes+segs*40)
	wireDone := s.linkBusyPs + dmaLat

	rc.cpu += cpu
	if s.win != nil {
		s.win.Observe(float64(wireDone - rc.req.at))
	}
	if s.measuring {
		s.cpuBusyPs += rc.cpu
		s.deviceBusyPs += rc.device
		s.requests++
		s.txBytes += uint64(txBytes)
		s.latSumPs += wireDone - rc.req.at
		s.latency.Observe(float64(wireDone - rc.req.at))
		s.stagePs[StageTX] += cpu
		s.stagePs[StageWire] += wireDone - wireStart
	}
	if s.tr != nil {
		if cpu > 0 {
			s.tr.Span(s.workerTracks[rc.worker], StageNames[StageTX], now, cpu)
		}
		s.tr.Span(s.nicTrack, "wire", wireStart, s.linkBusyPs-wireStart)
		s.tr.AsyncEnd(s.reqTrack, "req", rc.req.seq, wireDone)
	}
	s.eng.At(now+cpu, rc.finish)
	s.eng.At(wireDone, rc.req.done)
}

// workerCore maps a connection to a core id for trace attribution.
func workerCore(connID int) int { return connID % 10 }

// BeginMeasurement snapshots counters after warmup.
func (s *Server) BeginMeasurement() {
	s.measuring = true
	s.measureFrom = s.eng.Now()
	s.memBase = s.cfg.Sys.MemoryBytesMoved()
	s.cpuBusyPs, s.deviceBusyPs, s.requests, s.txBytes, s.latSumPs = 0, 0, 0, 0, 0
	s.latency.Reset()
	s.stagePs = [NumStages]int64{}
}

// Collect returns the metrics accumulated since BeginMeasurement.
func (s *Server) Collect() Metrics {
	elapsed := s.eng.Now() - s.measureFrom
	m := Metrics{
		Requests:     s.requests,
		ElapsedPs:    elapsed,
		CPUBusyPs:    s.cpuBusyPs,
		DeviceBusyPs: s.deviceBusyPs,
		MemBytes:     s.cfg.Sys.MemoryBytesMoved() - s.memBase,
		TXBytes:      s.txBytes,
		Latency:      s.latency,
		StagePs:      s.stagePs,
		Errors:       s.errors,
	}
	if elapsed > 0 {
		m.RPS = float64(s.requests) / (float64(elapsed) * 1e-12)
		m.CPUUtil = float64(s.cpuBusyPs) / (float64(s.cfg.Workers) * float64(elapsed))
		m.MemBWGBps = float64(m.MemBytes) / (float64(elapsed) * 1e-12) / 1e9
	}
	if s.requests > 0 {
		m.MeanLatPs = s.latSumPs / int64(s.requests)
	}
	return m
}
