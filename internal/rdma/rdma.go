// Package rdma models an RDMA-capable NIC that deposits inbound
// records directly into SmartDIMM lower-half buffers — the zero-copy
// peer-DMA data path of RecoNIC-style designs (PAPERS.md: "A Primer on
// RecoNIC", "In-Network Memory Access"). The model is the verbs subset
// the reproduction needs:
//
//   - Memory regions (MR): rkey-named, bounds-checked windows over a
//     rank's buffer pages. Every one-sided WRITE is refused unless it
//     lands wholly inside a currently-valid MR — the invariant the
//     chaos soak replays against.
//   - Queue pairs (QP): a per-connection send queue of work-queue
//     entries (WQE) bound to one MR, plus a shared completion queue
//     (CQE per WQE, success or failure).
//   - Doorbells: posted WQEs execute only when the doorbell rings; the
//     ring batches ceil(pending/doorbellBatch) descriptors per MMIO
//     write exactly like the fleet's submission queues (same
//     batch geometry), which is what makes doorbell coalescing a
//     measurable quantity.
//   - RNR/retry: receiver-not-ready NAKs (injected, or a stale rkey
//     after the MR moved mid-flight) back off exponentially and retry
//     up to RetryLimit before completing in error — never by writing
//     outside a registration.
//
// Executed writes go through sim.System.PeerDMAWrite: each line is
// priced by the owning rank's memory controller and bandwidth meter and
// never allocates into the LLC's DDIO ways. That is the honest version
// of the zero-copy win: host DRAM and the LLC are out of the loop, but
// the rank's write queue still sees every byte.
//
// Determinism: all state lives in the NIC struct, map access is keyed
// (never iterated) on hot paths, and full scans walk creation-order
// slices; fault decisions come from the seeded injector's per-site
// streams. Two runs with equal seeds produce byte-identical TraceString
// output at any GOMAXPROCS.
package rdma

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Fault-injection sites (consulted on the engine's picosecond clock).
const (
	// SiteDoorbell drops a doorbell MMIO write: the adapter never sees
	// the ring and the posted WQEs stay pending until the next ring.
	SiteDoorbell = "rdma.doorbell"
	// SiteRNR makes the receiver NAK a WQE "not ready": the sender
	// backs off and retries, up to Config.RetryLimit times.
	SiteRNR = "rdma.rnr"
)

// Typed errors callers gate degradation ladders on.
var (
	// ErrSQFull reports a full send queue: the poster must ring the
	// doorbell (drain) before posting more work.
	ErrSQFull = errors.New("rdma: send queue full")
	// ErrRetryExhausted reports a deposit whose doorbells kept getting
	// lost: the WQEs remain pending and a later ring will drain them.
	ErrRetryExhausted = errors.New("rdma: doorbell retries exhausted")
	// ErrNoQP reports an operation on an unknown queue pair.
	ErrNoQP = errors.New("rdma: no such QP")
)

// The adapter's doorbell and wire constants.
const (
	// doorbellBatch is the descriptor count the adapter fetches per
	// doorbell ring; a ring of n pending WQEs costs
	// ceil(n/doorbellBatch) MMIO writes — the fleet's submission-queue
	// batching geometry (4 descriptors per ring).
	doorbellBatch = 4
	// doorbellPs is the cost of one doorbell: 120 ns, an uncached MMIO
	// write plus fence (the fleet's batch overhead).
	doorbellPs = 120 * sim.Ns
	// lineRateGbps is the NIC wire rate serializing every WQE payload:
	// one 100 GbE port.
	lineRateGbps = 100
	// rnrTimeoutPs is the base receiver-not-ready backoff; attempt k
	// waits rnrTimeoutPs<<min(k,3).
	rnrTimeoutPs = 4 * sim.Us
)

// Config assembles a NIC.
type Config struct {
	Sys *sim.System
	// QPDepth is the send-queue WQE capacity per QP. Zero selects 16.
	QPDepth int
	// MTU bounds the payload bytes of one WQE; larger deposits split.
	// Zero selects 4096.
	MTU int
	// RetryLimit bounds RNR retries per WQE and doorbell re-rings per
	// deposit. Zero selects 7 (the IB-verbs retry-count default).
	RetryLimit int
	// Faults arms the rdma.* injection sites; nil never fires.
	Faults *fault.Injector
	// Tracer, when non-nil, records deposit spans, doorbell/RNR
	// instants and QP-depth/coalescing/LLC-pressure counters on an
	// "rdma" track.
	Tracer *telemetry.Tracer
	// TraceOps records every verb into the canonical trace returned by
	// TraceString — the chaos soak's byte-compared artifact. Off by
	// default (long runs would accumulate MBs).
	TraceOps bool
	// RecordLandings keeps an in-order log of every executed write
	// (rkey, physical address, length) for invariant cross-checks.
	RecordLandings bool
}

// wireHeaderBytes is the per-WQE on-wire overhead (Eth+IP+UDP+BTH+RETH
// +ICRC for RoCEv2).
const wireHeaderBytes = 96

// MR is one registered memory region.
type MR struct {
	Rkey  uint32
	Addr  uint64
	Len   int
	Rank  int // channel index owning Addr at registration time
	Valid bool
}

// wqe is one posted one-sided WRITE work-queue entry.
type wqe struct {
	rkey uint32
	off  int
	data []byte
}

// QP is a queue pair: a send queue bound to the connection's current MR.
type QP struct {
	ID   int
	Rkey uint32 // current binding; stale WQEs retarget to it
	sq   []wqe
}

// CQE is one completion-queue entry.
type CQE struct {
	QP     int
	Len    int
	Status string // "ok", "rnr", "stale", "bounds"
	AtPs   int64
}

// Landing records one executed write for invariant checks.
type Landing struct {
	Rkey uint32
	Addr uint64
	Len  int
}

// Stats aggregates NIC counters.
type Stats struct {
	MRs, LiveMRs      int
	Posted            uint64
	Completed         uint64
	Failed            uint64
	Doorbells         uint64
	DoorbellsLost     uint64
	RNRNaks           uint64
	StaleRkeyRetries  uint64
	BoundsRefusals    uint64 // out-of-MR WQEs refused (never written)
	PeerBytes         uint64
	WirePs            int64
	Preloaded         uint64
	MRInvalidations   uint64
	Registrations     uint64
	DoorbellsCoalesce float64 // mean WQEs drained per doorbell ring
}

// NIC is the RDMA adapter model.
type NIC struct {
	cfg Config

	mrs      map[uint32]*MR
	mrOrder  []uint32
	nextRkey uint32

	qps     map[int]*QP
	qpOrder []int

	cq       []CQE
	landings []Landing
	trace    []string

	wireBusyPs int64
	pending    int // WQEs posted and not yet executed/failed

	stats     Stats
	drainedDB uint64 // WQEs drained over all doorbells (coalescing num)

	tr    *telemetry.Tracer
	track telemetry.TrackID
}

// New builds a NIC over sys.
func New(cfg Config) (*NIC, error) {
	if cfg.Sys == nil {
		return nil, fmt.Errorf("rdma: nil system")
	}
	if cfg.QPDepth <= 0 {
		cfg.QPDepth = 16
	}
	if cfg.MTU <= 0 {
		cfg.MTU = 4096
	}
	if cfg.RetryLimit <= 0 {
		cfg.RetryLimit = 7
	}
	n := &NIC{
		cfg: cfg,
		mrs: make(map[uint32]*MR),
		qps: make(map[int]*QP),
	}
	if cfg.Tracer != nil {
		n.tr = cfg.Tracer
		n.track = cfg.Tracer.Track("rdma")
	}
	return n, nil
}

func (n *NIC) now() int64 { return n.cfg.Sys.Engine.Now() }

func (n *NIC) tracef(format string, args ...any) {
	if n.cfg.TraceOps {
		n.trace = append(n.trace, fmt.Sprintf(format, args...))
	}
}

// RegisterMR registers [addr, addr+ln) as a remotely-writable region
// and returns its rkey. The owning rank is resolved from the address so
// MR-locality ("a record lands on the rank owning its registration")
// is a property of the table, not of the caller's bookkeeping.
func (n *NIC) RegisterMR(addr uint64, ln int) (uint32, error) {
	if ln <= 0 {
		return 0, fmt.Errorf("rdma: MR of %d bytes", ln)
	}
	rank, err := n.cfg.Sys.Hier.ChannelOf(addr)
	if err != nil {
		return 0, fmt.Errorf("rdma: MR at %#x: %w", addr, err)
	}
	n.nextRkey++
	mr := &MR{Rkey: n.nextRkey, Addr: addr, Len: ln, Rank: rank, Valid: true}
	n.mrs[mr.Rkey] = mr
	n.mrOrder = append(n.mrOrder, mr.Rkey)
	n.stats.Registrations++
	n.tracef("mr rk%d d%d len=%d", mr.Rkey, rank, ln)
	return mr.Rkey, nil
}

// InvalidateMR unregisters an MR: in-flight WQEs holding its rkey NAK
// at execution instead of landing in memory the region no longer owns.
func (n *NIC) InvalidateMR(rkey uint32) {
	mr := n.mrs[rkey]
	if mr == nil || !mr.Valid {
		return
	}
	mr.Valid = false
	n.stats.MRInvalidations++
	n.tracef("inval rk%d", rkey)
	if n.tr != nil {
		n.tr.Instant(n.track, "mr_invalidate", n.now())
	}
}

// LookupMR returns a copy of the MR table entry.
func (n *NIC) LookupMR(rkey uint32) (MR, bool) {
	mr := n.mrs[rkey]
	if mr == nil {
		return MR{}, false
	}
	return *mr, true
}

// CreateQP creates a queue pair bound to an MR.
func (n *NIC) CreateQP(id int, rkey uint32) error {
	if _, ok := n.qps[id]; ok {
		return fmt.Errorf("rdma: QP %d exists", id)
	}
	if n.mrs[rkey] == nil {
		return fmt.Errorf("rdma: QP %d: unknown rkey %d", id, rkey)
	}
	n.qps[id] = &QP{ID: id, Rkey: rkey}
	n.qpOrder = append(n.qpOrder, id)
	n.tracef("qp c%d rk%d", id, rkey)
	return nil
}

// QuiesceQP invalidates the MR a QP currently targets — the step a
// drain-and-reshard migration MUST take before copying buffers, so an
// in-flight peer write NAKs instead of landing in pages about to be
// freed. Returns the invalidated rkey (0 when the QP is unknown).
func (n *NIC) QuiesceQP(id int) uint32 {
	qp := n.qps[id]
	if qp == nil {
		return 0
	}
	n.InvalidateMR(qp.Rkey)
	return qp.Rkey
}

// RebindQP registers a fresh MR over the connection's new buffer and
// points the QP at it; stale in-flight WQEs retarget here on execution.
func (n *NIC) RebindQP(id int, addr uint64, ln int) (uint32, error) {
	qp := n.qps[id]
	if qp == nil {
		return 0, ErrNoQP
	}
	rkey, err := n.RegisterMR(addr, ln)
	if err != nil {
		return 0, err
	}
	qp.Rkey = rkey
	n.tracef("rebind c%d rk%d", id, rkey)
	return rkey, nil
}

// PostWrite posts one one-sided WRITE WQE (payload lands at MR offset
// off). The doorbell has not rung: nothing executes yet.
func (n *NIC) PostWrite(id, off int, data []byte) error {
	qp := n.qps[id]
	if qp == nil {
		return ErrNoQP
	}
	if len(qp.sq) >= n.cfg.QPDepth {
		return ErrSQFull
	}
	d := make([]byte, len(data))
	copy(d, data)
	qp.sq = append(qp.sq, wqe{rkey: qp.Rkey, off: off, data: d})
	n.pending++
	n.stats.Posted++
	n.tracef("post c%d off=%d len=%d rk%d", id, off, len(data), qp.Rkey)
	if n.tr != nil {
		n.tr.Counter(n.track, "qp_depth", n.now(), float64(n.pending))
	}
	return nil
}

// RingDoorbell drains a QP's send queue: ceil(pending/doorbellBatch)
// MMIO rings, each of which the injector may drop (the adapter never
// fetches that batch and draining stops until the next ring). Returns
// the modelled device time of everything that executed.
func (n *NIC) RingDoorbell(id int) (int64, error) {
	qp := n.qps[id]
	if qp == nil {
		return 0, ErrNoQP
	}
	now := n.now()
	cursor := now
	for len(qp.sq) > 0 {
		n.stats.Doorbells++
		cursor += doorbellPs
		if n.cfg.Faults.Fire(SiteDoorbell, now) {
			n.stats.DoorbellsLost++
			n.tracef("db c%d lost", id)
			if n.tr != nil {
				n.tr.Instant(n.track, "doorbell_lost", now)
			}
			break
		}
		batch := doorbellBatch
		if batch > len(qp.sq) {
			batch = len(qp.sq)
		}
		n.drainedDB += uint64(batch)
		n.tracef("db c%d n=%d", id, batch)
		for i := 0; i < batch; i++ {
			cursor = n.exec(qp, qp.sq[i], cursor)
		}
		qp.sq = qp.sq[batch:]
	}
	if n.tr != nil {
		if n.stats.Doorbells > 0 {
			n.tr.Counter(n.track, "wqe_per_doorbell", now,
				float64(n.drainedDB)/float64(n.stats.Doorbells))
		}
		n.tr.Counter(n.track, "qp_depth", now, float64(n.pending))
		n.tr.Counter(n.track, "llc_miss_proxy", now, n.cfg.Sys.LLCMissRateSample())
		if cursor > now {
			n.tr.Span(n.track, "rdma", now, cursor-now)
		}
	}
	return cursor - now, nil
}

// exec runs one WQE at simulated instant cursor and returns the new
// cursor. Completion (success or failure) is recorded on the CQ; the
// WQE never writes memory outside a currently-valid registration.
func (n *NIC) exec(qp *QP, w wqe, cursor int64) int64 {
	now := n.now()
	// Stale rkey: the MR moved (migration) after this WQE was posted.
	// Retarget to the QP's current binding, charging one NAK round trip.
	if w.rkey != qp.Rkey {
		n.stats.StaleRkeyRetries++
		cursor += rnrTimeoutPs
		n.tracef("stale c%d rk%d->rk%d", qp.ID, w.rkey, qp.Rkey)
		w.rkey = qp.Rkey
	}
	// RNR NAKs: injected receiver-not-ready, exponential backoff.
	for attempt := 0; n.cfg.Faults.Fire(SiteRNR, now); attempt++ {
		n.stats.RNRNaks++
		if n.tr != nil {
			n.tr.Instant(n.track, "rnr", now)
		}
		shift := attempt
		if shift > 3 {
			shift = 3
		}
		cursor += rnrTimeoutPs << shift
		if attempt+1 >= n.cfg.RetryLimit {
			n.complete(qp.ID, len(w.data), "rnr", cursor)
			n.tracef("fail c%d rnr", qp.ID)
			return cursor
		}
	}
	mr := n.mrs[w.rkey]
	if mr == nil || !mr.Valid {
		n.complete(qp.ID, len(w.data), "stale", cursor)
		n.tracef("fail c%d rk%d invalid", qp.ID, w.rkey)
		return cursor
	}
	if w.off < 0 || w.off+len(w.data) > mr.Len {
		n.stats.BoundsRefusals++
		n.complete(qp.ID, len(w.data), "bounds", cursor)
		n.tracef("fail c%d rk%d bounds off=%d len=%d", qp.ID, w.rkey, w.off, len(w.data))
		return cursor
	}
	// Wire serialization on the shared NIC port, then the peer write
	// priced by the owning rank's controller.
	ser := n.wirePs(len(w.data))
	start := cursor
	if n.wireBusyPs > start {
		start = n.wireBusyPs
	}
	n.wireBusyPs = start + ser
	n.stats.WirePs += ser
	wlat, err := n.cfg.Sys.Hier.PeerDMAWrite(mr.Addr+uint64(w.off), w.data)
	if err != nil {
		// Unmapped addresses cannot happen through a validated MR; a
		// controller refusal is a completion error, not a landing.
		n.complete(qp.ID, len(w.data), "bounds", cursor)
		n.tracef("fail c%d write: %v", qp.ID, err)
		return n.wireBusyPs
	}
	n.stats.PeerBytes += uint64(len(w.data))
	if n.cfg.RecordLandings {
		n.landings = append(n.landings, Landing{Rkey: w.rkey, Addr: mr.Addr + uint64(w.off), Len: len(w.data)})
	}
	cursor = n.wireBusyPs + wlat
	n.complete(qp.ID, len(w.data), "ok", cursor)
	n.tracef("exec c%d rk%d off=%d len=%d", qp.ID, w.rkey, w.off, len(w.data))
	return cursor
}

// complete retires a WQE onto the completion queue.
func (n *NIC) complete(qpID, ln int, status string, atPs int64) {
	n.pending--
	if status == "ok" {
		n.stats.Completed++
	} else {
		n.stats.Failed++
	}
	n.cq = append(n.cq, CQE{QP: qpID, Len: ln, Status: status, AtPs: atPs})
}

// wirePs is the serialization time of one WQE payload on the port.
func (n *NIC) wirePs(payload int) int64 {
	bits := float64(payload+wireHeaderBytes) * 8
	return int64(bits * 1000 / lineRateGbps) // Gbit/s -> ps/bit
}

// Deposit is the sender-side convenience verb the ingress path uses:
// split data into MTU-sized WQEs landing at MR offset off onward, post
// them, and ring the doorbell until the queue drains (re-ringing when
// the injector eats a doorbell, up to RetryLimit). Returns the modelled
// device time. On ErrRetryExhausted the remaining WQEs stay posted and
// a later ring drains them — nothing is lost, only late.
func (n *NIC) Deposit(id, off int, data []byte) (int64, error) {
	var lat int64
	for len(data) > 0 {
		c := len(data)
		if c > n.cfg.MTU {
			c = n.cfg.MTU
		}
		if err := n.PostWrite(id, off, data[:c]); err != nil {
			if !errors.Is(err, ErrSQFull) {
				return lat, err
			}
			// Backpressure: drain, then repost.
			l, derr := n.RingDoorbell(id)
			lat += l
			if derr != nil {
				return lat, derr
			}
			if n.qLen(id) > 0 {
				return lat, ErrRetryExhausted
			}
			if err := n.PostWrite(id, off, data[:c]); err != nil {
				return lat, err
			}
		}
		off += c
		data = data[c:]
	}
	for attempt := 0; ; attempt++ {
		l, err := n.RingDoorbell(id)
		lat += l
		if err != nil {
			return lat, err
		}
		if n.qLen(id) == 0 {
			return lat, nil
		}
		if attempt+1 >= n.cfg.RetryLimit {
			return lat, ErrRetryExhausted
		}
	}
}

// Preload stages data into a QP's MR at construction time: the same
// bounds-checked functional write as Deposit, with no wire or doorbell
// occupancy (the bytes arrived before the measured epoch).
func (n *NIC) Preload(id, off int, data []byte) error {
	qp := n.qps[id]
	if qp == nil {
		return ErrNoQP
	}
	mr := n.mrs[qp.Rkey]
	if mr == nil || !mr.Valid {
		return fmt.Errorf("rdma: preload c%d: rkey %d invalid", id, qp.Rkey)
	}
	if off < 0 || off+len(data) > mr.Len {
		return fmt.Errorf("rdma: preload c%d: off=%d len=%d outside MR (%d bytes)", id, off, len(data), mr.Len)
	}
	if _, err := n.cfg.Sys.Hier.PeerDMAWrite(mr.Addr+uint64(off), data); err != nil {
		return err
	}
	n.stats.Preloaded += uint64(len(data))
	if n.cfg.RecordLandings {
		n.landings = append(n.landings, Landing{Rkey: qp.Rkey, Addr: mr.Addr + uint64(off), Len: len(data)})
	}
	return nil
}

// PollCQ drains up to max completions (max <= 0 drains all).
func (n *NIC) PollCQ(max int) []CQE {
	if max <= 0 || max > len(n.cq) {
		max = len(n.cq)
	}
	out := n.cq[:max]
	n.cq = n.cq[max:]
	return out
}

// qLen returns a QP's send-queue depth.
func (n *NIC) qLen(id int) int {
	if qp := n.qps[id]; qp != nil {
		return len(qp.sq)
	}
	return 0
}

// Pending returns the NIC-wide count of posted-but-unretired WQEs.
func (n *NIC) Pending() int { return n.pending }

// DrainAll rings every QP's doorbell in creation order (the disarm+
// drain step of the chaos soak) and returns the summed device time.
func (n *NIC) DrainAll() (int64, error) {
	var lat int64
	for _, id := range n.qpOrder {
		l, err := n.RingDoorbell(id)
		lat += l
		if err != nil {
			return lat, err
		}
	}
	return lat, nil
}

// Landings returns the executed-write log (RecordLandings only).
func (n *NIC) Landings() []Landing { return n.landings }

// MRSnapshot returns the MR table in registration order.
func (n *NIC) MRSnapshot() []MR {
	out := make([]MR, 0, len(n.mrOrder))
	for _, rk := range n.mrOrder {
		out = append(out, *n.mrs[rk])
	}
	return out
}

// Stats returns a snapshot of the NIC counters.
func (n *NIC) Stats() Stats {
	s := n.stats
	s.MRs = len(n.mrOrder)
	for _, rk := range n.mrOrder {
		if n.mrs[rk].Valid {
			s.LiveMRs++
		}
	}
	if s.Doorbells > 0 {
		s.DoorbellsCoalesce = float64(n.drainedDB) / float64(s.Doorbells)
	}
	return s
}

// TraceString returns the canonical verb log (TraceOps only) — the
// byte-compared artifact of the determinism gates.
func (n *NIC) TraceString() string {
	if len(n.trace) == 0 {
		return ""
	}
	return strings.Join(n.trace, "\n") + "\n"
}
