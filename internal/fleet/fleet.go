// Package fleet orchestrates several SmartDIMM buffer devices — one per
// rank, spread across memory channels — behind a single offload.Backend.
// The paper evaluates one rank, but its target platform carries 6 DIMMs
// (12 ranks) per socket, each rank's buffer device an independent
// accelerator; the fleet shards CompCpy work across them.
//
// Responsibilities:
//
//   - Placement: pluggable policies decide each connection's home device
//     (round-robin, least-loaded, channel-affinity, sticky hashing) and
//     when to migrate it.
//   - Submission: per-device queues with descriptor batching model the
//     doorbell path; occupancy serializes requests on their home device,
//     which is what makes device count a throughput lever.
//   - Admission control: a saturated device sheds connections to
//     siblings (buffers migrate with them) instead of queueing
//     unboundedly; if every device is saturated the caller backpressures.
//   - Failure: a member whose offloads collapse to the CPU fallback
//     rung trips a per-member breaker — its connections drain and
//     reshard across survivors, and the member may be re-admitted after
//     a cooldown. With no survivors, connections go "homeless" and run
//     entirely on the CPU software rung (offload.SmartDIMM Soft mode).
//
// The fleet is deterministic: identical seeds and request streams yield
// byte-identical placement traces regardless of GOMAXPROCS, because all
// state is owned by the (single-threaded) system instance and every
// iteration over connections is order-stable.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/memctrl"
	"repro/internal/offload"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Policy selects how the fleet places and rebalances connections.
type Policy int

const (
	// RoundRobin homes new connections on devices in rotation and only
	// migrates at hard saturation (maxQueueDepth).
	RoundRobin Policy = iota
	// LeastLoaded homes and proactively rebalances by per-device score:
	// submission-queue depth plus scratchpad and write-queue pressure.
	LeastLoaded
	// Affinity pins each connection to a channel group (ranksPerChannel
	// ranks behind one physical channel) and balances within the group,
	// bounding a connection's traffic to one channel. Requires the
	// memory system's range mode (it is meaningless under 64B
	// interleaving, where every access already stripes all channels).
	Affinity
	// Sticky uses rendezvous (highest-random-weight) hashing of the
	// connection ID over the active member set: placement is a pure
	// function of (conn, members), and a member failure moves only the
	// failed member's connections.
	Sticky
)

// String returns the flag spelling of the policy.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "rr"
	case LeastLoaded:
		return "leastload"
	case Affinity:
		return "affinity"
	case Sticky:
		return "sticky"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses the flag spellings accepted by cmd/smartdimm-sim.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "rr":
		return RoundRobin, nil
	case "leastload":
		return LeastLoaded, nil
	case "affinity":
		return Affinity, nil
	case "sticky":
		return Sticky, nil
	}
	return 0, fmt.Errorf("fleet: unknown placement policy %q (want rr, leastload, affinity, or sticky)", s)
}

// The fleet's submission and placement constants.
const (
	// maxQueueDepth is the admission limit: a device whose submission
	// queue reaches it sheds the submitting connection to the least
	// loaded sibling.
	maxQueueDepth = 12
	// rebalanceGap is LeastLoaded's migration trigger: migrate the
	// submitting connection when its home queue is this much deeper
	// than the shallowest active member's.
	rebalanceGap = 2
	// batchSize is the descriptor count per doorbell ring; a Process
	// call's records are submitted in ceil(records/batchSize) batches.
	batchSize = 4
	// batchOverheadPs is the per-batch doorbell cost: 120 ns, an
	// uncached MMIO write plus fence.
	batchOverheadPs = 120 * sim.Ns
	// ranksPerChannel sizes Affinity's channel groups: two ranks behind
	// each physical DDR4 channel.
	ranksPerChannel = 2
	// mrReregPs is the extra occupancy a migration charges the target
	// when Config.RNIC is set: 480 ns for MR invalidate + re-register +
	// QP rebind (a few MMIO round trips and a doorbell).
	mrReregPs = 480 * sim.Ns
)

// Config parameterizes a fleet over an assembled multi-rank system.
type Config struct {
	Sys    *sim.System
	Policy Policy

	// MigrateCooldownOps rate-limits proactive rebalancing: a
	// connection migrates at most once per this many fleet submissions,
	// damping ping-pong when the load genuinely exceeds every member.
	// Zero selects 16. Drains ignore the cooldown.
	MigrateCooldownOps int
	// FailThreshold trips a member's breaker after this many consecutive
	// Process calls served entirely by the CPU fallback rung. Zero
	// selects 3 (mirroring the offload circuit breaker).
	FailThreshold int
	// CooldownOps is how many fleet submissions an open member sits out
	// before re-admission; 0 selects 256. Readmission is probational:
	// the first full-fallback Process after re-admission re-trips
	// immediately.
	CooldownOps int
	// RNIC, when non-nil, is the RDMA NIC whose memory registrations
	// cover this fleet's connection buffers (the peer-DMA data path).
	// The fleet then enforces MR-locality across migrations: the MR is
	// quiesced before a connection's buffers move — an in-flight
	// one-sided write NAKs instead of landing in pages about to be
	// freed — and re-registered over the new home's buffers afterwards,
	// so a record can only ever land on the rank owning its current
	// registration.
	RNIC *rdma.NIC
	// TracePlacement records every placement decision (placements,
	// migrations, sheds, trips, drains, readmissions) into the trace
	// returned by TraceString — the determinism gate's byte-compared
	// artifact. Off by default: long runs would accumulate MBs.
	TracePlacement bool
}

// member is one rank's buffer device plus its fleet-side queue state.
type member struct {
	idx     int
	backend *offload.SmartDIMM
	drv     *core.Driver
	dev     *core.Device
	ctl     *memctrl.Controller

	busyUntilPs int64   // device occupied through this instant
	inflight    []int64 // completion times of outstanding submissions

	state        memberState
	probation    bool   // just readmitted: one strike re-trips
	held         bool   // administratively drained (autoscaler): no auto-readmit
	cooldownLeft int    // fleet submissions until half-open
	consecFails  int    // consecutive full-fallback Process calls
	lastFallback uint64 // backend fallback counter at last check

	// ServicePs collects per-request device service time; Totals merges
	// the per-member histograms into the fleet sketch.
	ServicePs stats.Histogram
	// QDepth samples the member's submission-queue depth at every fleet
	// operation — the p50/p99 per-rank signal the autoscaler reads from
	// the telemetry registry (RegisterMetrics).
	QDepth stats.Histogram

	submitted, shed, migratedIn, migratedOut uint64
}

type memberState int

const (
	memberActive memberState = iota
	memberOpen
)

// homeRec tracks a connection's current home and buffer geometry.
type homeRec struct {
	conn       *offload.Conn
	home       int // member index; -1 = homeless (CPU soft rung)
	u          offload.ULP
	pages      int    // pages per buffer (Src and Dst each)
	lastMoveOp uint64 // fleet op count at the last migration
}

// Totals aggregates fleet-wide statistics from the per-member meters.
type Totals struct {
	Devices, Active int
	Degraded        stats.Degradation // merged over members + soft rung
	Descriptors     uint64
	Batches         uint64
	Sheds           uint64 // saturation-triggered migrations
	Migrations      uint64 // all buffer migrations (sheds, rebalances, drains)
	Trips           uint64 // breaker opens
	Readmits        uint64 // breaker closes
	SoftOps         uint64 // Process calls served homeless
	AdminDrains     uint64 // administrative (autoscaler) drains
	AdminAdmits     uint64 // administrative (autoscaler) admissions
	MigratedBytes   uint64
	BytesMoved      uint64          // summed channel traffic
	ServicePs       stats.Histogram // merged per-member service times
}

// Fleet shards ULP offloads across every SmartDIMM rank of a system.
// It implements offload.Backend.
type Fleet struct {
	cfg     Config
	members []*member
	conns   map[int]*homeRec
	soft    *offload.SmartDIMM // CPU-rung backend for homeless conns

	rrNext      int
	ops         uint64 // fleet-wide Process counter
	trips       uint64
	readmits    uint64
	softOps     uint64
	migrated    uint64
	shed        uint64
	migBytes    uint64
	descs       uint64
	batches     uint64
	adminDrains uint64 // autoscaler Drain calls
	adminAdmits uint64 // autoscaler Admit calls

	trace []string

	// tr/trTrack mirror cfg.Sys.Tracer: every tracef site doubles as a
	// Perfetto instant on the "fleet" track when tracing is enabled.
	tr      *telemetry.Tracer
	trTrack telemetry.TrackID
}

// New builds a fleet over every SmartDIMM rank cfg.Sys exposes. The
// system must have at least one rank (use sim.SystemConfig.SmartDIMMRanks).
func New(cfg Config) (*Fleet, error) {
	if cfg.Sys == nil {
		return nil, fmt.Errorf("fleet: nil system")
	}
	if len(cfg.Sys.Drivers) == 0 {
		return nil, fmt.Errorf("fleet: system has no SmartDIMM ranks (empty fleet)")
	}
	if cfg.MigrateCooldownOps <= 0 {
		cfg.MigrateCooldownOps = 16
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.CooldownOps <= 0 {
		cfg.CooldownOps = 256
	}
	f := &Fleet{cfg: cfg, conns: make(map[int]*homeRec)}
	if tr := cfg.Sys.Tracer; tr != nil {
		f.tr = tr
		f.trTrack = tr.Track("fleet")
	}
	for i, drv := range cfg.Sys.Drivers {
		m := &member{
			idx:     i,
			drv:     drv,
			dev:     cfg.Sys.Devs[i],
			backend: &offload.SmartDIMM{Sys: cfg.Sys, Driver: drv},
		}
		if i < len(cfg.Sys.Ctls) {
			m.ctl = cfg.Sys.Ctls[i]
		}
		// Fleet service-time sketches live for the whole run at fleet
		// request rates: bounded mode keeps their memory flat.
		m.ServicePs.SetBounded()
		m.QDepth.SetBounded()
		f.members = append(f.members, m)
	}
	f.soft = &offload.SmartDIMM{Sys: cfg.Sys, Soft: true}
	return f, nil
}

// Name implements offload.Backend.
func (f *Fleet) Name() string {
	return fmt.Sprintf("SmartDIMM-fleet[%d,%s]", len(f.members), f.cfg.Policy)
}

// Supports implements offload.Backend: every member handles both ULPs.
func (f *Fleet) Supports(offload.ULP) bool { return true }

// InlineSource implements offload.Backend: connection buffers live on
// the home device; CompCpy consumes the page cache in place.
func (f *Fleet) InlineSource() bool { return true }

// Staged implements offload.Backend: the hint goes to the connection's
// home device, if it has one. It moves no fleet state.
func (f *Fleet) Staged(u offload.ULP, conn *offload.Conn, payload []byte) {
	if rec, ok := f.conns[conn.ID]; ok && rec.home >= 0 {
		f.members[rec.home].backend.Staged(u, conn, payload)
	}
}

// Members returns the fleet size (including tripped members).
func (f *Fleet) Members() int { return len(f.members) }

// ActiveMembers returns how many members currently accept placements.
func (f *Fleet) ActiveMembers() int {
	n := 0
	for _, m := range f.members {
		if m.state == memberActive {
			n++
		}
	}
	return n
}

// NewConn implements offload.Backend: the policy picks a home device and
// the connection's buffers are allocated from that rank.
func (f *Fleet) NewConn(u offload.ULP, id, msgSize int) (*offload.Conn, error) {
	size := offload.LayoutFor(u).BufBytes(msgSize)
	pages := (size + core.PageSize - 1) / core.PageSize
	home := f.placeNew(id)
	if home < 0 {
		// No active members: allocate via the soft backend (rank 0's
		// range; processing never touches the device).
		conn, err := f.soft.NewConn(u, id, msgSize)
		if err != nil {
			return nil, err
		}
		f.conns[id] = &homeRec{conn: conn, home: -1, u: u, pages: pages}
		f.tracef("place c%d -> soft", id)
		return conn, nil
	}
	conn, err := f.members[home].backend.NewConn(u, id, msgSize)
	if err != nil {
		return nil, fmt.Errorf("fleet: conn %d on dev %d: %w", id, home, err)
	}
	f.conns[id] = &homeRec{conn: conn, home: home, u: u, pages: pages}
	f.tracef("place c%d -> d%d", id, home)
	return conn, nil
}

// Process implements offload.Backend: the request is routed to its
// connection's home device, waiting out that device's submission queue;
// descriptors are batched per doorbell; the wait and doorbell overhead
// are charged as device time on top of the member's own processing cost.
func (f *Fleet) Process(u offload.ULP, coreID int, conn *offload.Conn, payloadLen int) (offload.Result, error) {
	rec, ok := f.conns[conn.ID]
	if !ok {
		return offload.Result{}, fmt.Errorf("fleet: unknown conn %d", conn.ID)
	}
	now := f.cfg.Sys.Engine.Now()
	f.ops++
	f.tickCooldowns()
	f.retire(now)

	if rec.home < 0 {
		if !f.rehome(rec, now) {
			f.softOps++
			return f.soft.Process(u, coreID, conn, payloadLen)
		}
	}
	f.rebalance(rec, now)

	m := f.members[rec.home]
	wait := m.busyUntilPs - now
	if wait < 0 {
		wait = 0
	}
	res, err := m.backend.Process(u, coreID, conn, payloadLen)
	if err != nil {
		return res, err
	}
	m.submitted++
	f.noteOutcome(m, res, now)

	nBatches := int64((res.Records + batchSize - 1) / batchSize)
	overhead := nBatches * batchOverheadPs
	f.descs += uint64(res.Records)
	f.batches += uint64(nBatches)

	svc := res.CPUPs + overhead
	done := now + wait + svc
	if m.state == memberActive {
		// A member that tripped during this call did no device work
		// (its records fell back to the CPU rung) and was already
		// drained; don't hold occupancy against it.
		m.busyUntilPs = done
		m.inflight = append(m.inflight, done)
	}
	m.ServicePs.Observe(float64(svc))

	res.DevicePs += wait + overhead
	return res, nil
}

// retire drops completed submissions from every member's queue and
// samples each active member's depth into its QDepth sketch (one
// uniform sample per fleet operation).
func (f *Fleet) retire(now int64) {
	for _, m := range f.members {
		q := m.inflight[:0]
		for _, t := range m.inflight {
			if t > now {
				q = append(q, t)
			}
		}
		m.inflight = q
		if m.state == memberActive {
			m.QDepth.Observe(float64(len(m.inflight)))
		}
	}
}

// tickCooldowns ages open members toward probational re-admission.
func (f *Fleet) tickCooldowns() {
	for _, m := range f.members {
		// Held members were drained administratively (autoscaler): only
		// an explicit Admit brings them back, never the breaker cooldown.
		if m.state != memberOpen || m.held {
			continue
		}
		if m.cooldownLeft--; m.cooldownLeft <= 0 {
			m.state = memberActive
			m.probation = true
			m.consecFails = 0
			f.readmits++
			f.tracef("readmit d%d", m.idx)
		}
	}
}

// noteOutcome watches the member's degradation counters: a Process call
// whose every record fell back to the CPU rung counts as a failure, and
// FailThreshold consecutive failures (one, on probation) trip the member.
func (f *Fleet) noteOutcome(m *member, res offload.Result, now int64) {
	cur := m.backend.Degraded.FallbackOps
	delta := cur - m.lastFallback
	m.lastFallback = cur
	if res.Records > 0 && delta >= uint64(res.Records) {
		m.consecFails++
	} else {
		m.consecFails = 0
		m.probation = false
	}
	if m.consecFails >= f.cfg.FailThreshold || (m.probation && m.consecFails > 0) {
		f.trip(m, now)
	}
}

// trip opens a member's breaker and drains its connections to survivors.
func (f *Fleet) trip(m *member, now int64) {
	if m.state == memberOpen {
		return
	}
	m.state = memberOpen
	m.probation = false
	m.consecFails = 0
	m.cooldownLeft = f.cfg.CooldownOps
	m.inflight = m.inflight[:0]
	m.busyUntilPs = 0
	f.trips++
	f.tracef("trip d%d", m.idx)
	f.drain(m, now)
}

// drain migrates every connection homed on m to a surviving member
// (policy-chosen), or marks it homeless when no member survives.
// Iteration is in ascending connection ID so traces are deterministic.
func (f *Fleet) drain(m *member, now int64) {
	var ids []int
	for id, rec := range f.conns {
		if rec.home == m.idx {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		rec := f.conns[id]
		to := f.placeDrain(id)
		if to < 0 {
			f.strand(m, rec)
			f.tracef("drain c%d d%d -> soft", id, m.idx)
			continue
		}
		if err := f.migrate(rec, to, now); err != nil {
			// Target full: the connection keeps its buffers and runs on
			// the CPU rung until re-homed.
			f.strand(m, rec)
			f.tracef("drain c%d d%d -> soft (%v)", id, m.idx, err)
			continue
		}
		f.tracef("drain c%d d%d -> d%d", id, m.idx, to)
	}
}

// strand marks a connection homeless on the CPU soft rung without moving
// its buffers. Any record the failed member still holds on them must be
// aborted first: a partially consumed offload leaves lines parked in the
// Scratchpad, and Soft-mode processing reuses the buffers without the
// re-registration that would implicitly retire it — the stale record's
// self-recycle path would swap old output over the CPU's writes.
func (f *Fleet) strand(m *member, rec *homeRec) {
	m.drv.AbortBuffer(rec.conn.Src, rec.pages)
	m.drv.AbortBuffer(rec.conn.Dst, rec.pages)
	// The connection's RDMA MR (if any) stays valid: stranding fails the
	// buffer *device*, not the DRAM behind it — the buffers don't move,
	// so peer deposits keep landing in the same registered region and
	// the CPU soft rung consumes them in place. MR-locality still holds.
	rec.home = -1
}

// rehome tries to find a homeless connection a live device again.
func (f *Fleet) rehome(rec *homeRec, now int64) bool {
	to := f.placeDrain(rec.conn.ID)
	if to < 0 {
		return false
	}
	if err := f.migrate(rec, to, now); err != nil {
		return false
	}
	f.tracef("rehome c%d -> d%d", rec.conn.ID, to)
	return true
}

// rebalance applies the policy's migration rule before a submission:
// LeastLoaded migrates once its home is rebalanceGap deeper than the
// shallowest member; every policy sheds at maxQueueDepth saturation.
func (f *Fleet) rebalance(rec *homeRec, now int64) {
	m := f.members[rec.home]
	depth := len(m.inflight)
	min := f.minDepth()
	if m.state == memberActive && depth < maxQueueDepth &&
		!(f.cfg.Policy == LeastLoaded && depth >= min+rebalanceGap) {
		return
	}
	// Only move when it strictly improves the connection's queue and
	// the connection hasn't just moved — otherwise equilibrium loads
	// ping-pong between equally deep members. Under the peer-DMA data
	// path a migration additionally quiesces and re-registers the
	// connection's MR (NAKing any deposit in flight), so the policy
	// demands a deeper imbalance before moving — MR-locality makes
	// ping-pong strictly more expensive than queue depth alone says.
	better := min + 1
	if f.cfg.RNIC != nil {
		better = min + 2
	}
	if better >= depth || f.ops-rec.lastMoveOp < uint64(f.cfg.MigrateCooldownOps) {
		return
	}
	to := f.shedTarget(rec)
	if to < 0 || to == rec.home {
		return // no better sibling; backpressure on the home queue
	}
	from := rec.home
	saturated := depth >= maxQueueDepth
	if err := f.migrate(rec, to, now); err != nil {
		return
	}
	if saturated {
		f.shed++
		f.members[from].shed++
		f.tracef("shed c%d d%d -> d%d", rec.conn.ID, from, to)
	} else {
		f.tracef("rebalance c%d d%d -> d%d", rec.conn.ID, from, to)
	}
}

// migrate moves a connection's buffers to member `to`: allocate on the
// target, copy the staged source data device-to-device, free the old
// pages, and charge the copy to the target's occupancy.
func (f *Fleet) migrate(rec *homeRec, to int, now int64) error {
	t := f.members[to]
	newSrc, err := t.drv.AllocPages(rec.pages)
	if err != nil {
		return err
	}
	newDst, err := t.drv.AllocPages(rec.pages)
	if err != nil {
		t.drv.FreePages(newSrc, rec.pages)
		return err
	}
	conn := rec.conn
	// Peer-DMA: quiesce the connection's MR before anything moves. An
	// RDMA write is external to the fleet — without this, a WQE posted
	// before the migration could execute mid-copy and land in the old
	// pages after their contents were snapshotted (and just before they
	// return to the allocator, i.e. into memory a later owner receives).
	// Invalidated, the in-flight write NAKs and retries against the
	// QP's post-migration binding instead: the PR-3 strand/abort rule
	// extended to externally-writable buffers.
	var quiesced uint32
	if f.cfg.RNIC != nil {
		quiesced = f.cfg.RNIC.QuiesceQP(conn.ID)
	}
	// Both buffers move: Src carries staged payloads, Dst carries
	// processed output the server may not have transmitted yet. Reading
	// Dst through DMA also retires any record the old device still holds
	// in flight for these pages, materializing its output on the way out.
	bufBytes := rec.pages * core.PageSize
	data, lat, err := f.cfg.Sys.Hier.DMARead(nil, conn.Src, conn.Size)
	if err == nil {
		err = f.cfg.Sys.Hier.DMAWrite(newSrc, data)
	}
	var out []byte
	if err == nil {
		var dlat int64
		out, dlat, err = f.cfg.Sys.Hier.DMARead(nil, conn.Dst, bufBytes)
		lat += dlat
	}
	if err == nil {
		err = f.cfg.Sys.Hier.DMAWrite(newDst, out)
	}
	if err != nil {
		t.drv.FreePages(newSrc, rec.pages)
		t.drv.FreePages(newDst, rec.pages)
		if quiesced != 0 {
			// The buffers did not move; restore ingress over them.
			f.cfg.RNIC.RebindQP(conn.ID, conn.Src, conn.Size)
		}
		return err
	}
	if rec.home >= 0 {
		old := f.members[rec.home]
		// A record stranded on the old device by a failed operation must
		// not outlive the buffer: abort anything still registered before
		// the pages go back to the allocator, or the device's Scratchpad,
		// Config Memory and Translation Table entries would leak (and a
		// later owner of the pages could retire someone else's record).
		old.drv.AbortBuffer(conn.Src, rec.pages)
		old.drv.AbortBuffer(conn.Dst, rec.pages)
		old.drv.FreePages(conn.Src, rec.pages)
		old.drv.FreePages(conn.Dst, rec.pages)
		old.migratedOut++
	} else {
		// Homeless buffers were allocated from rank 0's range (soft
		// NewConn) or stranded by a failed migration target; return
		// them to whichever driver owns the address.
		if o := f.ownerOf(conn.Src); o != nil {
			o.AbortBuffer(conn.Src, rec.pages)
			o.AbortBuffer(conn.Dst, rec.pages)
			o.FreePages(conn.Src, rec.pages)
			o.FreePages(conn.Dst, rec.pages)
		}
	}
	conn.Src, conn.Dst = newSrc, newDst
	rec.home = to
	rec.lastMoveOp = f.ops
	if quiesced != 0 {
		// MR-locality: register the new home's buffer and point the QP
		// at it so stale in-flight WQEs retarget here. The rebind costs
		// the target a few MMIO round trips on top of the copy.
		if _, rerr := f.cfg.RNIC.RebindQP(conn.ID, conn.Src, conn.Size); rerr != nil {
			return fmt.Errorf("fleet: rebind c%d MR after migration: %w", conn.ID, rerr)
		}
		lat += mrReregPs
		f.tracef("rereg c%d -> d%d", conn.ID, to)
	}
	t.migratedIn++
	if t.busyUntilPs < now {
		t.busyUntilPs = now
	}
	t.busyUntilPs += lat
	f.migrated++
	f.migBytes += uint64(conn.Size)
	return nil
}

// ownerOf maps a physical address back to the rank driver that owns it.
func (f *Fleet) ownerOf(addr uint64) *core.Driver {
	for _, m := range f.members {
		if addr >= m.drv.Base && addr < m.drv.Base+f.devCap() {
			return m.drv
		}
	}
	return nil
}

func (f *Fleet) devCap() uint64 {
	if len(f.members) < 2 {
		return ^uint64(0) >> 1
	}
	return f.members[1].drv.Base - f.members[0].drv.Base
}

// --- placement ------------------------------------------------------------

// score is LeastLoaded's device pressure metric: submission-queue depth
// dominating, with scratchpad occupancy and write-queue pressure as
// fractional tie-breakers.
func (m *member) score() float64 {
	s := float64(len(m.inflight))
	if total := m.dev.ScratchpadFreePages(); total >= 0 {
		occ := m.dev.ScratchpadOccupancyBytes()
		cap := occ + total*core.PageSize
		if cap > 0 {
			s += float64(occ) / float64(cap)
		}
	}
	if m.ctl != nil {
		s += m.ctl.WriteQueuePressure()
	}
	return s
}

func (f *Fleet) minDepth() int {
	min := int(^uint(0) >> 1)
	for _, m := range f.members {
		if m.state == memberActive && len(m.inflight) < min {
			min = len(m.inflight)
		}
	}
	return min
}

// placeNew picks a home for a brand-new connection, or -1 if no member
// is active.
func (f *Fleet) placeNew(id int) int {
	switch f.cfg.Policy {
	case RoundRobin:
		return f.nextActiveRR()
	case LeastLoaded:
		return f.leastLoadedOf(f.activeSet())
	case Affinity:
		return f.leastLoadedOf(f.affinityGroup(id))
	case Sticky:
		return f.rendezvous(id, f.activeSet())
	}
	return f.nextActiveRR()
}

// placeDrain picks a new home for a connection leaving a failed member.
func (f *Fleet) placeDrain(id int) int {
	switch f.cfg.Policy {
	case Sticky:
		return f.rendezvous(id, f.activeSet())
	case Affinity:
		return f.leastLoadedOf(f.affinityGroup(id))
	default:
		return f.leastLoadedOf(f.activeSet())
	}
}

// shedTarget picks the sibling an overloaded home sheds to.
func (f *Fleet) shedTarget(rec *homeRec) int {
	switch f.cfg.Policy {
	case Affinity:
		if to := f.leastLoadedOf(f.without(f.affinityGroup(rec.conn.ID), rec.home)); to >= 0 {
			return to
		}
		// Whole group saturated or dead: spill across groups rather
		// than queueing unboundedly.
		return f.leastLoadedOf(f.without(f.activeSet(), rec.home))
	case Sticky:
		// Next-highest rendezvous weight keeps shed placement a pure
		// function of the connection ID.
		return f.rendezvous(rec.conn.ID, f.without(f.activeSet(), rec.home))
	default:
		return f.leastLoadedOf(f.without(f.activeSet(), rec.home))
	}
}

// activeSet lists active member indices in order.
func (f *Fleet) activeSet() []int {
	var set []int
	for _, m := range f.members {
		if m.state == memberActive {
			set = append(set, m.idx)
		}
	}
	return set
}

func (f *Fleet) without(set []int, idx int) []int {
	out := set[:0:0]
	for _, i := range set {
		if i != idx {
			out = append(out, i)
		}
	}
	return out
}

// affinityGroup lists the active members of a connection's channel
// group: ranksPerChannel consecutive ranks behind one physical channel.
func (f *Fleet) affinityGroup(id int) []int {
	groups := (len(f.members) + ranksPerChannel - 1) / ranksPerChannel
	g := id % groups
	if g < 0 {
		g = -g
	}
	var set []int
	for i := g * ranksPerChannel; i < (g+1)*ranksPerChannel && i < len(f.members); i++ {
		if f.members[i].state == memberActive {
			set = append(set, i)
		}
	}
	return set
}

// nextActiveRR rotates over active members.
func (f *Fleet) nextActiveRR() int {
	n := len(f.members)
	for k := 0; k < n; k++ {
		i := (f.rrNext + k) % n
		if f.members[i].state == memberActive {
			f.rrNext = i + 1
			return i
		}
	}
	return -1
}

// leastLoadedOf returns the lowest-score member of the set, breaking
// exact ties round-robin so simultaneous placements spread out instead
// of piling onto member 0. Returns -1 for an empty set.
func (f *Fleet) leastLoadedOf(set []int) int {
	if len(set) == 0 {
		return -1
	}
	best, bestScore := -1, 0.0
	n := len(set)
	for k := 0; k < n; k++ {
		i := set[(f.rrNext+k)%n]
		if s := f.members[i].score(); best < 0 || s < bestScore {
			best, bestScore = i, s
		}
	}
	f.rrNext++
	return best
}

// rendezvous picks the member with the highest hash weight for the
// connection — stable under membership change except for the members
// that actually left.
func (f *Fleet) rendezvous(id int, set []int) int {
	best, bestW := -1, uint64(0)
	for _, i := range set {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%d", id, i)
		if w := h.Sum64(); best < 0 || w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

// --- failure API, introspection -------------------------------------------

// Fail force-trips member i's breaker (chaos schedules use this to model
// a rank failure directly); its connections drain and reshard.
func (f *Fleet) Fail(i int) error {
	if i < 0 || i >= len(f.members) {
		return fmt.Errorf("fleet: no member %d", i)
	}
	f.trip(f.members[i], f.cfg.Sys.Engine.Now())
	return nil
}

// Readmit returns a tripped member to service immediately (probational).
func (f *Fleet) Readmit(i int) error {
	if i < 0 || i >= len(f.members) {
		return fmt.Errorf("fleet: no member %d", i)
	}
	m := f.members[i]
	if m.state == memberOpen {
		m.state = memberActive
		m.probation = true
		m.consecFails = 0
		f.readmits++
		f.tracef("readmit d%d", i)
	}
	return nil
}

// QueueDepth returns member i's current submission-queue depth.
func (f *Fleet) QueueDepth(i int) int { return len(f.members[i].inflight) }

// IsActive reports whether member i currently accepts placements.
func (f *Fleet) IsActive(i int) bool {
	return i >= 0 && i < len(f.members) && f.members[i].state == memberActive
}

// Drain administratively removes member i from service: its connections
// reshard across the survivors and the member is *held* out — unlike a
// breaker trip, the readmission cooldown never brings it back; only
// Admit does. This is the autoscaler's scale-down primitive. Draining
// the last active member is refused: the fleet never scales to zero.
func (f *Fleet) Drain(i int) error {
	if i < 0 || i >= len(f.members) {
		return fmt.Errorf("fleet: no member %d", i)
	}
	m := f.members[i]
	if m.state == memberActive && f.ActiveMembers() <= 1 {
		return fmt.Errorf("fleet: refusing to drain last active member %d", i)
	}
	if m.state == memberActive {
		m.state = memberOpen
		m.probation = false
		m.consecFails = 0
		m.inflight = m.inflight[:0]
		m.busyUntilPs = 0
		f.tracef("ascale drain d%d", i)
		f.drain(m, f.cfg.Sys.Engine.Now())
	}
	m.held = true
	f.adminDrains++
	return nil
}

// Admit returns an administratively drained (or tripped) member to
// service immediately and releases the hold. Admission is not
// probational: the member didn't fail, the autoscaler just parked it.
func (f *Fleet) Admit(i int) error {
	if i < 0 || i >= len(f.members) {
		return fmt.Errorf("fleet: no member %d", i)
	}
	m := f.members[i]
	m.held = false
	if m.state == memberOpen {
		m.state = memberActive
		m.probation = false
		m.consecFails = 0
		m.cooldownLeft = 0
		f.tracef("ascale admit d%d", i)
	}
	f.adminAdmits++
	return nil
}

// SetPolicy switches the placement policy live. Existing homes stay
// where they are; the new policy governs placements, sheds, and drains
// from the next operation on. The autoscaler uses this to flip from
// rr/affinity to leastload when per-rank queue depths diverge.
func (f *Fleet) SetPolicy(p Policy) {
	if f.cfg.Policy == p {
		return
	}
	f.cfg.Policy = p
	f.tracef("policy -> %s", p)
}

// Policy returns the placement policy currently in force.
func (f *Fleet) Policy() Policy { return f.cfg.Policy }

// RegisterMetrics publishes the fleet into a telemetry registry: each
// rank's queue-depth sketch under fleet.rank<i>.qdepth (the autoscaler's
// per-rank signal — p50/p99 arrive as .p50/.p99 samples), a live
// per-rank activity bitmap under fleet.state, and the fleet totals under
// fleet.
func (f *Fleet) RegisterMetrics(reg *telemetry.Registry) {
	for _, m := range f.members {
		reg.Register(fmt.Sprintf("fleet.rank%d.qdepth", m.idx), &m.QDepth)
	}
	// Sample names are precomputed: collectors run on every scrape, and a
	// per-emit Sprintf would be the one allocation left on the scraper's
	// zero-alloc snapshot path.
	rankNames := make([]string, len(f.members))
	for i, m := range f.members {
		rankNames[i] = fmt.Sprintf("rank%d", m.idx)
	}
	reg.Register("fleet.state", telemetry.CollectorFunc(func(emit func(telemetry.Sample)) {
		for i, m := range f.members {
			v := 0.0
			if m.state == memberActive {
				v = 1
			}
			emit(telemetry.Sample{Name: rankNames[i], Value: v})
		}
	}))
	reg.Register("fleet", telemetry.CollectorFunc(func(emit func(telemetry.Sample)) {
		f.Totals().Collect(emit)
	}))
}

// Home returns the member index a connection currently lives on, or -1
// if it is homeless (CPU soft rung) or unknown.
func (f *Fleet) Home(connID int) int {
	if rec, ok := f.conns[connID]; ok {
		return rec.home
	}
	return -1
}

// OutstandingPages sums pages currently allocated across every rank's
// driver — the fleet-wide half of the chaos conservation invariant.
func (f *Fleet) OutstandingPages() int {
	n := 0
	for _, d := range f.cfg.Sys.Drivers {
		n += d.OutstandingPages()
	}
	return n
}

// ExpectedPages sums the pages the fleet's live connections should hold
// (Src + Dst per connection), wherever they currently live.
func (f *Fleet) ExpectedPages() int {
	n := 0
	for _, rec := range f.conns {
		n += 2 * rec.pages
	}
	return n
}

// Totals aggregates the per-member meters into fleet-wide statistics,
// merging percentile sketches without re-sorting (stats.Histogram.Merge).
func (f *Fleet) Totals() Totals {
	t := Totals{
		Devices:       len(f.members),
		Active:        f.ActiveMembers(),
		Descriptors:   f.descs,
		Batches:       f.batches,
		Sheds:         f.shed,
		Migrations:    f.migrated,
		Trips:         f.trips,
		Readmits:      f.readmits,
		SoftOps:       f.softOps,
		AdminDrains:   f.adminDrains,
		AdminAdmits:   f.adminAdmits,
		MigratedBytes: f.migBytes,
	}
	for _, m := range f.members {
		t.Degraded.PrimaryOps += m.backend.Degraded.PrimaryOps
		t.Degraded.FallbackOps += m.backend.Degraded.FallbackOps
		t.ServicePs.Merge(&m.ServicePs)
	}
	t.Degraded.FallbackOps += f.soft.Degraded.FallbackOps
	t.Degraded.Opens, t.Degraded.Closes = f.trips, f.readmits
	t.BytesMoved = f.cfg.Sys.MemoryBytesMoved()
	return t
}

// Collect implements telemetry.Collector, flattening the merged
// degradation and service-time aggregates under dotted prefixes.
func (t Totals) Collect(emit func(telemetry.Sample)) {
	emit(telemetry.Sample{Name: "devices", Value: float64(t.Devices)})
	emit(telemetry.Sample{Name: "active", Value: float64(t.Active)})
	emit(telemetry.Sample{Name: "descriptors", Value: float64(t.Descriptors)})
	emit(telemetry.Sample{Name: "batches", Value: float64(t.Batches)})
	emit(telemetry.Sample{Name: "sheds", Value: float64(t.Sheds)})
	emit(telemetry.Sample{Name: "migrations", Value: float64(t.Migrations)})
	emit(telemetry.Sample{Name: "trips", Value: float64(t.Trips)})
	emit(telemetry.Sample{Name: "readmits", Value: float64(t.Readmits)})
	emit(telemetry.Sample{Name: "soft_ops", Value: float64(t.SoftOps)})
	emit(telemetry.Sample{Name: "admin_drains", Value: float64(t.AdminDrains)})
	emit(telemetry.Sample{Name: "admin_admits", Value: float64(t.AdminAdmits)})
	emit(telemetry.Sample{Name: "migrated_bytes", Value: float64(t.MigratedBytes)})
	emit(telemetry.Sample{Name: "bytes_moved", Value: float64(t.BytesMoved)})
	t.Degraded.Collect(func(s telemetry.Sample) {
		s.Name = "degraded." + s.Name
		emit(s)
	})
	t.ServicePs.Collect(func(s telemetry.Sample) {
		s.Name = "service_ps." + s.Name
		emit(s)
	})
}

// TraceString renders the placement trace (TracePlacement must be set).
// Identical configurations and request streams produce byte-identical
// traces regardless of GOMAXPROCS — the fleet determinism gate.
func (f *Fleet) TraceString() string {
	return strings.Join(f.trace, "\n")
}

func (f *Fleet) tracef(format string, args ...any) {
	if !f.cfg.TracePlacement && f.tr == nil {
		return
	}
	s := fmt.Sprintf(format, args...)
	if f.cfg.TracePlacement {
		f.trace = append(f.trace, s)
	}
	f.tr.Instant(f.trTrack, s, f.cfg.Sys.Engine.Now())
}
