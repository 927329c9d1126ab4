// Per-node replication state: a Raft-lite primary-backup protocol per
// replica group. One node holds a replica struct for every group whose
// member set includes it; all of a node's protocol state lives on that
// node's shard and is only ever touched by shard-local events (message
// closures delivered by the fabric, timers on the node's engine).
//
// Protocol shape (DESIGN.md §15):
//
//   - Terms + quorum votes elect the primary; vote grant requires the
//     candidate's log to be at least as up to date ((lastTerm, lastIdx)
//     lexicographic), so an acked — majority-replicated — write can
//     never be absent from a new primary's log.
//   - Writes append at the primary, replicate via Append messages with
//     the (prevIdx, prevTerm) consistency check, and commit (and ack to
//     the client) once a majority holds them in the primary's term. A
//     fresh primary appends a no-op entry to commit its inherited tail
//     before serving.
//   - Reads are served at the primary under a heartbeat lease: the
//     quorum-acked heartbeat send timestamp plus leasePs, paired with
//     voter-side stickiness (a follower refuses votes for leasePs after
//     valid leader contact), guarantees the old primary's lease expires
//     before a new primary can be elected — simulated clocks are exact,
//     so the argument needs no skew margin.
//   - Drain transfers leadership (TimeoutNow to the best-caught-up
//     backup, whose votes bypass stickiness) after the draining node
//     stops serving; kill freezes the node (handlers drop everything)
//     while its durable state survives for rejoin + catch-up.
package cluster

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// logEnt is one replicated write. Key < 0 marks a term-opening no-op.
type logEnt struct {
	Term int64
	Key  int
	Ver  int64
	WID  uint64
}

type appliedVal struct {
	Ver int64
	WID uint64
}

type pendingAck struct {
	opID    uint64
	startPs int64
}

// Replica roles.
const (
	follower = int8(iota)
	candidate
	leader
)

type node struct {
	c    *Cluster
	id   int // node index 0..Nodes-1
	addr int // fabric endpoint = id+1 (0 is the router)
	eng  *sim.Engine
	sys  *sim.System
	fl   *fleet.Fleet
	srv  *server.Server

	tr        *telemetry.Tracer
	replTrack telemetry.TrackID
	ctlTrack  telemetry.TrackID

	down     bool
	draining bool

	reps    map[int]*replica
	repList []*replica // group order — the only iteration order used

	// Counters (owned by this shard; aggregated post-run).
	promotions uint64
	redirects  uint64
	reads      uint64
	writes     uint64
}

type replica struct {
	n       *node
	group   int
	members []int // node ids, ascending
	selfPos int

	state     int8
	term      int64
	votedTerm int64
	votes     uint32
	xfer      bool // current candidacy is a leadership transfer
	leader    int  // last known leader node id, -1 unknown

	log     []logEnt
	commit  int // committed prefix length (1-based index of last committed)
	applied map[int]appliedVal
	widIdx  map[uint64]int // write id -> 1-based log index

	// Leader state.
	next      []int   // per member pos: next 1-based index to send
	match     []int   // per member pos: highest known replicated index
	ackSendTs []int64 // per member pos: latest acked heartbeat send ts
	pending   map[int][]pendingAck

	stickyUntil int64
	electionAt  int64
	rng         *rand.Rand

	// truncBelowCommit counts (impossible) truncations under the commit
	// point — a defensive invariant surfaced by the chaos checker.
	truncBelowCommit uint64
}

func (r *replica) majority() int { return len(r.members)/2 + 1 }

func (r *replica) pos(nodeID int) int {
	for i, m := range r.members {
		if m == nodeID {
			return i
		}
	}
	return -1
}

func (r *replica) lastTermIdx() (int64, int) {
	if len(r.log) == 0 {
		return 0, 0
	}
	return r.log[len(r.log)-1].Term, len(r.log)
}

// electionDelay staggers candidacies by member position plus a seeded
// jitter, so elections converge without split votes and identically
// across runs.
func (r *replica) electionDelay() int64 {
	base := electionPs
	step := base / 8
	return base + int64(r.selfPos)*step + r.rng.Int63n(step)
}

// tickElection is the follower's failure detector: a single self
// re-arming timer chain per replica. Down or draining nodes stay quiet
// but keep the chain alive so a rejoined node resumes detection.
func (r *replica) tickElection() {
	n := r.n
	now := n.eng.Now()
	if n.down || n.draining || r.state == leader {
		r.electionAt = now + r.electionDelay()
		n.eng.After(r.electionAt-now, r.tickElection)
		return
	}
	if now < r.electionAt {
		n.eng.After(r.electionAt-now, r.tickElection)
		return
	}
	r.startElection(false)
	r.electionAt = now + r.electionDelay()
	n.eng.After(r.electionAt-now, r.tickElection)
}

func (r *replica) startElection(xfer bool) {
	n := r.n
	r.state = candidate
	r.term++
	r.votedTerm = r.term
	r.votes = 1 << uint(r.selfPos)
	r.xfer = xfer
	r.leader = -1
	n.tr.Instant(n.replTrack, "election", n.eng.Now())
	if int(popcount(r.votes)) >= r.majority() {
		r.becomeLeader()
		return
	}
	term, lastT, lastI := r.term, int64(0), 0
	lastT, lastI = r.lastTermIdx()
	g, from := r.group, n.id
	for _, m := range r.members {
		if m == n.id {
			continue
		}
		mn := n.c.nodes[m]
		n.c.net.Send(n.addr, mn.addr, ctlBytes, func() {
			mn.onVoteReq(g, term, lastT, lastI, from, xfer)
		})
	}
}

func popcount(v uint32) int {
	c := 0
	for ; v != 0; v &= v - 1 {
		c++
	}
	return c
}

func (n *node) onVoteReq(g int, term, lastT int64, lastI, from int, xfer bool) {
	if n.down {
		return
	}
	r := n.reps[g]
	now := n.eng.Now()
	if term > r.term {
		r.stepDown(term)
	}
	myT, myI := r.lastTermIdx()
	upToDate := lastT > myT || (lastT == myT && lastI >= myI)
	granted := term == r.term && r.votedTerm < term && upToDate &&
		(xfer || now >= r.stickyUntil)
	if granted {
		r.votedTerm = term
		r.electionAt = now + r.electionDelay()
	}
	cn := n.c.nodes[from]
	respTerm := r.term
	n.c.net.Send(n.addr, cn.addr, ctlBytes, func() {
		cn.onVoteResp(g, respTerm, granted, n.id)
	})
}

func (n *node) onVoteResp(g int, term int64, granted bool, from int) {
	if n.down {
		return
	}
	r := n.reps[g]
	if term > r.term {
		r.stepDown(term)
		return
	}
	if r.state != candidate || term != r.term || !granted {
		return
	}
	r.votes |= 1 << uint(r.pos(from))
	if popcount(r.votes) >= r.majority() {
		r.becomeLeader()
	}
}

func (r *replica) becomeLeader() {
	n := r.n
	now := n.eng.Now()
	r.state = leader
	r.leader = n.id
	n.promotions++
	n.tr.Instant(n.replTrack, "promote", now)
	r.next = make([]int, len(r.members))
	r.match = make([]int, len(r.members))
	r.ackSendTs = make([]int64, len(r.members))
	for i := range r.members {
		r.next[i] = len(r.log) + 1
		r.ackSendTs[i] = math.MinInt64 / 4
	}
	r.pending = map[int][]pendingAck{}
	// A no-op entry in the new term commits the inherited tail before
	// any read can observe it (the Raft §8 argument).
	r.append(logEnt{Term: r.term, Key: -1})
	r.broadcastAppend()
	r.advanceCommit()
	term := r.term
	r.hbTick(term)
}

// hbTick drives heartbeats and protocol-level retransmission while this
// node leads this term; the chain dies on any term/role change.
func (r *replica) hbTick(term int64) {
	n := r.n
	if n.down || r.state != leader || r.term != term {
		return
	}
	for pos := range r.members {
		if pos != r.selfPos {
			r.sendAppendTo(pos)
		}
	}
	n.eng.After(heartbeatPs, func() { r.hbTick(term) })
}

func (r *replica) append(ent logEnt) {
	r.log = append(r.log, ent)
	if ent.Key >= 0 {
		r.widIdx[ent.WID] = len(r.log)
	}
	if r.match != nil { // leader-only bookkeeping
		r.match[r.selfPos] = len(r.log)
	}
}

func (r *replica) broadcastAppend() {
	for pos := range r.members {
		if pos != r.selfPos {
			r.sendAppendTo(pos)
		}
	}
}

const (
	ctlBytes      = 64 // votes, acks, heartbeats, redirects
	maxAppendEnts = 4
)

// sendAppendTo ships the next batch (possibly empty = pure heartbeat)
// to one follower, with the (prevIdx, prevTerm) consistency check.
func (r *replica) sendAppendTo(pos int) {
	n := r.n
	prevIdx := r.next[pos] - 1
	var prevTerm int64
	if prevIdx > 0 && prevIdx <= len(r.log) {
		prevTerm = r.log[prevIdx-1].Term
	}
	hi := prevIdx + maxAppendEnts
	if hi > len(r.log) {
		hi = len(r.log)
	}
	var ents []logEnt
	bytes := ctlBytes
	if hi > prevIdx {
		ents = append(ents, r.log[prevIdx:hi]...)
		for _, e := range ents {
			if e.Key >= 0 {
				bytes += n.c.cfg.MsgSize
			} else {
				bytes += 16
			}
		}
	}
	g, term, commit, sentPs, from := r.group, r.term, r.commit, n.eng.Now(), n.id
	fn := n.c.nodes[r.members[pos]]
	n.c.net.Send(n.addr, fn.addr, bytes, func() {
		fn.onAppend(g, term, prevIdx, prevTerm, ents, commit, sentPs, from)
	})
}

func (n *node) onAppend(g int, term int64, prevIdx int, prevTerm int64, ents []logEnt, commit int, sentPs int64, from int) {
	if n.down {
		return
	}
	r := n.reps[g]
	now := n.eng.Now()
	if term > r.term {
		r.stepDown(term)
	}
	ln := n.c.nodes[from]
	if term < r.term {
		// Capture the reply at send time: the callback runs on the
		// leader's shard, which must not read this replica's log.
		respTerm, next := r.term, len(r.log)+1
		n.c.net.Send(n.addr, ln.addr, ctlBytes, func() {
			ln.onAppendAck(g, respTerm, false, 0, next, sentPs, n.id)
		})
		return
	}
	// Valid leader contact: reset the failure detector and the vote
	// stickiness window that underpins the read lease.
	r.leader = from
	if r.state == candidate {
		r.state = follower
	}
	r.electionAt = now + r.electionDelay()
	if s := now + leasePs; s > r.stickyUntil {
		r.stickyUntil = s
	}

	success := false
	matchIdx, hint := 0, 0
	switch {
	case prevIdx > len(r.log): // gap
		hint = len(r.log) + 1
	case prevIdx > 0 && r.log[prevIdx-1].Term != prevTerm: // divergence
		hint = prevIdx
		if hint > r.commit+1 {
			// skip back past the divergent suffix faster
			hint = r.commit + 1
		}
	default:
		for k, ent := range ents {
			idx := prevIdx + k + 1
			if idx <= len(r.log) {
				if r.log[idx-1].Term == ent.Term {
					continue // already have it
				}
				if idx <= r.commit {
					r.truncBelowCommit++ // impossible by quorum safety
					continue
				}
				r.truncate(idx - 1)
			}
			r.append(ent)
		}
		success = true
		matchIdx = prevIdx + len(ents)
		if c := commit; c > r.commit {
			if c > matchIdx {
				c = matchIdx // only the verified prefix may commit
			}
			r.setCommit(c)
		}
	}
	respTerm := r.term
	n.c.net.Send(n.addr, ln.addr, ctlBytes, func() {
		ln.onAppendAck(g, respTerm, success, matchIdx, hint, sentPs, n.id)
	})
}

// truncate discards the log suffix after idx (keeps log[:idx]).
func (r *replica) truncate(idx int) {
	for i := idx; i < len(r.log); i++ {
		if r.log[i].Key >= 0 {
			delete(r.widIdx, r.log[i].WID)
		}
	}
	r.log = r.log[:idx]
	if r.match != nil && r.match[r.selfPos] > idx {
		r.match[r.selfPos] = idx
	}
}

func (n *node) onAppendAck(g int, term int64, success bool, matchIdx, hint int, sentPs int64, from int) {
	if n.down {
		return
	}
	r := n.reps[g]
	if term > r.term {
		r.stepDown(term)
		return
	}
	if r.state != leader || term != r.term {
		return
	}
	pos := r.pos(from)
	if pos < 0 {
		return
	}
	if sentPs > r.ackSendTs[pos] {
		r.ackSendTs[pos] = sentPs
	}
	if success {
		if matchIdx > r.match[pos] {
			r.match[pos] = matchIdx
		}
		if r.match[pos]+1 > r.next[pos] {
			r.next[pos] = r.match[pos] + 1
		}
		r.advanceCommit()
		if r.next[pos] <= len(r.log) {
			r.sendAppendTo(pos) // pipeline the catch-up
		}
	} else {
		if hint < r.next[pos] {
			r.next[pos] = hint
		}
		if r.next[pos] < 1 {
			r.next[pos] = 1
		}
		r.sendAppendTo(pos)
	}
}

// advanceCommit moves the leader's commit point to the highest index
// replicated on a majority in the current term.
func (r *replica) advanceCommit() {
	if r.state != leader {
		return
	}
	for i := len(r.log); i > r.commit; i-- {
		if r.log[i-1].Term != r.term {
			break // only current-term entries commit by counting
		}
		cnt := 0
		for _, m := range r.match {
			if m >= i {
				cnt++
			}
		}
		if cnt >= r.majority() {
			r.setCommit(i)
			break
		}
	}
}

// setCommit applies newly committed entries and acks pending clients.
func (r *replica) setCommit(c int) {
	n := r.n
	for idx := r.commit + 1; idx <= c; idx++ {
		ent := r.log[idx-1]
		if ent.Key >= 0 {
			if a := r.applied[ent.Key]; ent.Ver >= a.Ver {
				r.applied[ent.Key] = appliedVal{Ver: ent.Ver, WID: ent.WID}
			}
		}
		if waiters, ok := r.pending[idx]; ok {
			delete(r.pending, idx)
			now := n.eng.Now()
			for _, w := range waiters {
				n.tr.Span(n.replTrack, "repl", w.startPs, now-w.startPs)
				n.replyWriteOK(w.opID, ent.WID, ent.Ver)
			}
		}
	}
	r.commit = c
}

func (r *replica) stepDown(term int64) {
	r.term = term
	r.state = follower
	r.leader = -1
	r.votes = 0
	r.pending = map[int][]pendingAck{}
}

// leaseValid reports whether this primary may serve a linearizable
// read right now: a majority (counting itself) acked a heartbeat sent
// within the last leasePs.
func (r *replica) leaseValid(now int64) bool {
	if len(r.members) == 1 {
		return true
	}
	ts := make([]int64, len(r.members))
	copy(ts, r.ackSendTs)
	ts[r.selfPos] = now
	sort.Slice(ts, func(a, b int) bool { return ts[a] > ts[b] })
	return ts[r.majority()-1]+leasePs > now
}

// --- client operations ------------------------------------------------------

func (n *node) replyRedirect(opID uint64, g int) {
	n.redirects++
	r := n.reps[g]
	hint := r.leader
	if hint == n.id {
		// A node that cannot serve (draining, lease expired) must not
		// name itself: the router pins its cursor on any hinted member,
		// so a self-hint would glue clients to this node.
		hint = -1
	}
	rt := n.c.rt
	n.c.net.Send(n.addr, 0, ctlBytes, func() {
		rt.onResp(opID, respRedirect, hint, 0, 0)
	})
}

func (n *node) replyWriteOK(opID uint64, wid uint64, ver int64) {
	rt := n.c.rt
	n.c.net.Send(n.addr, 0, ctlBytes, func() {
		rt.onResp(opID, respOK, -1, ver, wid)
	})
}

func (n *node) replyReadOK(opID uint64, ver int64, wid uint64) {
	rt := n.c.rt
	n.c.net.Send(n.addr, 0, n.c.cfg.MsgSize, func() {
		rt.onResp(opID, respOK, -1, ver, wid)
	})
}

func (n *node) onClientWrite(g, key int, ver int64, wid uint64, conn int, opID uint64) {
	if n.down {
		return
	}
	r := n.reps[g]
	if n.draining || r.state != leader {
		n.replyRedirect(opID, g)
		return
	}
	n.writes++
	now := n.eng.Now()
	// Retry of a write this term already holds: idempotent ack/wait.
	if idx, ok := r.widIdx[wid]; ok {
		if idx <= r.commit {
			n.replyWriteOK(opID, wid, ver)
		} else {
			r.pending[idx] = append(r.pending[idx], pendingAck{opID: opID, startPs: now})
		}
		return
	}
	term0 := r.term
	// Full local processing (ULP + store) through the node's server and
	// fleet; replication starts once the local pipeline retires.
	n.srv.Submit(conn, func() {
		if n.down || r.state != leader || r.term != term0 {
			return // deposed mid-processing; the client retries
		}
		if idx, ok := r.widIdx[wid]; ok { // a retry raced local processing
			if idx <= r.commit {
				n.replyWriteOK(opID, wid, ver)
			} else {
				r.pending[idx] = append(r.pending[idx], pendingAck{opID: opID, startPs: now})
			}
			return
		}
		r.append(logEnt{Term: r.term, Key: key, Ver: ver, WID: wid})
		// The "repl" span starts when local processing retires and the
		// entry enters the log — it measures pure replication latency.
		r.pending[len(r.log)] = append(r.pending[len(r.log)], pendingAck{opID: opID, startPs: n.eng.Now()})
		r.broadcastAppend()
		r.advanceCommit() // single-member groups commit immediately
	})
}

func (n *node) onClientRead(g, key, conn int, opID uint64) {
	if n.down {
		return
	}
	r := n.reps[g]
	if n.draining || r.state != leader || !r.leaseValid(n.eng.Now()) {
		n.replyRedirect(opID, g)
		return
	}
	n.reads++
	n.srv.Submit(conn, func() {
		if n.down || r.state != leader {
			return
		}
		if !r.leaseValid(n.eng.Now()) {
			n.replyRedirect(opID, g)
			return
		}
		a := r.applied[key]
		n.replyReadOK(opID, a.Ver, a.WID)
	})
}

// --- fault-domain control plane ---------------------------------------------

func (n *node) onKill() {
	if n.down {
		return
	}
	n.down = true
	n.tr.Instant(n.ctlTrack, "kill", n.eng.Now())
}

func (n *node) onRejoin() {
	if !n.down {
		return
	}
	n.down = false
	n.tr.Instant(n.ctlTrack, "rejoin", n.eng.Now())
	for _, r := range n.repList {
		if r.state == leader || r.state == candidate {
			// A rejoining node never resumes leadership it held before
			// the crash; it rejoins as a follower and catches up.
			r.state = follower
			r.leader = -1
		}
		r.electionAt = n.eng.Now() + r.electionDelay()
	}
}

func (n *node) onDrain() {
	if n.draining || n.down {
		return
	}
	n.draining = true
	n.tr.Instant(n.ctlTrack, "drain", n.eng.Now())
	for _, r := range n.repList {
		if r.state != leader {
			continue
		}
		// Transfer leadership to the best-caught-up backup; its votes
		// bypass stickiness (the draining leader stops serving first,
		// so the lease argument is preserved).
		best, bestMatch := -1, -1
		for pos := range r.members {
			if pos == r.selfPos {
				continue
			}
			if r.match[pos] > bestMatch {
				best, bestMatch = pos, r.match[pos]
			}
		}
		if best < 0 {
			continue
		}
		g := r.group
		tn := n.c.nodes[r.members[best]]
		n.c.net.Send(n.addr, tn.addr, ctlBytes, func() {
			tn.onTimeoutNow(g)
		})
	}
}

func (n *node) onUndrain() {
	if !n.draining {
		return
	}
	n.draining = false
	n.tr.Instant(n.ctlTrack, "undrain", n.eng.Now())
}

func (n *node) onTimeoutNow(g int) {
	if n.down || n.draining {
		return
	}
	r := n.reps[g]
	if r.state == leader {
		return
	}
	r.startElection(true)
}
