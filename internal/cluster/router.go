// The router is the cluster's client-side front-end, living alone on
// shard 0: a closed-loop population of client connections issuing
// single-writer-register operations (each connection writes only its own
// key, with strictly increasing versions; reads target any key), routing
// every operation to the believed primary of the key's replica group,
// and following redirects / retrying timeouts until the operation acks.
//
// The router is also the linearizability witness: it records every
// operation's invocation and ack timestamps plus the observed
// (version, write-id) — the complete history the checker in check.go
// replays. Write retries reuse the original write-id and version, so a
// timed-out-but-committed write stays idempotent at the replicas and the
// history stays single-writer-monotone per key.
package cluster

import (
	"math/rand"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// OpKind discriminates history operations.
type OpKind uint8

// Operation kinds.
const (
	OpWrite OpKind = iota
	OpRead
)

// String names the kind.
func (k OpKind) String() string {
	if k == OpWrite {
		return "write"
	}
	return "read"
}

type respKind uint8

const (
	respOK respKind = iota
	respRedirect
)

// Op is one client operation in the recorded history.
type Op struct {
	ID    uint64
	Conn  int
	Kind  OpKind
	Key   int
	Group int
	// Ver/WID identify a write (assigned at invocation, reused across
	// retries); for reads they are zero.
	Ver int64
	WID uint64
	// InvokePs is the first attempt's start; AckPs is the ack time, -1
	// if the operation never completed before the run ended.
	InvokePs int64
	AckPs    int64
	// ObsVer/ObsWID are the value a read observed (zero = empty key).
	ObsVer  int64
	ObsWID  uint64
	Retries int
}

type router struct {
	c   *Cluster
	eng *sim.Engine
	rng *rand.Rand

	tr      *telemetry.Tracer
	opTrack telemetry.TrackID

	nextOp  uint64
	nextWID uint64
	history []Op    // history[id-1]; never reordered
	nextVer []int64 // per key (= per connection)

	// leaderHint[g] is a position cursor into the group's member list;
	// redirect hints snap it, timeouts advance it round-robin.
	leaderHint []int

	stopped     bool // Quiesce: no new operations are invoked
	measuring   bool
	measureFrom int64
	acked       uint64
	ackedWrites uint64
	ackedReads  uint64
	timeouts    uint64
	retries     uint64
	redirects   uint64
}

func newRouter(c *Cluster) *router {
	rt := &router{
		c:          c,
		eng:        c.se.Shard(0),
		rng:        rand.New(rand.NewSource(c.cfg.Seed + 7_777_777)),
		nextVer:    make([]int64, c.cfg.Conns),
		leaderHint: make([]int, len(c.groups)),
		tr:         c.tracers[0],
	}
	rt.opTrack = rt.tr.Track("ops")
	return rt
}

// Start opens the closed loop on every client connection.
func (rt *router) Start() {
	for conn := 0; conn < rt.c.cfg.Conns; conn++ {
		rt.issue(conn)
	}
}

func (rt *router) BeginMeasurement() {
	rt.measuring = true
	rt.measureFrom = rt.eng.Now()
	rt.acked, rt.ackedWrites, rt.ackedReads = 0, 0, 0
}

// issue invokes connection conn's next operation: a write to its own
// key with probability writeFrac, otherwise a read of a uniformly drawn
// key.
func (rt *router) issue(conn int) {
	if rt.stopped {
		return
	}
	now := rt.eng.Now()
	kind, key := OpRead, conn
	if rt.rng.Float64() < writeFrac {
		kind = OpWrite
	} else {
		key = rt.rng.Intn(rt.c.cfg.Conns)
	}
	rt.nextOp++
	op := Op{
		ID: rt.nextOp, Conn: conn, Kind: kind, Key: key,
		Group: key % len(rt.c.groups), InvokePs: now, AckPs: -1,
	}
	if kind == OpWrite {
		rt.nextVer[conn]++
		rt.nextWID++
		op.Ver, op.WID = rt.nextVer[conn], rt.nextWID
	}
	rt.history = append(rt.history, op)
	rt.tr.AsyncBegin(rt.opTrack, "op", op.ID, now)
	rt.attempt(op.ID, 0)
}

// attempt sends try-th attempt of operation id to the believed primary
// and arms its timeout. Exactly one timeout watches each attempt; stale
// watchers disarm themselves via the attempt counter.
func (rt *router) attempt(id uint64, try int) {
	op := &rt.history[id-1]
	if op.AckPs >= 0 {
		return
	}
	op.Retries = try
	g := op.Group
	members := rt.c.groups[g]
	target := members[rt.leaderHint[g]%len(members)]
	n := rt.c.nodes[target]
	kind, key, ver, wid, conn := op.Kind, op.Key, op.Ver, op.WID, op.Conn
	bytes := ctlBytes
	if kind == OpWrite {
		bytes = rt.c.cfg.MsgSize
	}
	rt.c.net.Send(0, n.addr, bytes, func() {
		if kind == OpWrite {
			n.onClientWrite(g, key, ver, wid, conn, id)
		} else {
			n.onClientRead(g, key, conn, id)
		}
	})
	rt.eng.After(opTimeoutPs, func() {
		op := &rt.history[id-1]
		if op.AckPs >= 0 || op.Retries != try {
			return
		}
		rt.timeouts++
		rt.leaderHint[g]++ // the believed primary is unresponsive
		rt.retries++
		rt.attempt(id, try+1)
	})
}

// onResp receives a node's reply on shard 0. Late duplicates (an old
// attempt's reply racing the retry that superseded it) are dropped by
// the first-ack-wins guard.
func (rt *router) onResp(id uint64, kind respKind, hint int, ver int64, wid uint64) {
	op := &rt.history[id-1]
	if op.AckPs >= 0 {
		return
	}
	now := rt.eng.Now()
	if kind == respRedirect {
		rt.redirects++
		g := op.Group
		members := rt.c.groups[g]
		// A usable hint always pins the cursor on the hinted member —
		// even when the cursor already points there. Treating an
		// equal-position hint as stale looks harmless with one op in
		// flight, but two ops sharing the cursor then ping-pong it: the
		// first snaps onto the true leader, the second's identical hint
		// reads as "that node bounced me" and advances the cursor off it
		// again, and no attempt ever lands on the leader. Nodes that
		// genuinely cannot serve never hint themselves (replyRedirect),
		// and a hint at a dead node resolves through the op timeout.
		moved := false
		if hint >= 0 {
			for pos, m := range members {
				if m == hint {
					rt.leaderHint[g] = pos
					moved = true
					break
				}
			}
		}
		if !moved {
			rt.leaderHint[g]++ // no usable hint: probe the next member
		}
		try := op.Retries
		rt.eng.After(retryPs, func() {
			op := &rt.history[id-1]
			if op.AckPs >= 0 || op.Retries != try {
				return
			}
			rt.retries++
			rt.attempt(id, try+1)
		})
		return
	}
	op.AckPs = now
	op.ObsVer, op.ObsWID = ver, wid
	rt.tr.AsyncEnd(rt.opTrack, "op", id, now)
	if rt.measuring {
		rt.acked++
		if op.Kind == OpWrite {
			rt.ackedWrites++
		} else {
			rt.ackedReads++
		}
	}
	conn := op.Conn
	rt.eng.After(thinkPs, func() { rt.issue(conn) })
}
