// Sharded parallel discrete-event execution: a ShardedEngine runs N
// independent Engine shards under conservative-lookahead (CMB-style)
// synchronization, so one simulation uses every core while remaining
// byte-deterministic.
//
// The model is partitioned so each shard owns a disjoint slice of
// simulation state (a SmartDIMM rank group with its controller, device,
// driver and meter; the NIC/client front-end). A shard only ever touches
// its own state from its own events; the sole cross-shard channel is
// Send, a timestamped message delivered at least one lookahead window in
// the future. That bound is what makes parallel execution safe: during
// an epoch every shard may process events up to
//
//	horizon = min(next event time over all shards) + lookahead
//
// because any message generated during the epoch carries a delivery time
// >= its sender's current event time + lookahead >= horizon — no shard
// can receive anything that would retroactively change work it already
// did this epoch.
//
// Determinism (DESIGN.md §14): each shard is sequential, so its event
// stream depends only on its inputs; inter-shard messages are buffered
// per sender in emission order and delivered at the epoch barrier in
// sorted (deliverPs, sender shard, sender emission seq) order. Both are
// independent of worker count and GOMAXPROCS, so a Workers=1 run and a
// fully parallel run are byte-identical — the property the shard
// determinism gates compare.
package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// xmsg is one cross-shard message awaiting barrier delivery.
type xmsg struct {
	at  int64
	src int32
	dst int32
	fn  func()
}

// ShardedEngine coordinates N Engine shards with conservative lookahead
// windows. Construct with NewShardedEngine, wire each shard's model to
// Shard(i), then drive the whole simulation with RunUntil exactly like a
// serial Engine.
type ShardedEngine struct {
	shards    []*Engine
	lookahead int64

	// Workers caps how many shards execute an epoch concurrently.
	// 0 selects GOMAXPROCS; 1 is the serial reference execution every
	// parallel run must match byte-for-byte.
	Workers int

	// outbox[src] accumulates messages sent by shard src during the
	// current epoch. Only shard src's goroutine appends to its slot, so
	// the buffers need no locks; the coordinator drains them all at the
	// barrier.
	outbox [][]xmsg
	merged []xmsg   // reusable barrier merge buffer
	counts []uint64 // reusable per-shard epoch event counts
	epochs uint64
	sent   uint64
}

// NewShardedEngine builds n shards synchronized at lookaheadPs windows.
// The lookahead must be at least 1ps (events at the epoch's minimum
// timestamp must be runnable); it should be the smallest cross-shard
// interaction latency the partitioned model exhibits — see
// fleet.DeriveDispatchPs for the derivation used by the sharded cluster.
func NewShardedEngine(n int, lookaheadPs int64) *ShardedEngine {
	if n < 1 {
		panic(fmt.Sprintf("sim: sharded engine needs at least 1 shard, got %d", n))
	}
	if lookaheadPs < 1 {
		panic(fmt.Sprintf("sim: lookahead %dps; conservative windows need >= 1ps", lookaheadPs))
	}
	se := &ShardedEngine{
		lookahead: lookaheadPs,
		shards:    make([]*Engine, n),
		outbox:    make([][]xmsg, n),
		counts:    make([]uint64, n),
	}
	for i := range se.shards {
		se.shards[i] = NewEngine()
	}
	return se
}

// Shards returns the shard count.
func (se *ShardedEngine) Shards() int { return len(se.shards) }

// Lookahead returns the conservative window in picoseconds.
func (se *ShardedEngine) Lookahead() int64 { return se.lookahead }

// Epochs returns how many barrier epochs have executed.
func (se *ShardedEngine) Epochs() uint64 { return se.epochs }

// Shard returns shard i's Engine. Model components built on shard i must
// schedule exclusively through it and touch only shard-i state.
func (se *ShardedEngine) Shard(i int) *Engine { return se.shards[i] }

// Now returns the front shard's clock. All shards share the same
// trailing-edge deadline after RunUntil, so outside a run this is the
// global simulated time.
func (se *ShardedEngine) Now() int64 { return se.shards[0].Now() }

// Processed aggregates events run across every shard.
func (se *ShardedEngine) Processed() uint64 {
	n := uint64(0)
	for _, sh := range se.shards {
		n += sh.Processed()
	}
	return n
}

// Sent returns how many cross-shard messages have been issued.
func (se *ShardedEngine) Sent() uint64 { return se.sent }

// Send schedules fn on shard dst at src's now + delayPs. It is the only
// legal cross-shard interaction: fn runs on dst's goroutine and must
// touch only dst-owned state. The delay must be at least the lookahead
// window — that is the conservative contract that keeps parallel epochs
// safe — so a shorter cross-shard latency in the model requires
// rebuilding the engine with a tighter lookahead, not a shorter Send.
//
// Send may be called from within a shard's executing event (the normal
// case) or from setup code before the first RunUntil.
func (se *ShardedEngine) Send(src, dst int, delayPs int64, fn func()) {
	if src < 0 || src >= len(se.shards) || dst < 0 || dst >= len(se.shards) {
		panic(fmt.Sprintf("sim: Send %d -> %d outside [0,%d)", src, dst, len(se.shards)))
	}
	if delayPs < se.lookahead {
		panic(fmt.Sprintf("sim: Send %d -> %d with delay %dps < lookahead %dps breaks conservative synchronization",
			src, dst, delayPs, se.lookahead))
	}
	se.outbox[src] = append(se.outbox[src], xmsg{
		at: se.shards[src].Now() + delayPs, src: int32(src), dst: int32(dst), fn: fn,
	})
}

// deliver drains every outbox into the destination heaps in sorted
// (deliverPs, sender shard, sender emission order) order — the
// deterministic merge that makes destination-side tie-breaking (heap
// seq assignment) independent of which worker finished first.
func (se *ShardedEngine) deliver() {
	se.merged = se.merged[:0]
	for src := range se.outbox {
		se.merged = append(se.merged, se.outbox[src]...)
		se.outbox[src] = se.outbox[src][:0]
	}
	if len(se.merged) == 0 {
		return
	}
	se.sent += uint64(len(se.merged))
	// Stable sort preserves per-sender emission order for equal
	// (at, src) keys.
	sort.SliceStable(se.merged, func(i, j int) bool {
		if se.merged[i].at != se.merged[j].at {
			return se.merged[i].at < se.merged[j].at
		}
		return se.merged[i].src < se.merged[j].src
	})
	for i := range se.merged {
		m := &se.merged[i]
		se.shards[m.dst].At(m.at, m.fn)
		m.fn = nil // release the closure once handed to the heap
	}
}

// RunUntil advances the whole sharded simulation to deadline, executing
// conservative-lookahead epochs with up to Workers shards in parallel.
// It returns the number of events processed. After it returns, every
// shard's clock reads exactly deadline (mirroring Engine.RunUntil), so
// measurement windows close simultaneously on all shards.
func (se *ShardedEngine) RunUntil(deadline int64) uint64 {
	starts := make([]int64, len(se.shards))
	for i, sh := range se.shards {
		starts[i] = sh.Now()
	}
	total := uint64(0)
	for {
		se.deliver()
		minNext, any := int64(0), false
		for _, sh := range se.shards {
			if t, ok := sh.NextAt(); ok && (!any || t < minNext) {
				minNext, any = t, true
			}
		}
		if !any || minNext > deadline {
			break
		}
		horizon := deadline + 1
		if h := minNext + se.lookahead; h < horizon {
			horizon = h
		}
		total += se.runEpoch(horizon)
	}
	for i, sh := range se.shards {
		sh.advanceTo(deadline)
		if sh.Tracer != nil && deadline > starts[i] {
			sh.Tracer.Span(sh.Tracer.Track("engine"), "run", starts[i], deadline-starts[i])
		}
	}
	return total
}

// runEpoch executes one lookahead window on every shard with queued
// work before the horizon. Workers=1 runs shards in index order — the
// serial reference schedule; parallel execution is indistinguishable
// from it because shards share no state and the barrier merge is
// order-insensitive.
func (se *ShardedEngine) runEpoch(horizon int64) uint64 {
	se.epochs++
	workers := se.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		n := uint64(0)
		for _, sh := range se.shards {
			n += sh.runEpoch(horizon)
		}
		return n
	}
	var wg sync.WaitGroup
	for i, sh := range se.shards {
		se.counts[i] = 0
		if t, ok := sh.NextAt(); !ok || t >= horizon {
			continue // idle this epoch; skip the goroutine
		}
		wg.Add(1)
		go func(i int, sh *Engine) {
			defer wg.Done()
			se.counts[i] = sh.runEpoch(horizon)
		}(i, sh)
	}
	wg.Wait()
	n := uint64(0)
	for _, c := range se.counts {
		n += c
	}
	return n
}
