package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/runner/runnertest"
)

// shardLog is one shard's deterministic event log: every handler
// appends to its own shard's log only, so the merged (concat in shard
// order) log is a pure function of the simulation.
type shardLog struct {
	lines []string
}

// buildPingModel wires a synthetic K-shard model onto se: each shard
// runs a self-scheduling chain of `events` local events spaced stepPs
// apart (per-shard LCG jitter so shards drift out of phase), and every
// 5th event sends a cross-shard message to the next shard at sendDelay.
// Handlers log (shard, time, seq) so any scheduling difference shows up
// as a text diff.
func buildPingModel(se *ShardedEngine, logs []*shardLog, events int, stepPs, sendDelay int64) {
	k := se.Shards()
	for i := 0; i < k; i++ {
		i := i
		rng := uint64(i*2654435761 + 12345)
		var tick func(n int)
		tick = func(n int) {
			e := se.Shard(i)
			logs[i].lines = append(logs[i].lines, fmt.Sprintf("s%d t=%d n=%d", i, e.Now(), n))
			if n%5 == 4 {
				dst := (i + 1) % k
				from, at := i, n
				se.Send(i, dst, sendDelay, func() {
					logs[dst].lines = append(logs[dst].lines,
						fmt.Sprintf("s%d t=%d recv from=%d n=%d", dst, se.Shard(dst).Now(), from, at))
				})
			}
			if n+1 < events {
				rng = rng*6364136223846793005 + 1442695040888963407
				jitter := int64(rng % 97)
				e.After(stepPs+jitter, func() { tick(n + 1) })
			}
		}
		e := se.Shard(i)
		e.At(int64(i)*11, func() { tick(0) })
	}
}

// runPingModel executes the model and returns the merged log.
func runPingModel(shards, workers int, lookahead int64, events int) string {
	se := NewShardedEngine(shards, lookahead)
	se.Workers = workers
	logs := make([]*shardLog, shards)
	for i := range logs {
		logs[i] = &shardLog{}
	}
	const sendDelay = 250_000 // >= every lookahead the tests exercise
	buildPingModel(se, logs, events, 1000, sendDelay)
	se.Run()
	var b strings.Builder
	for _, l := range logs {
		for _, line := range l.lines {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestShardedDeterministicAcrossWorkers is the core PDES gate: the
// serial reference schedule (Workers=1) and fully parallel execution
// produce byte-identical event logs, also under a different GOMAXPROCS.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	runnertest.SameBytes(t, func(workers int) []byte {
		return []byte(runPingModel(4, workers, 250_000, 200))
	})
}

// TestShardedLookaheadWindows shrinks the conservative window down to
// 1ps: the epoch partitioning changes drastically (up to one timestamp
// per epoch) but results must not move at all — lookahead is an
// execution concern, never a model concern.
func TestShardedLookaheadWindows(t *testing.T) {
	ref := runPingModel(3, 1, 250_000, 120)
	for _, tc := range []struct {
		name      string
		lookahead int64
		workers   int
	}{
		{"1ps-serial", 1, 1},
		{"1ps-parallel", 1, 4},
		{"97ps", 97, 2},
		{"1ns", 1_000, 4},
		{"full-window", 250_000, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := runPingModel(3, tc.workers, tc.lookahead, 120); got != ref {
				t.Fatalf("lookahead %dps (workers=%d) changed results", tc.lookahead, tc.workers)
			}
		})
	}
}

// TestShardedTieBreakOrder pins the barrier merge order: two messages
// delivered to one shard at the same instant arrive in sender-shard
// order regardless of execution parallelism.
func TestShardedTieBreakOrder(t *testing.T) {
	run := func(workers int) string {
		se := NewShardedEngine(3, 100)
		se.Workers = workers
		var log []string
		// Both shard 1 and shard 2 fire at t=50 and send to shard 0 with
		// the same delay: identical delivery instants.
		for _, src := range []int{2, 1} {
			src := src
			se.Shard(src).At(50, func() {
				se.Send(src, 0, 100, func() {
					log = append(log, fmt.Sprintf("from=%d at=%d", src, se.Shard(0).Now()))
				})
			})
		}
		se.Run()
		return strings.Join(log, "\n")
	}
	want := "from=1 at=150\nfrom=2 at=150"
	for _, workers := range []int{1, 3} {
		if got := run(workers); got != want {
			t.Fatalf("workers=%d: delivery order %q, want %q", workers, got, want)
		}
	}
}

// TestShardedSendBelowLookaheadPanics pins the conservative contract:
// a cross-shard latency shorter than the window is a model bug and must
// fail loudly, not corrupt causality silently.
func TestShardedSendBelowLookaheadPanics(t *testing.T) {
	se := NewShardedEngine(2, 1000)
	defer func() {
		if recover() == nil {
			t.Fatal("Send below lookahead did not panic")
		}
	}()
	se.Send(0, 1, 999, func() {})
}

// TestShardedPendingProcessedAggregate verifies the engine-wide
// counters sum across every shard (and in-flight messages), rather than
// reporting shard 0 alone.
func TestShardedPendingProcessedAggregate(t *testing.T) {
	se := NewShardedEngine(3, 10)
	fn := func() {}
	se.Shard(0).After(5, fn)
	se.Shard(1).After(6, fn)
	se.Shard(2).After(7, fn)
	se.Shard(2).After(8, fn)
	se.Send(0, 2, 50, fn)
	if got := se.Pending(); got != 5 {
		t.Fatalf("Pending() = %d, want 5 (4 queued + 1 buffered message)", got)
	}
	if n := se.Run(); n != 5 {
		t.Fatalf("Run() = %d events, want 5", n)
	}
	if got := se.Processed(); got != 5 {
		t.Fatalf("Processed() = %d, want 5", got)
	}
	if got := se.Pending(); got != 0 {
		t.Fatalf("Pending() after drain = %d, want 0", got)
	}
	if got := se.Sent(); got != 1 {
		t.Fatalf("Sent() = %d, want 1", got)
	}
}

// TestShardedRunUntilAdvancesAllClocks mirrors Engine.RunUntil's
// trailing-edge clock advance: after a sharded RunUntil every shard
// reads exactly the deadline, so measurement windows close together.
func TestShardedRunUntilAdvancesAllClocks(t *testing.T) {
	se := NewShardedEngine(3, 100)
	se.Shard(1).After(40, func() {})
	se.RunUntil(500)
	for i := 0; i < se.Shards(); i++ {
		if now := se.Shard(i).Now(); now != 500 {
			t.Fatalf("shard %d clock = %d after RunUntil(500)", i, now)
		}
	}
	// And a later run keeps working.
	ran := false
	se.Shard(2).After(10, func() { ran = true })
	se.RunUntil(600)
	if !ran {
		t.Fatal("event after clock advance did not run")
	}
}

// TestShardScheduleSteadyStateAllocs pins the 0-alloc schedule path
// under sharded execution: once warmed, per-shard scheduling and epoch
// stepping allocate nothing (Workers=1; parallel epochs pay only the
// per-epoch goroutine spawns, measured by BenchmarkEngineSharded).
func TestShardScheduleSteadyStateAllocs(t *testing.T) {
	se := NewShardedEngine(2, 50)
	se.Workers = 1
	var chain func(shard int, left int)
	chain = func(shard, left int) {
		if left > 0 {
			se.Shard(shard).After(100, func() { chain(shard, left-1) })
		}
	}
	// Warm the free lists and the merge buffers.
	chain(0, 64)
	chain(1, 64)
	se.Run()
	per := testing.AllocsPerRun(10, func() {
		chain(0, 32)
		chain(1, 32)
		se.Run()
	})
	// The closures capturing (shard, left) are the only allocations the
	// driver itself makes; the engine contributes zero. Allow the
	// closure allocs (2 per event) and nothing more.
	if per > 150 {
		t.Fatalf("steady-state sharded run allocates %.0f/run; engine path must be alloc-free", per)
	}
}
