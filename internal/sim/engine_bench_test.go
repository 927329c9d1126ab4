package sim

import "testing"

// BenchmarkEngineScheduleCancel exercises the hot schedule/cancel pair
// (the TCP model re-arms its RTO on every ACK). Steady state must be
// allocation-free: events come from the free list and Cancel is a value
// handle, not a closure.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := e.After(int64(i%97), fn)
		c.Cancel()
		if i%64 == 0 {
			for e.Step() {
			}
		}
	}
}

// BenchmarkEngineScheduleRun measures pure schedule+dispatch throughput
// with a deep queue, the RunUntil hot loop of every experiment.
func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	const depth = 1024
	for i := 0; i < depth; i++ {
		e.After(int64(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(int64(i+depth), fn)
		e.Step()
	}
}

// BenchmarkEngineSharded measures sharded events/sec at 1/2/4/8 shards
// on a self-scheduling per-shard event chain with periodic cross-shard
// sends — the engine-level cost of the epoch barrier protocol. On a
// multicore host the per-event rate should hold roughly flat as shards
// grow (shards execute concurrently); on one core it measures pure
// synchronization overhead. The steady-state schedule path itself is
// alloc-free (TestShardScheduleSteadyStateAllocs); the per-epoch
// goroutine spawns and cross-shard message buffering measured here are
// the only allocating parts.
func BenchmarkEngineSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(benchName(shards), func(b *testing.B) {
			const lookahead = 10_000
			se := NewShardedEngine(shards, lookahead)
			// One reusable self-scheduling closure per shard, so the
			// benchmark measures the engine, not closure construction.
			nop := func() {}
			left := make([]int, shards)
			ticks := make([]func(), shards)
			for s := 0; s < shards; s++ {
				s := s
				ticks[s] = func() {
					left[s]--
					if left[s] <= 0 {
						return
					}
					if left[s]%16 == 0 && shards > 1 {
						se.Send(s, (s+1)%shards, lookahead, nop)
					}
					se.Shard(s).After(100, ticks[s])
				}
			}
			// Warm the per-shard free lists and merge buffers.
			for s := 0; s < shards; s++ {
				left[s] = 512
				se.Shard(s).After(100, ticks[s])
			}
			drain(se)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s := 0; s < shards; s++ {
					left[s] = 512
					se.Shard(s).After(100, ticks[s])
				}
				drain(se)
			}
			b.StopTimer()
			// Per-op work is 512 events per shard; report the rate the
			// scaling argument is about.
			b.ReportMetric(float64(se.Processed())/b.Elapsed().Seconds(), "events/s")
		})
	}
}

func benchName(shards int) string {
	return map[int]string{1: "1shard", 2: "2shards", 4: "4shards", 8: "8shards"}[shards]
}
