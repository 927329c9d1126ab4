package main

import (
	"runtime"
	"sync"
	"time"
)

// Benchmark hosts are often shared with other tenants, which change their
// speed by up to 2x for minutes at a time (README.md has the measurements);
// a median over repetitions cannot hide that. So every repetition also
// times a fixed reference loop, just before it runs, on as many goroutines
// as the repetition keeps busy. Host times are then reported calibrated:
// the measured time scaled by refNominal over the reference loop's time,
// i.e. in seconds of the reference host when it is quiet. The loop is
// integer work plus loads from a table larger than a core's share of the
// last-level cache, so it slows, as the simulator does, under both
// compute and memory contention; its goroutines meet at a barrier every
// refChunks-th of the work, as the sharded engine's workers do every
// epoch, so a stalled core holds it back as it holds back the engine. It
// uses no simulator code, so no change to the simulator can move it.

// refNominal is the reference loop's time on the reference host (2 Xeon
// vCPUs at 2.0 GHz) when nothing else loads it.
const refNominal = 100 * time.Millisecond

const (
	refIters     = 8_000_000 // rounds per goroutine
	refChunks    = 80
	refTableLen  = 1 << 20 // 8 MiB of uint64 per goroutine
	refLoadEvery = 8       // one table load per this many rounds
)

var (
	refOnce   sync.Once
	refTables [][]uint64
	refSink   []uint64
)

// refTime runs the reference loop on par goroutines at once and returns
// the time until all have finished. par must not exceed GOMAXPROCS.
func refTime(par int) time.Duration {
	refOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		refTables, refSink = make([][]uint64, n), make([]uint64, n)
		for p := range refTables {
			refTables[p] = make([]uint64, refTableLen)
			for i := range refTables[p] {
				refTables[p][i] = uint64(i)*2654435761 + 1
			}
		}
	})
	barriers := make([]sync.WaitGroup, refChunks)
	for c := range barriers {
		barriers[c].Add(par)
	}
	var done sync.WaitGroup
	done.Add(par)
	start := time.Now()
	for p := 0; p < par; p++ {
		go func(p int) {
			defer done.Done()
			t, x := refTables[p], uint64(p+1)
			for c := range barriers {
				for i := 0; i < refIters/refChunks; i++ {
					x = x*6364136223846793005 + 1442695040888963407
					x ^= x >> 17
					if i%refLoadEvery == 0 {
						x += t[x&(refTableLen-1)]
					}
				}
				barriers[c].Done()
				barriers[c].Wait()
			}
			refSink[p] = x
		}(p)
	}
	done.Wait()
	return time.Since(start)
}
