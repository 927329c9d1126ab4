// Package runner fans independent simulation runs across a bounded pool
// of goroutines. Every simulation in this repository is a closed
// deterministic system (its own sim.Engine, seeded RNG, and stat
// counters), so runs never share mutable state and a sweep over
// parameter points is embarrassingly parallel. The pool exploits that:
// results are delivered in input order regardless of completion order,
// so a parallel sweep is byte-identical to a serial one — the property
// the determinism regression test in internal/experiments pins down.
package runner

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/sim/busy"
)

// Pool bounds how many runs execute concurrently. The zero number of
// workers (or a nil *Pool) selects serial in-caller execution, which is
// also the fallback the experiment code uses when no -parallel flag is
// given.
type Pool struct {
	workers int
}

// New creates a pool with the given concurrency. workers <= 0 selects
// GOMAXPROCS, the number of CPUs the Go runtime will actually schedule.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the pool's concurrency bound. A nil pool reports 1.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Map runs fn over every item and returns the results in input order.
//
// A nil pool (or one worker) runs serially in the calling goroutine,
// stopping at the first error. Otherwise up to p.Workers() goroutines
// run concurrently; the first error cancels the derived context handed
// to the remaining calls and is returned after all in-flight calls
// drain. Items whose fn was never started or returned an error hold the
// zero value in the result slice.
func Map[T, R any](ctx context.Context, p *Pool, items []T, fn func(ctx context.Context, item T, idx int) (R, error)) ([]R, error) {
	results := make([]R, len(items))
	if len(items) == 0 {
		return results, ctx.Err()
	}
	if p.Workers() <= 1 || len(items) == 1 {
		for i, it := range items {
			if err := ctx.Err(); err != nil {
				return results, err
			}
			r, err := fn(ctx, it, i)
			if err != nil {
				return results, err
			}
			results[i] = r
		}
		return results, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	sem := make(chan struct{}, p.Workers())
	for i := range items {
		if ctx.Err() != nil {
			break // first error or caller cancellation: stop admitting work
		}
		sem <- struct{}{}
		wg.Add(1)
		busy.Add(1) // a concurrent run holds a core (package busy)
		go func(idx int) {
			defer func() {
				busy.Add(-1)
				<-sem
				wg.Done()
			}()
			r, err := fn(ctx, items[idx], idx)
			if err != nil {
				errOnce.Do(func() {
					firstErr = err
					cancel()
				})
				return
			}
			results[idx] = r
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return results, firstErr
	}
	return results, ctx.Err()
}
