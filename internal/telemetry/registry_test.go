// Concurrency coverage for the metrics registry: Register and Snapshot
// must be race-free. The telemetry package runs under -race in ci.sh,
// which is what gives the concurrent registrations here their teeth.
package telemetry

import (
	"fmt"
	"sync"
	"testing"
)

// rankCollector mimics a per-rank stats aggregate.
func rankCollector(rank int) Collector {
	return CollectorFunc(func(emit func(Sample)) {
		emit(Sample{Name: "ops", Value: float64(100 + rank)})
		emit(Sample{Name: "errors", Value: float64(rank % 3)})
	})
}

// Concurrent Register while another goroutine snapshots must be safe
// (the snapshot sees some prefix of the registrations, never a torn
// slice) — this is purely a -race target.
func TestRegistryRegisterSnapshotRace(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	for i := 0; i < 64; i++ {
		r.Register(fmt.Sprintf("c%d", i), rankCollector(i))
	}
	close(stop)
	wg.Wait()
	if n := len(r.Snapshot()); n != 64*2 {
		t.Fatalf("snapshot has %d samples, want %d", n, 64*2)
	}
}

// SnapshotInto must agree with Snapshot byte-for-byte and reuse the
// caller's buffer once it has grown to fit.
func TestSnapshotIntoMatchesSnapshot(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 4; i++ {
		r.Register(fmt.Sprintf("mem.rank%02d", i), rankCollector(i))
	}
	r.Register("", CollectorFunc(func(emit func(Sample)) {
		emit(Sample{Name: "bare", Value: 7})
	}))
	want := r.Snapshot()
	var buf []Sample
	for round := 0; round < 3; round++ {
		buf = r.SnapshotInto(buf)
		if len(buf) != len(want) {
			t.Fatalf("round %d: %d samples, want %d", round, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("round %d sample %d = %+v, want %+v", round, i, buf[i], want[i])
			}
		}
	}
}

// Steady-state SnapshotInto allocates nothing: the emit closure and the
// full-name cache are built once, and the sample slice is the caller's.
func TestSnapshotIntoZeroAllocSteadyState(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 8; i++ {
		r.Register(fmt.Sprintf("mem.rank%02d", i), rankCollector(i))
	}
	buf := r.SnapshotInto(nil) // warm: build closure, intern names, size buf
	if a := testing.AllocsPerRun(100, func() {
		buf = r.SnapshotInto(buf)
	}); a != 0 {
		t.Fatalf("steady-state SnapshotInto allocates %v/op, want 0", a)
	}
}

func BenchmarkSnapshotInto(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 16; i++ {
		r.Register(fmt.Sprintf("mem.rank%02d", i), rankCollector(i))
	}
	buf := r.SnapshotInto(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = r.SnapshotInto(buf)
	}
	_ = buf
}
