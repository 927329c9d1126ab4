package chaos

import (
	"bytes"
	"testing"

	"repro/internal/runner/runnertest"
)

// TestShardedChaosDeterministic is the fault-injected shard determinism
// gate: the soak's report and merged trace are byte-identical across the
// serial reference schedule, full parallelism, and GOMAXPROCS=2.
func TestShardedChaosDeterministic(t *testing.T) {
	runnertest.SameBytes(t, func(workers int) []byte {
		rep, sc, err := RunSharded(42, workers, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range rep.Violations {
			t.Errorf("workers=%d: %s", workers, v)
		}
		b := bytes.NewBufferString(rep.String())
		if err := sc.MergedTrace().WritePerfetto(b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	})
}

// TestShardedChaosSoak sweeps seeds at full epoch parallelism, checking
// invariants inside RunSharded and that faults actually land.
func TestShardedChaosSoak(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rep, _, err := RunSharded(seed, 0, false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range rep.Violations {
			t.Errorf("seed %d: %s", seed, v)
		}
		if rep.Count("requests") == 0 || rep.Count("consults") == 0 {
			t.Fatalf("seed %d: soak did not exercise the cluster:\n%s", seed, rep)
		}
		if rep.Count("fired") > 0 && rep.Count("errors") == 0 && rep.Count("fallback_ops") == 0 && rep.Count("trips") == 0 {
			t.Errorf("seed %d: %d faults fired with no visible reaction", seed, rep.Count("fired"))
		}
	}
}
