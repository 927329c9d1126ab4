package chaos

import (
	"bytes"
	"testing"

	"repro/internal/runner/runnertest"
)

// TestClusterSoakSchedules is the linearizability chaos soak:
// hundreds of seed-replayable schedules mixing node kills, symmetric
// and asymmetric partitions, drain/rejoin, and packet loss — and not
// one client-acked write may be lost, not one read may violate
// linearizability. -short runs a 40-schedule slice (the CI gate); the
// full run covers 200.
func TestClusterSoakSchedules(t *testing.T) {
	soakSeeds(t, soakSize(), func(i int) int64 { return int64(9000 + i) },
		func(seed int64) (Report, error) {
			rep, _, err := RunCluster(seed, 0, false)
			return rep, err
		})
}

// TestClusterSoakDeterministic is the cluster trace gate: the same
// chaos schedule produces byte-identical reports and merged traces
// under serial execution, parallel execution, and GOMAXPROCS=2.
func TestClusterSoakDeterministic(t *testing.T) {
	runnertest.SameBytes(t, func(workers int) []byte {
		rep, c, err := RunCluster(424242, workers, true)
		if err != nil {
			t.Fatal(err)
		}
		b := bytes.NewBufferString(rep.String())
		if err := c.MergedTrace().WritePerfetto(b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	})
}

// TestClusterScheduleDerivation pins seed-replayability of the plan
// itself: same seed, same report; different seed, different plan.
func TestClusterScheduleDerivation(t *testing.T) {
	run := func(seed int64) Report {
		rep, _, err := RunCluster(seed, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(77), run(77)
	if a.String() != b.String() {
		t.Fatalf("same seed, different reports:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if a.Artifact("schedule") == run(78).Artifact("schedule") {
		t.Fatal("different seeds produced identical schedules")
	}
}
