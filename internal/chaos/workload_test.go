package chaos

// Workload-soak tests: the pinned flash-crowd + rank-fault scenario
// must hold its invariants, and the canonical report must replay
// byte-identically from the seed — serial or pooled trace generation,
// at any GOMAXPROCS.

import (
	"testing"

	"repro/internal/runner/runnertest"
)

func TestWorkloadSoak(t *testing.T) {
	rep, err := RunWorkloadSoak(11, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Count("admits") == 0 || rep.Count("trips") == 0 {
		t.Fatalf("soak exercised nothing:\n%s", rep)
	}
	t.Logf("soak: %v", rep.Counts)
}

func TestWorkloadSoakReplaysFromSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("replay soak is the long half of the gate")
	}
	run := func(seed int64, workers int) Report {
		rep, err := RunWorkloadSoak(seed, workers)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	var ref Report
	runnertest.SameBytes(t, func(workers int) []byte {
		rep := run(11, workers)
		if workers == 1 {
			ref = rep
		}
		return []byte(rep.String())
	})
	// A different seed must actually change the run (the canonical
	// artifact is not a constant).
	if run(12, 1).Artifact("canonical") == ref.Artifact("canonical") {
		t.Fatal("different seeds produced identical canonical reports")
	}
}
