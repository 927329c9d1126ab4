package chaos

import (
	"testing"
)

// soakSize returns the number of randomized schedules to run: bounded
// under -short, the full soak otherwise (ci.sh's full pass).
func soakSize() int {
	if testing.Short() {
		return 40
	}
	return 200
}

// soakSeeds runs n schedules of one soak, failing on the first
// invariant violation with the seed and the whole report (so the
// schedule replays exactly), and returns every count summed.
func soakSeeds(t *testing.T, n int, seed func(i int) int64, run func(seed int64) (Report, error)) map[string]int64 {
	t.Helper()
	sum := map[string]int64{}
	for i := 0; i < n; i++ {
		rep, err := run(seed(i))
		if err != nil {
			t.Fatalf("seed %d: harness error: %v", seed(i), err)
		}
		if !rep.Ok() {
			t.Fatalf("seed %d: %d invariant violations:\n%s", seed(i), len(rep.Violations), rep)
		}
		for _, c := range rep.Counts {
			sum[c.Name] += c.N
		}
	}
	return sum
}

// sameSeedSameReport replays each seed and requires the whole report —
// every count and every trace — to reproduce byte-for-byte.
func sameSeedSameReport(t *testing.T, seeds []int64, run func(seed int64) (Report, error)) {
	t.Helper()
	for _, seed := range seeds {
		a, err := run(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := run(seed)
		if err != nil {
			t.Fatal(err)
		}
		if a.Artifact("faults") == "" || a.String() != b.String() {
			t.Fatalf("seed %d: report not reproducible:\n--- first\n%s--- second\n%s", seed, a, b)
		}
	}
}

// TestChaosSoak runs randomized fault schedules across all layers and
// fails on the first invariant violation, reporting the seed so the
// schedule can be replayed exactly.
func TestChaosSoak(t *testing.T) {
	n := soakSize()
	sum := soakSeeds(t, n, func(i int) int64 { return int64(1000 + i*7919) },
		func(seed int64) (Report, error) { return Run(seed, 12, nil) })
	// The soak must actually exercise the machinery: faults fire, some
	// chunks degrade to the CPU rung, and plenty still take the DSA path.
	if sum["fired"] == 0 {
		t.Fatal("no faults fired across the whole soak")
	}
	if sum["fallback_ops"] == 0 {
		t.Fatal("no chunk ever took the CPU fallback rung")
	}
	if sum["primary_ops"] == 0 {
		t.Fatal("no chunk ever took the DSA path")
	}
	t.Logf("soak: %d schedules, totals %v", n, sum)
}

// TestChaosSameSeedSameTrace replays a schedule and requires the fault
// trace and the whole report to reproduce byte-for-byte.
func TestChaosSameSeedSameTrace(t *testing.T) {
	sameSeedSameReport(t, []int64{42, 4242, 424242},
		func(seed int64) (Report, error) { return Run(seed, 12, nil) })
}

// TestChaosNoInjectionBaseline checks the harness on its smallest
// schedule: one operation under seed 7's fault plan, then the
// plain-DIMM phase and the drain/conservation sweep, must pass clean.
func TestChaosNoInjectionBaseline(t *testing.T) {
	rep, err := Run(7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("violations on a single-op scenario:\n%s", rep)
	}
}

// TestFleetChaosSoak runs randomized fault schedules through a 3-rank
// fleet with forced member failures mid-stream, and fails on the first
// cross-fleet invariant violation. The fleet scenario is heavier than
// the single-device one, so it runs half as many schedules — still
// covering every placement policy many times over.
func TestFleetChaosSoak(t *testing.T) {
	n := soakSize() / 2
	sum := soakSeeds(t, n, func(i int) int64 { return int64(5000 + i*6007) },
		func(seed int64) (Report, error) { return RunFleet(seed, 16) })
	// The soak must exercise the failure machinery, not just clean paths:
	// members trip and readmit, connections migrate between ranks, and
	// chunks take both the DSA path and the fallback rung.
	if sum["fired"] == 0 {
		t.Fatal("no faults fired across the fleet soak")
	}
	if sum["trips"] == 0 {
		t.Fatal("no member breaker ever tripped")
	}
	if sum["readmits"] == 0 {
		t.Fatal("no tripped member was ever readmitted")
	}
	if sum["migrations"] == 0 {
		t.Fatal("no connection ever migrated between ranks")
	}
	if sum["primary_ops"] == 0 || sum["fallback_ops"] == 0 {
		t.Fatalf("degradation ladder not exercised: %d primary / %d fallback chunks", sum["primary_ops"], sum["fallback_ops"])
	}
	t.Logf("fleet soak: %d schedules, totals %v", n, sum)
}

// TestFleetChaosSameSeedSameTrace replays fleet schedules and requires
// the whole report — fault trace, placement trace and every count — to
// reproduce byte-for-byte.
func TestFleetChaosSameSeedSameTrace(t *testing.T) {
	sameSeedSameReport(t, []int64{42, 4242, 424242},
		func(seed int64) (Report, error) { return RunFleet(seed, 16) })
}
