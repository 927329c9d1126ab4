package chaos

import (
	"testing"
)

// TestRDMASoak runs randomized fault schedules through the peer-DMA
// ingress — doorbell loss, RNR NAKs, rogue out-of-bounds writes, and
// the two forced races (MR unregister in flight, peer write across a
// migration) — and fails on the first invariant violation, reporting
// the seed so the schedule replays exactly.
func TestRDMASoak(t *testing.T) {
	n := soakSize() / 2
	sum := soakSeeds(t, n, func(i int) int64 { return int64(9000 + i*7907) },
		func(seed int64) (Report, error) { return RunRDMA(seed, 24) })
	// The soak must exercise the whole failure surface, not just the
	// clean path: doorbells get lost, receivers NAK, rogue writes are
	// refused, and in-flight WQEs cross migrations.
	for _, c := range []struct{ name, what string }{
		{"fired", "no faults fired across the rdma soak"},
		{"doorbells_lost", "no doorbell was ever lost"},
		{"rnr_naks", "no RNR NAK was ever injected"},
		{"bounds_refusals", "no rogue write was ever refused"},
		{"stale_retries", "no in-flight WQE ever crossed a migration"},
		{"migrations", "no connection ever migrated"},
	} {
		if sum[c.name] == 0 {
			t.Fatal(c.what)
		}
	}
	if posted, completed, failed := sum["posted"], sum["completed"], sum["failed"]; completed == 0 || posted != completed+failed {
		t.Fatalf("wqe ledger: posted %d, completed %d, failed %d", posted, completed, failed)
	}
	t.Logf("rdma soak: %d schedules, totals %v", n, sum)
}

// TestRDMASameSeedSameTrace replays a schedule and requires the whole
// report — injector, NIC and placement traces and every count — to
// reproduce byte-for-byte.
func TestRDMASameSeedSameTrace(t *testing.T) {
	sameSeedSameReport(t, []int64{13, 1313, 131313}, func(seed int64) (Report, error) {
		rep, err := RunRDMA(seed, 24)
		if err == nil && rep.Artifact("nic") == "" {
			t.Fatalf("seed %d: empty NIC trace", seed)
		}
		return rep, err
	})
}

// TestRDMANoInjectionBaseline checks the harness itself: a single-op
// scenario must pass clean.
func TestRDMANoInjectionBaseline(t *testing.T) {
	rep, err := RunRDMA(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("violations on a single-op scenario:\n%s", rep)
	}
}
