package fleet_test

// Tests for the fleet's autoscaler-facing surface: administrative
// Drain/Admit (held members must not auto-readmit), live policy
// switching, and the per-rank queue-depth telemetry.

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fleet"
	"repro/internal/offload"
	"repro/internal/telemetry"
)

// driveFleet pushes n Process ops round-robin over the conns.
func driveFleet(t *testing.T, fl *fleet.Fleet, conns []*offload.Conn, n int) {
	t.Helper()
	for op := 0; op < n; op++ {
		c := conns[op%len(conns)]
		if _, err := fl.Process(offload.Compression, op%4, c, 4096); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
}

func stageAll(t *testing.T, fl *fleet.Fleet, sysStage func(*offload.Conn) error, conns []*offload.Conn) {
	t.Helper()
	for _, c := range conns {
		if err := sysStage(c); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFleetDrainAdmitHeld checks the autoscaler's scale primitives: a
// drained member resheds its connections, stays out through any number
// of breaker cooldown ticks (held), and returns only on Admit. Draining
// the last active member is refused.
func TestFleetDrainAdmitHeld(t *testing.T) {
	sys := newFleetSystem(t, 4)
	fl, err := fleet.New(fleet.Config{
		Sys: sys, Policy: fleet.LeastLoaded, TracePlacement: true,
		CooldownOps: 4, // tiny: held members must survive many cooldowns
	})
	if err != nil {
		t.Fatal(err)
	}
	conns, _ := openConns(t, fl, 8)
	payload := corpus.Generate(corpus.HTML, 4096, 3)
	stageAll(t, fl, func(c *offload.Conn) error { return offload.StagePayloadDMA(sys, c, payload) }, conns)

	if err := fl.Drain(1); err != nil {
		t.Fatal(err)
	}
	if fl.IsActive(1) {
		t.Fatal("member 1 still active after Drain")
	}
	for i := range conns {
		if fl.Home(i) == 1 {
			t.Fatalf("conn %d still homed on the drained member", i)
		}
	}
	// 64 ops = 16 cooldown periods: a breaker-tripped member would have
	// been readmitted long ago; a held member must not be.
	driveFleet(t, fl, conns, 64)
	if fl.IsActive(1) {
		t.Fatal("held member auto-readmitted by the breaker cooldown")
	}
	if err := fl.Admit(1); err != nil {
		t.Fatal(err)
	}
	if !fl.IsActive(1) {
		t.Fatal("member 1 inactive after Admit")
	}

	// Scale down to one and refuse the last drain.
	for _, i := range []int{0, 1, 2} {
		if err := fl.Drain(i); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
	}
	if fl.ActiveMembers() != 1 {
		t.Fatalf("ActiveMembers = %d, want 1", fl.ActiveMembers())
	}
	if err := fl.Drain(3); err == nil {
		t.Fatal("Drain accepted the last active member")
	}
	tt := fl.Totals()
	if tt.AdminDrains != 4 || tt.AdminAdmits != 1 {
		t.Fatalf("admin counters drains=%d admits=%d, want 4/1", tt.AdminDrains, tt.AdminAdmits)
	}
	if fl.OutstandingPages() != fl.ExpectedPages() {
		t.Fatalf("pages out %d, expected %d", fl.OutstandingPages(), fl.ExpectedPages())
	}
}

// TestFleetSetPolicyLive flips the placement policy mid-run and checks
// subsequent placements follow the new rule.
func TestFleetSetPolicyLive(t *testing.T) {
	fl := newTestFleet(t, newFleetSystem(t, 4), fleet.RoundRobin)
	openConns(t, fl, 4)
	if fl.Policy() != fleet.RoundRobin {
		t.Fatalf("policy = %v, want rr", fl.Policy())
	}
	fl.SetPolicy(fleet.Sticky)
	if fl.Policy() != fleet.Sticky {
		t.Fatalf("policy = %v after SetPolicy, want sticky", fl.Policy())
	}
	// Sticky placement is a pure function of the conn ID: the same ID
	// must land where rendezvous hashing says, not where rotation would.
	if _, err := fl.NewConn(offload.Compression, 1000, 4096); err != nil {
		t.Fatal(err)
	}
	fl2 := newTestFleet(t, newFleetSystem(t, 4), fleet.Sticky)
	if _, err := fl2.NewConn(offload.Compression, 1000, 4096); err != nil {
		t.Fatal(err)
	}
	if fl.Home(1000) != fl2.Home(1000) {
		t.Fatalf("post-flip placement d%d differs from native sticky d%d", fl.Home(1000), fl2.Home(1000))
	}
	if !strings.Contains(fl.TraceString(), "policy -> sticky") {
		t.Fatal("policy flip not recorded in the placement trace")
	}
}

// TestFleetQDepthTelemetry drives load and checks the per-rank
// queue-depth sketches surface through the registry with p50/p99.
func TestFleetQDepthTelemetry(t *testing.T) {
	sys := newFleetSystem(t, 2)
	fl := newTestFleet(t, sys, fleet.RoundRobin)
	conns, _ := openConns(t, fl, 4)
	payload := corpus.Generate(corpus.HTML, 4096, 3)
	stageAll(t, fl, func(c *offload.Conn) error { return offload.StagePayloadDMA(sys, c, payload) }, conns)
	driveFleet(t, fl, conns, 32)

	reg := telemetry.NewRegistry()
	fl.RegisterMetrics(reg)
	got := map[string]float64{}
	for _, s := range reg.Snapshot() {
		got[s.Name] = s.Value
	}
	for _, name := range []string{
		"fleet.rank0.qdepth.p50", "fleet.rank0.qdepth.p99",
		"fleet.rank1.qdepth.p50", "fleet.rank1.qdepth.p99",
		"fleet.state.rank0", "fleet.state.rank1",
		"fleet.active", "fleet.admin_drains",
	} {
		if _, ok := got[name]; !ok {
			t.Errorf("registry missing %s", name)
		}
	}
	if got["fleet.rank0.qdepth.count"] == 0 {
		t.Fatal("rank 0 qdepth sketch empty after 32 ops")
	}
	if got["fleet.state.rank0"] != 1 || got["fleet.state.rank1"] != 1 {
		t.Fatalf("state bitmap %g/%g, want 1/1", got["fleet.state.rank0"], got["fleet.state.rank1"])
	}
	if err := fl.Drain(1); err != nil {
		t.Fatal(err)
	}
	got = map[string]float64{}
	for _, s := range reg.Snapshot() {
		got[s.Name] = s.Value
	}
	if got["fleet.state.rank1"] != 0 {
		t.Fatalf("state.rank1 = %g after drain, want 0 (collectors must be live)", got["fleet.state.rank1"])
	}
}
