package fleet_test

// Tests for the fleet dispatcher: table-driven placement checks for all
// four policies (including the empty-fleet and single-device edge
// cases), drain/readmit behavior, and the determinism gate — identical
// seeds and request streams must produce byte-identical placement
// traces and results regardless of GOMAXPROCS, mirroring
// TestSweepsDeterministicUnderParallelism.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fleet"
	"repro/internal/offload"
	"repro/internal/runner"
	"repro/internal/runner/runnertest"
	"repro/internal/sim"
)

// newFleetSystem assembles a small multi-rank system for placement tests.
func newFleetSystem(t testing.TB, ranks int) *sim.System {
	t.Helper()
	sys, err := sim.NewSystem(sim.SystemConfig{
		Params: sim.DefaultParams(), LLCBytes: 256 << 10, LLCWays: 8,
		WithSmartDIMM: true, SmartDIMMRanks: ranks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func newTestFleet(t testing.TB, sys *sim.System, pol fleet.Policy) *fleet.Fleet {
	t.Helper()
	fl, err := fleet.New(fleet.Config{Sys: sys, Policy: pol, TracePlacement: true})
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

// openConns creates n compression connections and returns their homes.
func openConns(t testing.TB, fl *fleet.Fleet, n int) ([]*offload.Conn, []int) {
	t.Helper()
	conns := make([]*offload.Conn, n)
	homes := make([]int, n)
	for i := 0; i < n; i++ {
		c, err := fl.NewConn(offload.Compression, i, 4096)
		if err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
		conns[i], homes[i] = c, fl.Home(i)
	}
	return conns, homes
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range []fleet.Policy{fleet.RoundRobin, fleet.LeastLoaded, fleet.Affinity, fleet.Sticky} {
		got, err := fleet.ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if _, err := fleet.ParsePolicy("hottest-first"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy name")
	}
}

// TestPlacementPolicies is the table-driven placement check for all four
// policies, including the single-device degenerate case for each.
func TestPlacementPolicies(t *testing.T) {
	cases := []struct {
		name   string
		policy fleet.Policy
		ranks  int
		conns  int
		check  func(t *testing.T, homes []int)
	}{
		{"rr-rotates", fleet.RoundRobin, 4, 8, func(t *testing.T, homes []int) {
			for i, h := range homes {
				if h != i%4 {
					t.Errorf("conn %d homed on d%d, want d%d (round-robin rotation)", i, h, i%4)
				}
			}
		}},
		{"leastload-balances", fleet.LeastLoaded, 4, 8, func(t *testing.T, homes []int) {
			per := map[int]int{}
			for _, h := range homes {
				per[h]++
			}
			for d := 0; d < 4; d++ {
				if per[d] != 2 {
					t.Errorf("device %d got %d of 8 idle-fleet placements, want 2 (spread: %v)", d, per[d], homes)
				}
			}
		}},
		{"affinity-pins-channel-group", fleet.Affinity, 4, 12, func(t *testing.T, homes []int) {
			// 4 ranks, 2 per channel: conn id%2 selects the group, so the
			// home rank divided by the group width must equal it.
			for i, h := range homes {
				if h/2 != i%2 {
					t.Errorf("conn %d homed on d%d outside channel group %d", i, h, i%2)
				}
			}
		}},
		{"sticky-uses-every-weight", fleet.Sticky, 4, 32, func(t *testing.T, homes []int) {
			per := map[int]bool{}
			for _, h := range homes {
				per[h] = true
			}
			if len(per) < 3 {
				t.Errorf("rendezvous hashing used only %d of 4 devices over 32 conns: %v", len(per), homes)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fl := newTestFleet(t, newFleetSystem(t, tc.ranks), tc.policy)
			_, homes := openConns(t, fl, tc.conns)
			tc.check(t, homes)
		})
		t.Run(tc.name+"/single-device", func(t *testing.T) {
			fl := newTestFleet(t, newFleetSystem(t, 1), tc.policy)
			_, homes := openConns(t, fl, 6)
			for i, h := range homes {
				if h != 0 {
					t.Errorf("conn %d homed on d%d in a one-device fleet", i, h)
				}
			}
		})
	}
}

// TestEmptyFleetRejected covers the empty-fleet edge: a system without
// SmartDIMM ranks, or no system at all, must refuse to build a fleet.
func TestEmptyFleetRejected(t *testing.T) {
	sys, err := sim.NewSystem(sim.SystemConfig{
		Params: sim.DefaultParams(), LLCBytes: 256 << 10, LLCWays: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.New(fleet.Config{Sys: sys}); err == nil {
		t.Error("fleet.New accepted a system with no SmartDIMM ranks")
	}
	if _, err := fleet.New(fleet.Config{Sys: nil}); err == nil {
		t.Error("fleet.New accepted a nil system")
	}
}

// TestStickyDrainMovesOnlyFailedMember checks the rendezvous property
// the Sticky policy exists for: failing one member relocates exactly the
// connections homed on it.
func TestStickyDrainMovesOnlyFailedMember(t *testing.T) {
	fl := newTestFleet(t, newFleetSystem(t, 4), fleet.Sticky)
	_, before := openConns(t, fl, 24)
	victim := before[0]
	if err := fl.Fail(victim); err != nil {
		t.Fatal(err)
	}
	for i, old := range before {
		now := fl.Home(i)
		if old == victim {
			if now == victim {
				t.Errorf("conn %d still homed on failed d%d", i, victim)
			}
		} else if now != old {
			t.Errorf("conn %d moved d%d -> d%d though only d%d failed", i, old, now, victim)
		}
	}
	if fl.OutstandingPages() != fl.ExpectedPages() {
		t.Errorf("after drain: %d pages outstanding, expected %d", fl.OutstandingPages(), fl.ExpectedPages())
	}
}

// TestAllMembersDownSoftFallback drives the fleet to zero active members:
// existing and new connections must run homeless on the CPU soft rung
// and re-home after a member is readmitted.
func TestAllMembersDownSoftFallback(t *testing.T) {
	sys := newFleetSystem(t, 2)
	fl := newTestFleet(t, sys, fleet.LeastLoaded)
	conns, _ := openConns(t, fl, 4)
	payload := corpus.Generate(corpus.HTML, 4096, 3)
	for _, c := range conns {
		if err := offload.StagePayloadDMA(sys, c, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := fl.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := fl.Fail(1); err != nil {
		t.Fatal(err)
	}
	if fl.ActiveMembers() != 0 {
		t.Fatalf("ActiveMembers = %d after failing both", fl.ActiveMembers())
	}
	for i := range conns {
		if h := fl.Home(i); h != -1 {
			t.Errorf("conn %d still homed on d%d with every member down", i, h)
		}
	}
	// A connection opened with no survivors is born homeless but usable.
	late, err := fl.NewConn(offload.Compression, 99, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if h := fl.Home(99); h != -1 {
		t.Errorf("conn opened with every member down homed on d%d", h)
	}
	if err := offload.StagePayloadDMA(sys, late, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Process(offload.Compression, 0, late, 4096); err != nil {
		t.Fatalf("soft-rung Process: %v", err)
	}
	if tt := fl.Totals(); tt.SoftOps == 0 {
		t.Error("Process with every member down did not count as a soft op")
	}
	if err := fl.Readmit(1); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Process(offload.Compression, 0, late, 4096); err != nil {
		t.Fatal(err)
	}
	if h := fl.Home(99); h != 1 {
		t.Errorf("conn not re-homed on the readmitted member (home=%d)", h)
	}
	if fl.OutstandingPages() != fl.ExpectedPages() {
		t.Errorf("after rehome: %d pages outstanding, expected %d", fl.OutstandingPages(), fl.ExpectedPages())
	}
}

// --- determinism gate -------------------------------------------------------

// scriptJob names one deterministic fleet run of the gate.
type scriptJob struct {
	policy fleet.Policy
	ranks  int
}

// runFleetScript drives a fixed, seeded request stream through a fresh
// fleet — including a forced failure, drain, and readmission — and
// renders every observable (per-op results, totals, queue depths, and
// the placement trace) into one string for byte comparison.
func runFleetScript(j scriptJob) (string, error) {
	sys, err := sim.NewSystem(sim.SystemConfig{
		Params: sim.DefaultParams(), LLCBytes: 256 << 10, LLCWays: 8,
		WithSmartDIMM: true, SmartDIMMRanks: j.ranks,
	})
	if err != nil {
		return "", err
	}
	fl, err := fleet.New(fleet.Config{
		Sys: sys, Policy: j.policy, TracePlacement: true,
		FailThreshold: 2, CooldownOps: 24, MigrateCooldownOps: 4,
	})
	if err != nil {
		return "", err
	}
	const nConns = 12
	payload := corpus.Generate(corpus.HTML, 4096, 7)
	conns := make([]*offload.Conn, nConns)
	for i := range conns {
		c, err := fl.NewConn(offload.Compression, i, 4096)
		if err != nil {
			return "", err
		}
		if err := offload.StagePayloadDMA(sys, c, payload); err != nil {
			return "", err
		}
		conns[i] = c
	}
	rng := rand.New(rand.NewSource(99))
	victim := 1 % j.ranks
	var b strings.Builder
	for op := 0; op < 96; op++ {
		switch op {
		case 32:
			if err := fl.Fail(victim); err != nil {
				return "", err
			}
		case 64:
			if err := fl.Readmit(victim); err != nil {
				return "", err
			}
		}
		c := conns[rng.Intn(nConns)]
		res, err := fl.Process(offload.Compression, op%4, c, 4096)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "op%d c%d home%d rec%d tx%d wall%d\n",
			op, c.ID, fl.Home(c.ID), res.Records, res.TXBytes, res.WallPs())
		sys.Engine.RunUntil(sys.Engine.Now() + int64(rng.Intn(5))*sim.Us)
	}
	tt := fl.Totals()
	fmt.Fprintf(&b, "totals dev%d act%d desc%d batch%d mig%d shed%d trip%d readmit%d soft%d\n",
		tt.Devices, tt.Active, tt.Descriptors, tt.Batches, tt.Migrations,
		tt.Sheds, tt.Trips, tt.Readmits, tt.SoftOps)
	for i := 0; i < fl.Members(); i++ {
		fmt.Fprintf(&b, "q%d=%d\n", i, fl.QueueDepth(i))
	}
	fmt.Fprintf(&b, "pages out%d exp%d\n", fl.OutstandingPages(), fl.ExpectedPages())
	b.WriteString("--- trace ---\n")
	b.WriteString(fl.TraceString())
	return b.String(), nil
}

// TestFleetDeterministicUnderParallelism is the fleet dispatcher's
// determinism gate, mirroring TestSweepsDeterministicUnderParallelism:
// the same seeded request streams — covering all four policies plus the
// single-device case, each with a failure/drain/readmit episode — must
// render byte-identically whether the runs execute serially or fanned
// across a worker pool, and regardless of GOMAXPROCS.
func TestFleetDeterministicUnderParallelism(t *testing.T) {
	jobs := []scriptJob{
		{fleet.RoundRobin, 4}, {fleet.LeastLoaded, 4},
		{fleet.Affinity, 4}, {fleet.Sticky, 4},
		{fleet.RoundRobin, 1},
	}
	var serial string
	runnertest.SameBytes(t, func(workers int) []byte {
		outs, err := runner.Map(context.Background(), runner.New(workers), jobs,
			func(_ context.Context, j scriptJob, _ int) (string, error) {
				return runFleetScript(j)
			})
		if err != nil {
			t.Fatal(err)
		}
		out := strings.Join(outs, "\n==== next job ====\n")
		if workers == 1 {
			serial = out
		}
		return []byte(out)
	})
	// The episodes must actually appear in the compared artifact, or the
	// gate silently compares trivia.
	for _, want := range []string{"place c", "trip d", "drain c", "readmit d"} {
		if !strings.Contains(serial, want) {
			t.Fatalf("trace is missing %q events:\n%s", want, serial)
		}
	}
}
