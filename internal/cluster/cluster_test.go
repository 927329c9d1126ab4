package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/runner/runnertest"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func testConfig(seed int64) Config {
	return Config{
		Nodes: 3, Conns: 6, MsgSize: 1024, Workers: 2, NodeConns: 2,
		FileKind: corpus.Text, Seed: seed, Trace: true, ExecWorkers: 1,
	}
}

// TestClusterServesLinearizably is the smoke test: a healthy 3-node
// cluster elects primaries, serves a read/write mix, and the full
// checker passes over the recorded history.
func TestClusterServesLinearizably(t *testing.T) {
	c, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Run(3*sim.Ms, 10*sim.Ms)
	if err != nil {
		t.Fatal(err)
	}
	if m.Ops == 0 || m.AckedWrites == 0 || m.AckedReads == 0 {
		t.Fatalf("cluster served nothing: %+v", m)
	}
	if m.Promotions < uint64(len(c.groups)) {
		t.Fatalf("promotions %d < groups %d: some group never elected a primary", m.Promotions, len(c.groups))
	}
	c.Quiesce(2 * sim.Ms)
	if rep := c.Check(); !rep.Ok() {
		t.Fatalf("checker failed on a healthy run:\n%s", rep)
	}
	// Replication work crossed the fabric.
	if m.Net.Delivered == 0 || m.Net.WireBytes == 0 {
		t.Fatalf("no fabric traffic: %+v", m.Net)
	}
}

// TestClusterFailover kills the initial primary mid-run: backups must
// promote, clients must keep getting acks afterwards, the node must
// catch up after rejoining, and no acked write may be lost.
func TestClusterFailover(t *testing.T) {
	c, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	const killAt, rejoinAt, end = 6 * sim.Ms, 14 * sim.Ms, 24 * sim.Ms
	c.KillAt(0, killAt)
	c.RejoinAt(0, rejoinAt)
	c.Start()
	c.RunUntil(3 * sim.Ms)
	c.BeginMeasurement()
	c.RunUntil(end)
	m, err := c.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if m.Ops == 0 {
		t.Fatal("no operations acked")
	}
	// Progress after the kill: some write must have acked while node 0
	// was down — served by a promoted backup.
	during := 0
	for _, op := range c.History() {
		if op.Kind == OpWrite && op.AckPs > killAt+2*sim.Ms && op.AckPs < rejoinAt {
			during++
		}
	}
	if during == 0 {
		t.Fatal("no writes acked while the killed node was down: failover did not happen")
	}
	c.Quiesce(2 * sim.Ms)
	if rep := c.Check(); !rep.Ok() {
		t.Fatalf("checker failed across failover:\n%s", rep)
	}
	// The rejoined node caught up: its committed logs match the others
	// (checkDurability already proves acked writes reached node 0).
	for g := range c.groups {
		r0 := c.nodes[0].reps[g]
		if r0.commit == 0 {
			t.Fatalf("group %d: rejoined node 0 never caught up", g)
		}
	}
}

// TestClusterDrainTransfersLeadership drains the node holding every
// initial leadership: the leaderships must move without losing a single
// acked write, and the drained node must stop serving.
func TestClusterDrain(t *testing.T) {
	c, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	c.DrainAt(0, 5*sim.Ms)
	if _, err := c.Run(3*sim.Ms, 12*sim.Ms); err != nil {
		t.Fatal(err)
	}
	c.Quiesce(2 * sim.Ms)
	if rep := c.Check(); !rep.Ok() {
		t.Fatalf("checker failed across drain:\n%s", rep)
	}
	for g := range c.groups {
		if c.nodes[0].reps[g].state == leader {
			t.Fatalf("group %d: drained node 0 still leads", g)
		}
	}
}

// TestClusterAsymmetricPartition cuts the router->primary direction
// only (requests lost, responses deliverable): the fabric retransmits
// through the window and the checker holds.
func TestClusterAsymmetricPartition(t *testing.T) {
	cfg := testConfig(4)
	cfg.NetFaults = func(ep int) *fault.Injector {
		inj := fault.New(400 + int64(ep))
		inj.Arm(SiteNetCut, fault.Partition{
			FromPs: 5 * sim.Ms, ToPs: 7 * sim.Ms,
			A: []int{0}, B: []int{1}, OneWay: true,
		})
		return inj
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Run(3*sim.Ms, 12*sim.Ms)
	if err != nil {
		t.Fatal(err)
	}
	if m.Net.Dropped == 0 {
		t.Fatal("partition never dropped a message")
	}
	c.Quiesce(2 * sim.Ms)
	if rep := c.Check(); !rep.Ok() {
		t.Fatalf("checker failed across asymmetric partition:\n%s", rep)
	}
}

// clusterFingerprint renders one run's deterministic artifacts — the
// checker report, the metrics, and the merged Perfetto trace — for
// byte-identity comparison across execution schedules.
func clusterFingerprint(t *testing.T, execWorkers int) []byte {
	t.Helper()
	cfg := testConfig(5)
	cfg.ExecWorkers = execWorkers
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.KillAt(1, 5*sim.Ms)
	c.RejoinAt(1, 9*sim.Ms)
	m, err := c.Run(3*sim.Ms, 10*sim.Ms)
	if err != nil {
		t.Fatal(err)
	}
	c.Quiesce(2 * sim.Ms)
	var b bytes.Buffer
	fmt.Fprintf(&b, "ops=%d w=%d r=%d to=%d rt=%d rd=%d promo=%d\n",
		m.Ops, m.AckedWrites, m.AckedReads, m.Timeouts, m.Retries, m.Redirects, m.Promotions)
	fmt.Fprintf(&b, "net=%+v\n", m.Net)
	fmt.Fprintf(&b, "epochs=%d msgs=%d events=%d\n", m.Epochs, m.SentMsgs, m.Processed)
	b.WriteString(c.Check().String())
	reg := telemetry.NewRegistry()
	c.RegisterMetrics(reg)
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if err := c.MergedTrace().WritePerfetto(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestClusterDeterministicAcrossWorkers is the cluster determinism
// gate: serial reference execution, parallel execution, and a different
// GOMAXPROCS produce byte-identical traces, metrics, and reports even
// across a kill/rejoin schedule.
func TestClusterDeterministicAcrossWorkers(t *testing.T) {
	runnertest.SameBytes(t, func(workers int) []byte { return clusterFingerprint(t, workers) })
}

// TestClusterTimerSafety pins the timer relations the protocol's
// safety rests on: a read lease no longer than the minimum election
// delay (else a deposed primary could serve a stale read), and a
// heartbeat period covering the fabric round trip (else heartbeats
// flood the wire).
func TestClusterTimerSafety(t *testing.T) {
	if leasePs > electionPs {
		t.Errorf("lease %dps exceeds the %dps election floor", leasePs, electionPs)
	}
	if heartbeatPs < 2*propPs {
		t.Errorf("heartbeat %dps under the fabric RTT %dps", heartbeatPs, 2*propPs)
	}
}
