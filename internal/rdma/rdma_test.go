package rdma

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

func testSys(t *testing.T) *sim.System {
	t.Helper()
	sys, err := sim.NewSystem(sim.SystemConfig{
		WithSmartDIMM: true,
		DataPath:      sim.DataPathPeer,
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

func testNIC(t *testing.T, sys *sim.System, cfg Config) (*NIC, uint64, uint32) {
	t.Helper()
	return testNICPages(t, sys, cfg, 4)
}

// testNICPages builds a NIC with QP 0 bound to an MR of pages pages.
func testNICPages(t *testing.T, sys *sim.System, cfg Config, pages int) (*NIC, uint64, uint32) {
	t.Helper()
	addr, err := sys.Driver.AllocPages(pages)
	if err != nil {
		t.Fatalf("AllocPages: %v", err)
	}
	cfg.Sys = sys
	n, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rkey, err := n.RegisterMR(addr, pages*4096)
	if err != nil {
		t.Fatalf("RegisterMR: %v", err)
	}
	if err := n.CreateQP(0, rkey); err != nil {
		t.Fatalf("CreateQP: %v", err)
	}
	return n, addr, rkey
}

func payload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + 3)
	}
	return p
}

func TestRDMADepositLandsInMR(t *testing.T) {
	sys := testSys(t)
	n, addr, _ := testNIC(t, sys, Config{RecordLandings: true})
	data := payload(10_000)
	before := sys.MemoryBytesMoved()
	lat, err := n.Deposit(0, 0, data)
	if err != nil {
		t.Fatalf("Deposit: %v", err)
	}
	if lat <= 0 {
		t.Fatalf("deposit charged %d ps", lat)
	}
	got, _, err := sys.Hier.DMARead(nil, addr, len(data))
	if err != nil {
		t.Fatalf("DMAOut: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("payload mismatch after peer deposit")
	}
	st := n.Stats()
	if st.Posted != 3 || st.Completed != 3 || st.Failed != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.PeerBytes != uint64(len(data)) {
		t.Fatalf("peer bytes %d != %d", st.PeerBytes, len(data))
	}
	if n.Pending() != 0 {
		t.Fatalf("pending %d after drain", n.Pending())
	}
	// The peer write is priced on the rank's channel meter.
	if sys.MemoryBytesMoved() <= before {
		t.Fatalf("peer-DMA write not accounted on the channel meter")
	}
	for _, l := range n.Landings() {
		mr, ok := n.LookupMR(l.Rkey)
		if !ok || l.Addr < mr.Addr || l.Addr+uint64(l.Len) > mr.Addr+uint64(mr.Len) {
			t.Fatalf("landing outside its MR: %+v", l)
		}
	}
}

func TestRDMABoundsRefusedWithoutWrite(t *testing.T) {
	sys := testSys(t)
	n, addr, _ := testNIC(t, sys, Config{RecordLandings: true})
	snap, _, err := sys.Hier.DMARead(nil, addr, 4*4096)
	if err != nil {
		t.Fatalf("DMAOut: %v", err)
	}
	if err := n.PostWrite(0, 4*4096-100, payload(4096)); err != nil {
		t.Fatalf("PostWrite: %v", err)
	}
	if _, err := n.RingDoorbell(0); err != nil {
		t.Fatalf("RingDoorbell: %v", err)
	}
	st := n.Stats()
	if st.BoundsRefusals != 1 || st.Failed != 1 || st.Completed != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if len(n.Landings()) != 0 {
		t.Fatalf("out-of-bounds WQE landed: %+v", n.Landings())
	}
	after, _, err := sys.Hier.DMARead(nil, addr, 4*4096)
	if err != nil {
		t.Fatalf("DMAOut: %v", err)
	}
	if !bytes.Equal(snap, after) {
		t.Fatalf("refused write still mutated the MR region")
	}
	if st := n.Stats(); st.Failed != 1 || st.BoundsRefusals != 1 || st.Completed != 0 {
		t.Fatalf("completions: %+v, want one bounds failure", st)
	}
}

func TestRDMAStaleRkeyRetargetsToRebind(t *testing.T) {
	sys := testSys(t)
	n, oldAddr, oldRkey := testNIC(t, sys, Config{RecordLandings: true})
	data := payload(2048)
	if err := n.PostWrite(0, 0, data); err != nil {
		t.Fatalf("PostWrite: %v", err)
	}
	// Migration: quiesce the old MR, move the buffer, rebind.
	if rk := n.QuiesceQP(0); rk != oldRkey {
		t.Fatalf("quiesced rk%d, want rk%d", rk, oldRkey)
	}
	oldSnap, _, _ := sys.Hier.DMARead(nil, oldAddr, 2048)
	newAddr, err := sys.Driver.AllocPages(4)
	if err != nil {
		t.Fatalf("AllocPages: %v", err)
	}
	if _, err := n.RebindQP(0, newAddr, 4*4096); err != nil {
		t.Fatalf("RebindQP: %v", err)
	}
	if _, err := n.RingDoorbell(0); err != nil {
		t.Fatalf("RingDoorbell: %v", err)
	}
	st := n.Stats()
	if st.StaleRkeyRetries != 1 {
		t.Fatalf("stale retries %d, want 1 (%+v)", st.StaleRkeyRetries, st)
	}
	got, _, _ := sys.Hier.DMARead(nil, newAddr, 2048)
	if !bytes.Equal(got, data) {
		t.Fatalf("retargeted write missing from new MR")
	}
	oldNow, _, _ := sys.Hier.DMARead(nil, oldAddr, 2048)
	if !bytes.Equal(oldSnap, oldNow) {
		t.Fatalf("in-flight write landed in the quiesced region")
	}
}

func TestRDMADoorbellLossReRings(t *testing.T) {
	sys := testSys(t)
	inj := fault.New(11)
	inj.Arm(SiteDoorbell, fault.OneShot{N: 1}) // first consult: seq starts at 1
	n, addr, _ := testNIC(t, sys, Config{Faults: inj})
	data := payload(4096)
	if _, err := n.Deposit(0, 0, data); err != nil {
		t.Fatalf("Deposit under doorbell loss: %v", err)
	}
	st := n.Stats()
	if st.DoorbellsLost != 1 {
		t.Fatalf("doorbells lost %d, want 1", st.DoorbellsLost)
	}
	if st.Completed != 1 || n.Pending() != 0 {
		t.Fatalf("WQE not delivered after re-ring: %+v pending=%d", st, n.Pending())
	}
	got, _, _ := sys.Hier.DMARead(nil, addr, len(data))
	if !bytes.Equal(got, data) {
		t.Fatalf("payload missing after re-rung doorbell")
	}
}

func TestRDMARNRRetryExhaustionFailsCleanly(t *testing.T) {
	sys := testSys(t)
	inj := fault.New(7)
	inj.Arm(SiteRNR, fault.Bernoulli{Prob: 1}) // receiver never ready
	n, addr, _ := testNIC(t, sys, Config{Faults: inj, RecordLandings: true})
	snap, _, _ := sys.Hier.DMARead(nil, addr, 4096)
	if err := n.PostWrite(0, 0, payload(4096)); err != nil {
		t.Fatalf("PostWrite: %v", err)
	}
	lat, err := n.RingDoorbell(0)
	if err != nil {
		t.Fatalf("RingDoorbell: %v", err)
	}
	st := n.Stats()
	if st.Failed != 1 || st.RNRNaks != retryLimit {
		t.Fatalf("stats: %+v", st)
	}
	if lat <= 0 {
		t.Fatalf("RNR backoff charged nothing")
	}
	if len(n.Landings()) != 0 {
		t.Fatalf("NAKed WQE landed")
	}
	after, _, _ := sys.Hier.DMARead(nil, addr, 4096)
	if !bytes.Equal(snap, after) {
		t.Fatalf("NAKed WQE mutated memory")
	}
}

func TestRDMASQFullBackpressureDrains(t *testing.T) {
	sys := testSys(t)
	n, addr, _ := testNICPages(t, sys, Config{}, 4*qpDepth*mtu/4096)
	data := payload(4 * qpDepth * mtu) // 4 SQs' worth of WQEs
	if _, err := n.Deposit(0, 0, data); err != nil {
		t.Fatalf("Deposit: %v", err)
	}
	got, _, _ := sys.Hier.DMARead(nil, addr, len(data))
	if !bytes.Equal(got, data) {
		t.Fatalf("payload mismatch")
	}
	if st := n.Stats(); st.Doorbells < 4 {
		t.Fatalf("backpressure should have rung repeatedly: %+v", st)
	}
}

func TestRDMAPreloadStagesWithoutWireTime(t *testing.T) {
	sys := testSys(t)
	n, addr, _ := testNIC(t, sys, Config{})
	data := payload(4096)
	if err := n.Preload(0, 0, data); err != nil {
		t.Fatalf("Preload: %v", err)
	}
	got, _, _ := sys.Hier.DMARead(nil, addr, len(data))
	if !bytes.Equal(got, data) {
		t.Fatalf("preload missing")
	}
	if st := n.Stats(); st.WirePs != 0 || st.Doorbells != 0 {
		t.Fatalf("preload occupied the wire: %+v", st)
	}
	if err := n.Preload(0, 4*4096-1, data); err == nil {
		t.Fatalf("out-of-bounds preload accepted")
	}
}

func TestRDMATraceByteIdentical(t *testing.T) {
	run := func() string {
		sys := testSys(t)
		inj := fault.New(42)
		inj.Arm(SiteDoorbell, fault.Bernoulli{Prob: 0.2})
		inj.Arm(SiteRNR, fault.Bernoulli{Prob: 0.1})
		n, _, _ := testNIC(t, sys, Config{Faults: inj, TraceOps: true})
		for i := 0; i < 32; i++ {
			n.Deposit(0, (i%4)*4096, payload(1000+i))
		}
		return n.TraceString() + inj.TraceString()
	}
	a, b := run(), run()
	if a == "" || a != b {
		t.Fatalf("same-seed NIC traces differ (%d vs %d bytes)", len(a), len(b))
	}
}

func TestRDMAErrorsTyped(t *testing.T) {
	sys := testSys(t)
	n, _, _ := testNIC(t, sys, Config{})
	if err := n.PostWrite(9, 0, payload(64)); !errors.Is(err, ErrNoQP) {
		t.Fatalf("unknown QP: %v", err)
	}
	for i := 0; i < qpDepth; i++ {
		if err := n.PostWrite(0, 64*i, payload(64)); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	if err := n.PostWrite(0, 64*qpDepth, payload(64)); !errors.Is(err, ErrSQFull) {
		t.Fatalf("full SQ: %v", err)
	}
}
