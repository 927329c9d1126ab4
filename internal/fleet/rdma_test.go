package fleet_test

// Regression tests for the drain-and-reshard × RDMA race: a one-sided
// peer write posted before a migration must never land in the draining
// rank's pages after their contents were snapshotted (and freed). The
// fix quiesces the connection's MR before the buffer copy, so the stale
// WQE NAKs and retargets against the QP's post-migration binding — the
// PR-3 strand/abort rule extended to externally-writable buffers.

import (
	"bytes"
	"testing"

	"repro/internal/fleet"
	"repro/internal/offload"
	"repro/internal/rdma"
	"repro/internal/sim"
)

func newRDMAFleet(t *testing.T, ranks int) (*sim.System, *rdma.NIC, *fleet.Fleet, *offload.RDMA) {
	t.Helper()
	sys, err := sim.NewSystem(sim.SystemConfig{
		Params: sim.DefaultParams(), LLCBytes: 256 << 10, LLCWays: 8,
		WithSmartDIMM: true, SmartDIMMRanks: ranks,
		DataPath: sim.DataPathPeer,
	})
	if err != nil {
		t.Fatal(err)
	}
	nic, err := rdma.New(rdma.Config{Sys: sys, RecordLandings: true})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := fleet.New(fleet.Config{
		Sys: sys, Policy: fleet.LeastLoaded, RNIC: nic, TracePlacement: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := offload.NewRDMA(fl, nic)
	if err != nil {
		t.Fatal(err)
	}
	return sys, nic, fl, b
}

// TestFleetRDMAMigrationQuiescesInFlightMR is the race regression: post
// a WQE, migrate the connection before the doorbell rings, and prove the
// write lands in the new home's registration — never the freed pages.
func TestFleetRDMAMigrationQuiescesInFlightMR(t *testing.T) {
	sys, nic, fl, b := newRDMAFleet(t, 2)
	conn, err := b.NewConn(offload.Compression, 0, 4096)
	if err != nil {
		t.Fatalf("NewConn: %v", err)
	}
	from := fl.Home(0)
	oldSrc := conn.Src

	// In-flight: posted to the SQ, doorbell not yet rung.
	data := make([]byte, 2048)
	for i := range data {
		data[i] = byte(i*13 + 5)
	}
	if err := nic.PostWrite(0, 0, data); err != nil {
		t.Fatalf("PostWrite: %v", err)
	}

	// Drain the home rank: the connection migrates to the survivor.
	if err := fl.Fail(from); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	to := fl.Home(0)
	if to == from || to < 0 {
		t.Fatalf("connection did not migrate off d%d (home d%d)", from, to)
	}
	if conn.Src == oldSrc {
		t.Fatalf("buffers did not move")
	}
	oldSnap, _, err := sys.DMAOut(nil, oldSrc, len(data))
	if err != nil {
		t.Fatalf("DMAOut old region: %v", err)
	}

	// The late doorbell fires the stale WQE. With the quiesce in place
	// it NAKs against the invalidated rkey and retargets to the QP's
	// rebound MR over the new buffers.
	if _, err := nic.RingDoorbell(0); err != nil {
		t.Fatalf("RingDoorbell: %v", err)
	}
	st := nic.Stats()
	if st.StaleRkeyRetries != 1 {
		t.Fatalf("stale-rkey retries %d, want 1 (%+v)", st.StaleRkeyRetries, st)
	}
	if st.Failed != 0 || st.Completed != 1 {
		t.Fatalf("stale WQE should complete after retarget: %+v", st)
	}

	got, _, err := sys.DMAOut(nil, conn.Src, len(data))
	if err != nil {
		t.Fatalf("DMAOut new region: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("in-flight write missing from the migrated buffer")
	}
	oldNow, _, err := sys.DMAOut(nil, oldSrc, len(data))
	if err != nil {
		t.Fatalf("DMAOut old region: %v", err)
	}
	if !bytes.Equal(oldSnap, oldNow) {
		t.Fatalf("in-flight write landed in the draining rank's freed pages")
	}
	for _, l := range nic.Landings() {
		mr, ok := nic.LookupMR(l.Rkey)
		if !ok || l.Addr < mr.Addr || l.Addr+uint64(l.Len) > mr.Addr+uint64(mr.Len) {
			t.Fatalf("landing outside its registered region: %+v", l)
		}
	}
	if fl.OutstandingPages() != fl.ExpectedPages() {
		t.Fatalf("page conservation: outstanding %d != expected %d",
			fl.OutstandingPages(), fl.ExpectedPages())
	}
}

// TestFleetRDMAMigrationReregisters checks the steady-state MR-locality
// invariant: after any migration the connection's registration covers
// exactly its current buffers, and deposits keep flowing.
func TestFleetRDMAMigrationReregisters(t *testing.T) {
	sys, nic, fl, b := newRDMAFleet(t, 2)
	conn, err := b.NewConn(offload.Compression, 0, 4096)
	if err != nil {
		t.Fatalf("NewConn: %v", err)
	}
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	if _, err := b.Ingest(conn, payload); err != nil {
		t.Fatalf("Ingest before migration: %v", err)
	}
	if err := fl.Fail(fl.Home(0)); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	if _, err := b.Ingest(conn, payload); err != nil {
		t.Fatalf("Ingest after migration: %v", err)
	}
	got, _, err := sys.DMAOut(nil, conn.Src, len(payload))
	if err != nil {
		t.Fatalf("DMAOut: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("post-migration deposit missing from the rebound MR")
	}
	if st := nic.Stats(); st.MRInvalidations != 1 || st.Registrations != 2 {
		t.Fatalf("expected one quiesce + one re-registration: %+v", st)
	}
}
