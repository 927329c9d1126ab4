package experiments

import (
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/runner/runnertest"
	"repro/internal/server"
)

// rdmaPoints runs the figure at the fast traced scale.
func rdmaPoints(t *testing.T, pool *runner.Pool) []RDMAPoint {
	t.Helper()
	pts, err := FigRDMA(pool, critScale())
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// The rendered rdma table is pinned byte-for-byte: NIC modelling, peer
// write pricing, stage re-attribution and formatting all sit under this
// golden. Regenerate with
// `go test ./internal/experiments/ -run TestCritPathRDMAGolden -update`.
func TestCritPathRDMAGolden(t *testing.T) {
	pts := rdmaPoints(t, nil)
	var b strings.Builder
	if err := WriteRDMATable(&b, pts); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "critpath_rdma.golden", []byte(b.String()))

	// The headline claims must hold in the golden itself.
	byLabel := func(label string, co bool) *RDMAPoint {
		for i := range pts {
			if pts[i].Label == label && pts[i].Corun == co {
				return &pts[i]
			}
		}
		t.Fatalf("missing %s corun=%v", label, co)
		return nil
	}
	hostDimm, peerDimm := byLabel("host-dimm", false), byLabel("peer-dimm", false)
	// Zero-copy: under peer-DMA the copy stage AND the host-DRAM bounce
	// stage are both absent from the critical path — the rdma stage
	// carries the ingress instead.
	if peerDimm.CopyPct != 0 || peerDimm.BouncePct != 0 {
		t.Fatalf("peer-dimm copy=%.2f%% bounce=%.2f%%, want both 0", peerDimm.CopyPct, peerDimm.BouncePct)
	}
	if peerDimm.RDMAPct <= 0 {
		t.Fatalf("peer-dimm rdma share = %.2f%%, want > 0", peerDimm.RDMAPct)
	}
	if hostDimm.BouncePct <= 0 {
		t.Fatalf("host-dimm bounce share = %.2f%%, want > 0 (page-cache misses bounce)", hostDimm.BouncePct)
	}
	if hostDimm.RDMAPct != 0 {
		t.Fatalf("host-dimm rdma share = %.2f%%, want 0", hostDimm.RDMAPct)
	}
	// Goodput: the zero-copy path must at least match the host-mediated
	// fleet at equal rank count.
	if peerDimm.RPS < hostDimm.RPS {
		t.Fatalf("peer-dimm rps %.0f < host-dimm rps %.0f", peerDimm.RPS, hostDimm.RPS)
	}
	// Doorbell batching must be active (more than one WQE per ring on
	// a 16KB record split into 4KB MTUs).
	if peerDimm.WQEPerDoorbell <= 1 {
		t.Fatalf("wqe/doorbell %.2f, want > 1", peerDimm.WQEPerDoorbell)
	}
	if peerDimm.PeerBytes == 0 {
		t.Fatalf("no peer bytes deposited")
	}
}

// The determinism gate for the rdma figure: serial, pooled, and
// GOMAXPROCS=2 runs must render byte-identical tables.
func TestRDMADeterministicAcrossSchedulers(t *testing.T) {
	runnertest.SameBytes(t, func(workers int) []byte {
		var b strings.Builder
		if err := WriteRDMATable(&b, rdmaPoints(t, runner.New(workers))); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), "peer-dimm") {
			t.Fatalf("table malformed:\n%s", b.String())
		}
		return []byte(b.String())
	})
}

// Peer-DMA pressure-isolation sanity: the antagonist column exists and
// the co-run rows still satisfy the zero-copy invariant.
func TestRDMACorunRowsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pts := rdmaPoints(t, nil)
	if len(pts) != 6 {
		t.Fatalf("want 6 rows, got %d", len(pts))
	}
	for _, p := range pts {
		if p.Corun && p.AntOps <= 0 {
			t.Fatalf("%s co-run row missing antagonist progress", p.Label)
		}
		if p.Label == "peer-dimm" && (p.CopyPct != 0 || p.BouncePct != 0) {
			t.Fatalf("peer-dimm corun=%v copy=%.2f bounce=%.2f, want 0/0", p.Corun, p.CopyPct, p.BouncePct)
		}
		if p.Requests == 0 {
			t.Fatalf("%s corun=%v served no requests", p.Label, p.Corun)
		}
	}
	_ = server.StageNames // keep the import honest if asserts change
}
