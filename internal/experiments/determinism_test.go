package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/runner"
	"repro/internal/runner/runnertest"
	"repro/internal/server"
	"repro/internal/sim"
)

// detScale is small enough to run every sweep twice in one test.
func detScale() Scale {
	return Scale{
		Connections: 32, Workers: 2,
		WarmupPs: sim.Ms / 2, MeasurePs: 2 * sim.Ms,
		LLCBytes: 128 << 10, LLCWays: 8,
	}
}

// renderSweeps runs the figure sweeps and formats every field of every
// result, so any divergence — values or ordering — shows up as a byte
// difference.
func renderSweeps(t *testing.T, pool *runner.Pool) string {
	t.Helper()
	sc := detScale()
	var b strings.Builder

	for _, p := range Fig2(pool, []float64{0, 0.5}) {
		fmt.Fprintf(&b, "fig2 %s %.2f %.6f %d\n", p.Placement, p.DropPct, p.Gbps, p.Resyncs)
	}

	f3, err := Fig3(pool, sc, []int{8, 32}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range f3 {
		fmt.Fprintf(&b, "fig3 %d %.6f %.6f %.6f\n", p.Connections, p.HTTPMemGBps, p.HTTPSMemGBps, p.NormalizedRatio)
	}

	f10, err := Fig10(pool, []int{128 << 10, 512 << 10}, sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f10 {
		fmt.Fprintf(&b, "fig10 %d %.6f %d\n", s.LLCBytes, s.EquilibriumKB, s.ForceRecycles)
		for _, p := range Downsample(s.Points, 8) {
			fmt.Fprintf(&b, "fig10pt %d %.6f\n", p.AtPs, p.V)
		}
	}

	perf, err := RunPlacements(pool, sc, server.HTTPSMode, []int{2048, 4096}, corpus.Text)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range perf {
		fmt.Fprintf(&b, "fig11 %s %d %.6f %.6f %.6f %.6f\n",
			p.Placement, p.MsgSize, p.Metrics.RPS, p.RPSNorm, p.CPUNorm, p.MemNorm)
	}

	t1, err := Table1(pool, sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range t1 {
		fmt.Fprintf(&b, "table1 %s %.6f %.6f %.6f\n", r.Placement, r.NginxSlowdown, r.McfSlowdown, r.CoRunRPS)
	}
	return b.String()
}

// TestSweepsDeterministicUnderParallelism is the regression gate for the
// parallel harness: a four-worker pool, and a GOMAXPROCS-wide pool at
// GOMAXPROCS=2, must reproduce the serial sweep byte-for-byte. Every simulation owns its engine and seeded RNG, so the
// only way this can fail is shared mutable state leaking between runs —
// exactly the bug class this test exists to catch. The serial sweep plus
// the per-stage breakdown (at full precision) is also pinned against
// testdata/sweeps.golden, so no refactor of the serving-stack assembly
// may move a figure; regenerate with
// `go test ./internal/experiments/ -run TestSweepsDeterministic -update`.
func TestSweepsDeterministicUnderParallelism(t *testing.T) {
	serial := renderSweeps(t, nil)
	var b strings.Builder
	b.WriteString(serial)
	rows, err := FigBreakdown(nil, detScale(), server.HTTPSMode, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		m := r.Metrics
		fmt.Fprintf(&b, "breakdown %s %v %v %v %v %v %v %v %v %v %v\n", r.Placement,
			m.Requests, m.ElapsedPs, m.RPS, m.CPUBusyPs, m.MemBytes, m.TXBytes,
			m.MeanLatPs, m.Latency.Percentile(99), m.StagePs, r.SharePct)
	}
	checkGolden(t, "sweeps.golden", []byte(b.String()))
	if strings.Count(serial, "\n") < 20 {
		t.Fatalf("sweep output suspiciously small:\n%s", serial)
	}

	runnertest.SameBytes(t, func(workers int) []byte {
		if workers == 1 {
			return []byte(serial)
		}
		return []byte(renderSweeps(t, runner.New(workers)))
	})
}
