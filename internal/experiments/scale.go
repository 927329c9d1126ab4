package experiments

// The fleet scaling experiment (`cmd/figures -fig scale`): aggregate RPS
// and p99 latency of the compressed-HTTP serving stack as the SmartDIMM
// fleet grows from 1 to 8 ranks, under a uniform closed-loop load and
// under a Zipf-skewed one where a few hot connections carry most of the
// request rate. Compression keeps the shared 100GbE link far from
// saturation (responses leave the server ~4x smaller), so the device
// fleet — not the NIC — is the scaling bottleneck: the uniform sweep
// shows device count as a throughput lever, and the skewed sweep
// separates the placement policies — least-loaded migrates hot
// connections off deep queues while round-robin only sheds at hard
// saturation, so its tail latency degrades first.

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/corpus"
	"repro/internal/fleet"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
)

// FleetScale sizes the fleet scaling experiment: QuickScale's LLC and
// windows, but 64 connections against 32 workers so the worker pool and
// the shared NIC link stay ahead of the device fleet — device count is
// the variable under test, so nothing else may bottleneck first.
func FleetScale() Scale {
	return Scale{
		Connections: 64, Workers: 32,
		WarmupPs: 2 * sim.Ms, MeasurePs: 10 * sim.Ms,
		LLCBytes: 512 << 10, LLCWays: 8,
	}
}

// ScalePoint is one (device count, policy, load) fleet measurement.
type ScalePoint struct {
	Devices    int
	Policy     string
	Load       string // "uniform" or "zipf"
	RPS        float64
	P99Us      float64
	MeanUs     float64
	Migrations uint64
	Sheds      uint64
	Fallback   float64 // fraction of chunks degraded to the CPU rung
}

// scaleJob names one simulation of the sweep.
type scaleJob struct {
	devices int
	policy  fleet.Policy
	zipf    bool
}

// zipfThink builds a deterministic per-connection think-time table: a
// seeded permutation assigns each connection a popularity rank; the
// eight hottest connections request nearly back-to-back (a tenth of the
// base think time) and the rest cool off as rank^1.1 (capped), so a
// handful of connections carry most of the request rate — the shape of
// a Zipf-popular object set behind persistent connections. The
// permutation scatters hot connections over IDs so round-robin
// placement cannot balance them by accident.
func zipfThink(conns int, basePs int64, seed int64) func(int) int64 {
	rng := rand.New(rand.NewSource(seed))
	ranks := rng.Perm(conns)
	thinks := make([]int64, conns)
	for i, r := range ranks {
		mult := math.Pow(float64(r+1), 1.1)
		if mult > 40 {
			mult = 40
		}
		if r < 8 {
			mult = 0.1
		}
		// Per-connection jitter decorrelates equal-rank connections so
		// the cold majority doesn't synchronize into request bursts.
		mult *= 0.75 + 0.5*rng.Float64()
		thinks[i] = int64(float64(basePs) * mult)
	}
	return func(c int) int64 { return thinks[c%conns] }
}

// runScalePoint measures one closed-loop window of compressed HTTP
// served through an n-rank fleet.
func runScalePoint(sc Scale, j scaleJob, msgSize int) (ScalePoint, error) {
	sp := sc.spec(PlaceSmartDIMM, server.CompressedHTTP, msgSize, corpus.HTML, 11)
	sp.Placement, sp.Devices = j.policy.String(), j.devices
	load := "uniform"
	if j.zipf {
		base := int64(sim.DefaultParams().RTTUs * float64(sim.Us))
		sp.ThinkPsFor = zipfThink(sc.Connections, base, 17)
		load = "zipf"
	}
	st, err := scenario.Build(sp)
	if err != nil {
		return ScalePoint{}, err
	}
	if _, err := st.Run(); err != nil {
		return ScalePoint{}, err
	}
	gen, t := st.Gen, st.Fleet.Totals()
	return ScalePoint{
		Devices:    j.devices,
		Policy:     j.policy.String(),
		Load:       load,
		RPS:        gen.RPS(),
		P99Us:      gen.Latency.Percentile(99) * 1e6,
		MeanUs:     gen.Latency.Mean() * 1e6,
		Migrations: t.Migrations,
		Sheds:      t.Sheds,
		Fallback:   t.Degraded.FallbackRate(),
	}, nil
}

// FigScale runs the full sweep: round-robin and least-loaded at each
// device count under both loads, plus the affinity and sticky policies
// at the largest count under skew (one row each, enough to compare all
// four policies). One simulation per worker.
func FigScale(pool *runner.Pool, sc Scale, devCounts []int, msgSize int) ([]ScalePoint, error) {
	var jobs []scaleJob
	for _, zipf := range []bool{false, true} {
		for _, n := range devCounts {
			for _, p := range []fleet.Policy{fleet.RoundRobin, fleet.LeastLoaded} {
				jobs = append(jobs, scaleJob{devices: n, policy: p, zipf: zipf})
			}
		}
	}
	maxDev := devCounts[len(devCounts)-1]
	jobs = append(jobs,
		scaleJob{devices: maxDev, policy: fleet.Affinity, zipf: true},
		scaleJob{devices: maxDev, policy: fleet.Sticky, zipf: true},
	)
	return runner.Map(context.Background(), pool, jobs,
		func(_ context.Context, j scaleJob, _ int) (ScalePoint, error) {
			return runScalePoint(sc, j, msgSize)
		})
}

// RenderScale prints the sweep the way cmd/figures expects.
func RenderScale(points []ScalePoint) string {
	s := fmt.Sprintf("%-8s %-9s %-9s %12s %10s %10s %8s %6s %9s\n",
		"load", "policy", "devices", "RPS", "p99(us)", "mean(us)", "migr", "shed", "fallback")
	for _, p := range points {
		s += fmt.Sprintf("%-8s %-9s %-9d %12.0f %10.1f %10.1f %8d %6d %9.4f\n",
			p.Load, p.Policy, p.Devices, p.RPS, p.P99Us, p.MeanUs, p.Migrations, p.Sheds, p.Fallback)
	}
	return s
}
