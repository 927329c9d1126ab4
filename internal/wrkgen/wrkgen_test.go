package wrkgen

import (
	"testing"

	"repro/internal/sim"
)

// fixedServer completes every request after a constant service time,
// one at a time (no concurrency limit).
type fixedServer struct {
	eng       *sim.Engine
	servicePs int64
}

func (f *fixedServer) Submit(connID int, done func()) {
	f.eng.After(f.servicePs, done)
}

func TestClosedLoopThroughput(t *testing.T) {
	eng := sim.NewEngine()
	srv := &fixedServer{eng: eng, servicePs: 100 * sim.Us}
	g := New(eng, srv, Config{Connections: 4})
	g.Start()
	eng.RunUntil(1 * sim.Ms)
	g.BeginMeasurement()
	eng.RunUntil(11 * sim.Ms)
	// 4 connections, 100us service, no think time: 40 req/ms = 40k RPS.
	rps := g.RPS()
	if rps < 35_000 || rps > 45_000 {
		t.Fatalf("RPS = %.0f, want ~40000", rps)
	}
	if g.Completed == 0 {
		t.Fatal("no completions")
	}
	// Latency ~ service time.
	mean := g.Latency.Mean()
	if mean < 90e-6 || mean > 150e-6 {
		t.Fatalf("mean latency %.1fus, want ~100us", mean*1e6)
	}
}

func TestThinkTimeReducesRate(t *testing.T) {
	run := func(think int64) float64 {
		eng := sim.NewEngine()
		srv := &fixedServer{eng: eng, servicePs: 50 * sim.Us}
		g := New(eng, srv, Config{Connections: 2, ThinkPs: think})
		g.Start()
		g.BeginMeasurement()
		eng.RunUntil(10 * sim.Ms)
		return g.RPS()
	}
	if noThink, withThink := run(0), run(200*sim.Us); withThink >= noThink {
		t.Fatalf("think time did not reduce rate: %.0f vs %.0f", withThink, noThink)
	}
}

func TestRPSBeforeMeasurement(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, &fixedServer{eng: eng, servicePs: sim.Us}, Config{})
	if g.RPS() != 0 {
		t.Fatal("RPS before any time elapsed should be 0")
	}
}
