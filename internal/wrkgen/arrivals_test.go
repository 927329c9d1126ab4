package wrkgen

import (
	"testing"

	"repro/internal/runner"
	"repro/internal/runner/runnertest"
	"repro/internal/sim"
)

func arrivalCfg() ArrivalConfig {
	return ArrivalConfig{
		Streams:     6,
		Connections: 48,
		BaseRPS:     200000,
		HorizonPs:   20 * sim.Ms,
		Seed:        7,
		DiurnalAmp:  0.5, DiurnalPeriodPs: 20 * sim.Ms,
		Flash:        []FlashCrowd{{StartPs: 8 * sim.Ms, EndPs: 12 * sim.Ms, Mult: 3}},
		BurstEveryPs: 2 * sim.Ms, BurstLen: 16, BurstGapPs: sim.Us,
	}
}

// TestArrivalTraceDeterministic is the arrival determinism gate: the
// same seed must yield byte-identical traces whether streams generate
// serially, on a 4-worker pool, or on a GOMAXPROCS-wide pool under
// GOMAXPROCS=2 — possible only because every bit of arrival-
// process state is per-stream, never package-shared.
func TestArrivalTraceDeterministic(t *testing.T) {
	runnertest.SameBytes(t, func(workers int) []byte {
		tr, err := GenArrivalsPooled(arrivalCfg(), runner.New(workers))
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Arrivals) == 0 {
			t.Fatal("empty trace")
		}
		return []byte(tr.String())
	})
}

// TestArrivalShapes sanity-checks the rate shaping: the flash-crowd
// window must hold measurably more arrivals than an equal-width quiet
// window, and every arrival must respect the horizon.
func TestArrivalShapes(t *testing.T) {
	cfg := arrivalCfg()
	cfg.BurstEveryPs = 0 // isolate the flash crowd
	cfg.DiurnalAmp = 0   // (the ramp would boost the quiet window)
	tr, err := GenArrivals(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var flash, quiet int
	for _, a := range tr.Arrivals {
		if a.AtPs < 0 || a.AtPs >= cfg.HorizonPs {
			t.Fatalf("arrival at %d outside horizon %d", a.AtPs, cfg.HorizonPs)
		}
		if a.Conn < 0 || a.Conn >= cfg.Connections {
			t.Fatalf("arrival conn %d outside pool %d", a.Conn, cfg.Connections)
		}
		switch {
		case a.AtPs >= 8*sim.Ms && a.AtPs < 12*sim.Ms:
			flash++
		case a.AtPs >= 2*sim.Ms && a.AtPs < 6*sim.Ms:
			quiet++
		}
	}
	if flash < 2*quiet {
		t.Fatalf("flash window %d arrivals vs quiet %d: expected ~3x crowd", flash, quiet)
	}
	for i := 1; i < len(tr.Arrivals); i++ {
		if tr.Arrivals[i].AtPs < tr.Arrivals[i-1].AtPs {
			t.Fatalf("trace not time-ordered at %d", i)
		}
	}
}

// TestOpenLoopReplay drives the replayer against a trivial target and
// checks open-loop semantics: every arrival is issued at its trace
// time even while earlier requests are still in flight.
func TestOpenLoopReplay(t *testing.T) {
	eng := sim.NewEngine()
	cfg := ArrivalConfig{Streams: 2, Connections: 4, BaseRPS: 1e6, HorizonPs: sim.Ms, Seed: 3}
	tr, err := GenArrivals(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Target holds every request 50us: far longer than the ~1us mean
	// arrival gap, so a closed loop would throttle to ~conns/50us.
	var served int
	tgt := targetFunc(func(connID int, done func()) {
		served++
		eng.After(50*sim.Us, done)
	})
	g := NewOpenLoop(eng, tgt, tr, nil)
	g.Start()
	eng.RunUntil(2 * sim.Ms)
	if g.Issued != uint64(len(tr.Arrivals)) {
		t.Fatalf("issued %d of %d arrivals", g.Issued, len(tr.Arrivals))
	}
	if g.Completed != g.Issued {
		t.Fatalf("completed %d of %d", g.Completed, g.Issued)
	}
	if g.PeakIn < 10 {
		t.Fatalf("peak in-flight %d: open loop should overlap requests", g.PeakIn)
	}
}

type targetFunc func(connID int, done func())

func (f targetFunc) Submit(connID int, done func()) { f(connID, done) }
