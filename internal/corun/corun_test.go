package corun

import (
	"testing"

	"repro/internal/sim"
)

func newSys(t *testing.T, llcBytes int) *sim.System {
	t.Helper()
	sys, err := sim.NewSystem(sim.SystemConfig{
		Params: sim.DefaultParams(), LLCBytes: llcBytes, LLCWays: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestAntagonistMakesProgress(t *testing.T) {
	sys := newSys(t, 256<<10)
	eng := sim.NewEngine()
	cfg := DefaultConfig(sys)
	cfg.Instances = 2
	cfg.WorkingSetBytes = 1 << 20
	a, err := Start(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(1 * sim.Ms)
	a.BeginMeasurement()
	eng.RunUntil(5 * sim.Ms)
	if a.OpsPerSecond() <= 0 {
		t.Fatal("antagonist made no progress")
	}
}

func TestAntagonistThrashesLLC(t *testing.T) {
	sys := newSys(t, 256<<10)
	eng := sim.NewEngine()
	cfg := DefaultConfig(sys)
	cfg.Instances = 4
	cfg.WorkingSetBytes = 2 << 20 // 8MB total >> 256KB LLC
	if _, err := Start(eng, cfg); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(2 * sim.Ms)
	if sys.MemoryBytesMoved() == 0 {
		t.Fatal("no DRAM traffic from antagonist")
	}
	if mr := sys.LLCMissRateSample(); mr < 0.5 {
		t.Fatalf("antagonist miss rate %.2f, want high", mr)
	}
}

func TestSmallerLLCSlowsAntagonist(t *testing.T) {
	run := func(llc int) float64 {
		sys := newSys(t, llc)
		eng := sim.NewEngine()
		cfg := DefaultConfig(sys)
		cfg.Instances = 2
		cfg.WorkingSetBytes = 1 << 20
		a, err := Start(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(1 * sim.Ms)
		a.BeginMeasurement()
		eng.RunUntil(6 * sim.Ms)
		return a.OpsPerSecond()
	}
	big := run(4 << 20) // working set fits: mostly hits
	small := run(64 << 10)
	if small >= big {
		t.Fatalf("smaller LLC did not slow the antagonist: %.0f vs %.0f", small, big)
	}
}

func TestDefaultsApplied(t *testing.T) {
	sys := newSys(t, 256<<10)
	eng := sim.NewEngine()
	a, err := Start(eng, Config{Sys: sys})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.bases) != 1 {
		t.Fatalf("instances = %d, want defaulted 1", len(a.bases))
	}
	if a.OpsPerSecond() != 0 {
		t.Fatal("ops before measurement should be 0")
	}
}
