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
	a, err := Start(eng, sys)
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
	// 40MB of working sets >> 256KB LLC.
	if _, err := Start(eng, sys); err != nil {
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
		a, err := Start(eng, sys)
		if err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(1 * sim.Ms)
		a.BeginMeasurement()
		eng.RunUntil(6 * sim.Ms)
		return a.OpsPerSecond()
	}
	big := run(16 << 20) // 40% of the working sets fit
	small := run(64 << 10)
	if small >= big {
		t.Fatalf("smaller LLC did not slow the antagonist: %.0f vs %.0f", small, big)
	}
}

func TestDefaultsApplied(t *testing.T) {
	sys := newSys(t, 256<<10)
	eng := sim.NewEngine()
	a, err := Start(eng, sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.bases) != 10 || a.bases[1]-a.bases[0] < 4<<20 {
		t.Fatalf("%d instances at %#x, want the paper's 10 of 4MB each", len(a.bases), a.bases)
	}
	if a.OpsPerSecond() != 0 {
		t.Fatal("ops before measurement should be 0")
	}
}
