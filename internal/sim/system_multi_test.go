package sim

import (
	"testing"

	"repro/internal/dram"
)

func TestSystemPlainExhaustion(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		Params: DefaultParams(), LLCBytes: 1 << 20, LLCWays: 8,
		Geometry: dram.Geometry{Ranks: 1, BankGroups: 4, BanksPerBG: 4, Rows: 16, ColsPerRow: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny geometry: 16 banks x 16 rows x 128 cols x 64B = 2MB.
	if _, err := sys.AllocPlain(4 << 20); err == nil {
		t.Fatal("over-allocation accepted")
	}
}

func TestContentionModelInflatesLatency(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		Params: DefaultParams(), LLCBytes: 256 << 10, LLCWays: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Generate heavy demand across two windows so the load factor
	// updates; the engine clock advances via scheduled events.
	addr, _ := sys.AllocPlain(8 << 20)
	var tickErr error
	var hammer func()
	rounds := 0
	hammer = func() {
		_, lat, err := sys.Hier.Read(nil, 0, addr+uint64(rounds%64)*128*1024, 128*1024)
		if err != nil {
			tickErr = err
			return
		}
		rounds++
		if rounds < 40 {
			sys.Engine.After(lat, hammer)
		}
	}
	sys.Engine.After(0, hammer)
	for sys.Engine.Step() {
	}
	if tickErr != nil {
		t.Fatal(tickErr)
	}
	if lf := sys.Hier.LoadFactor(); lf <= 1.0 {
		t.Fatalf("load factor %.2f never rose under saturating demand", lf)
	}
}
