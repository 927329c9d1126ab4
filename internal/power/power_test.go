package power

import (
	"math"
	"testing"
)

func TestPaperTotals(t *testing.T) {
	m := PaperModel()
	// §VII-D: 4.78W dynamic at full DDR utilization.
	if got := m.DynamicAtFullWatts(); math.Abs(got-4.78) > 0.01 {
		t.Fatalf("dynamic at full = %.2fW, want 4.78W", got)
	}
	// §VII-D: TLS offload consumes ~21.8% of FPGA resources.
	if got := m.TLSOffloadFPGAPercent(); math.Abs(got-21.8) > 0.1 {
		t.Fatalf("TLS FPGA share = %.1f%%, want 21.8%%", got)
	}
}

func TestAddedPowerNearPaperAverage(t *testing.T) {
	m := PaperModel()
	// The paper observes <30% channel utilization and ~0.92W average
	// added power; the model must land near that at 30%.
	got := m.AddedPowerAt(0.30)
	if math.Abs(got-0.92) > 0.05 {
		t.Fatalf("added power at 30%% = %.2fW, want ~0.92W", got)
	}
}

func TestPowerMonotonicInUtilization(t *testing.T) {
	m := PaperModel()
	prev := -1.0
	for u := 0.0; u <= 1.0; u += 0.1 {
		p := m.powerAt(u)
		if p <= prev {
			t.Fatalf("power not increasing at u=%.1f", u)
		}
		prev = p
	}
	// Clamping.
	if m.powerAt(-1) != m.powerAt(0) || m.powerAt(2) != m.powerAt(1) {
		t.Fatal("utilization not clamped")
	}
	if m.AddedPowerAt(-1) != m.AddedPowerAt(0) || m.AddedPowerAt(2) != m.AddedPowerAt(1) {
		t.Fatal("added-power utilization not clamped")
	}
}

func TestPowerAtFullIncludesStatic(t *testing.T) {
	m := PaperModel()
	if m.powerAt(1) <= m.DynamicAtFullWatts() {
		t.Fatal("full power should include static")
	}
	if m.powerAt(0) != m.StaticWatts {
		t.Fatal("idle power should equal static")
	}
}
