package autoscale

// Controller unit tests against a scripted registry and fake scaler:
// the hysteresis gate (an SLO-straddling oscillation must cause zero
// actions), the basic scale-up/scale-down ladder with cooldown, and the
// one-shot policy flip on sustained queue imbalance.

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// fakeScaler tracks admits/drains over a bitmap.
type fakeScaler struct {
	active         []bool
	admits, drains int
}

func newFakeScaler(total, active int) *fakeScaler {
	f := &fakeScaler{active: make([]bool, total)}
	for i := 0; i < active; i++ {
		f.active[i] = true
	}
	return f
}

func (f *fakeScaler) Members() int { return len(f.active) }
func (f *fakeScaler) ActiveMembers() int {
	n := 0
	for _, a := range f.active {
		if a {
			n++
		}
	}
	return n
}
func (f *fakeScaler) IsActive(i int) bool { return f.active[i] }
func (f *fakeScaler) Drain(i int) error   { f.active[i] = false; f.drains++; return nil }
func (f *fakeScaler) Admit(i int) error   { f.active[i] = true; f.admits++; return nil }

// scriptedP99 registers a latency collector whose p99 follows a script,
// advancing one entry per registry snapshot (= one controller tick).
func scriptedP99(reg *telemetry.Registry, script func(tick int) float64) {
	tick := 0
	reg.Register("server.window", telemetry.CollectorFunc(func(emit func(telemetry.Sample)) {
		emit(telemetry.Sample{Name: "p99", Value: script(tick)})
		emit(telemetry.Sample{Name: "count", Value: 1000})
		tick++
	}))
}

func newController(t *testing.T, eng *sim.Engine, reg *telemetry.Registry, fl Scaler, cfg Config) *Controller {
	t.Helper()
	// One scrape per control tick: the scripted collectors advance one
	// entry per registry snapshot, i.e. per scrape.
	sc, err := obs.New(obs.Config{Eng: eng, Reg: reg, IntervalPs: cfg.TickPs})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs, cfg.Fl = sc, fl
	if cfg.Window == nil {
		cfg.Window = stats.NewWindow(4)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	sc.Start()
	return c
}

// A control interval that is not a whole multiple of the scrape
// interval is a config error, not a silent drift.
func TestTickMustAlignToScrape(t *testing.T) {
	eng := sim.NewEngine()
	reg := telemetry.NewRegistry()
	sc, err := obs.New(obs.Config{Eng: eng, Reg: reg, IntervalPs: 100 * sim.Us})
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{Obs: sc, Fl: newFakeScaler(2, 1), Window: stats.NewWindow(4),
		SLOPs: 1, TickPs: 150 * sim.Us})
	if err == nil {
		t.Fatal("misaligned TickPs validated")
	}
}

// A scrape interval finer than the control interval must not change the
// decision cadence: the controller acts every TickPs/interval-th scrape.
func TestControlTickSubsamplesScrapes(t *testing.T) {
	eng := sim.NewEngine()
	reg := telemetry.NewRegistry()
	slo := float64(10 * sim.Us)
	scriptedP99(reg, func(int) float64 { return slo * 3 }) // sustained breach
	sc, err := obs.New(obs.Config{Eng: eng, Reg: reg, IntervalPs: 50 * sim.Us})
	if err != nil {
		t.Fatal(err)
	}
	fl := newFakeScaler(4, 1)
	c, err := New(Config{Obs: sc, Fl: fl, Window: stats.NewWindow(4),
		SLOPs: slo, TickPs: 100 * sim.Us, CooldownTicks: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	sc.Start()
	eng.RunUntil(20 * 100 * sim.Us)
	if sc.Scrapes != 40 || c.Ticks != 20 {
		t.Fatalf("scrapes=%d ticks=%d, want 40/20", sc.Scrapes, c.Ticks)
	}
	if fl.admits == 0 {
		t.Fatal("sustained breach never scaled up under subsampled control")
	}
}

// TestHysteresisNoFlap is the no-flap gate: a tail oscillating across
// the SLO edge every tick — breach, ok, breach, ok — must never
// accumulate either streak, so the controller takes zero actions over a
// long run. A single-sample controller would flap on every other tick.
func TestHysteresisNoFlap(t *testing.T) {
	eng := sim.NewEngine()
	reg := telemetry.NewRegistry()
	slo := float64(10 * sim.Us)
	scriptedP99(reg, func(tick int) float64 {
		if tick%2 == 0 {
			return slo * 1.5 // breach
		}
		return slo * 0.9 // dead band: resets the breach streak
	})
	fl := newFakeScaler(4, 2)
	c := newController(t, eng, reg, fl, Config{SLOPs: slo, TickPs: 100 * sim.Us, DownAfter: 4})
	eng.RunUntil(60 * 100 * sim.Us)
	if len(c.Actions) != 0 {
		t.Fatalf("oscillating tail caused %d actions (flap): %v", len(c.Actions), c.Actions)
	}
	if fl.admits != 0 || fl.drains != 0 {
		t.Fatalf("admits=%d drains=%d, want 0/0", fl.admits, fl.drains)
	}
	if c.Ticks < 50 {
		t.Fatalf("only %d ticks ran", c.Ticks)
	}
}

// TestScaleUpDownLadder drives a sustained breach, then a sustained
// quiet phase, and checks the ladder: one admit per breach episode
// (cooldown absorbs the rest), drains down to MinActive in the quiet
// phase, and never below it.
func TestScaleUpDownLadder(t *testing.T) {
	eng := sim.NewEngine()
	reg := telemetry.NewRegistry()
	slo := float64(10 * sim.Us)
	scriptedP99(reg, func(tick int) float64 {
		if tick < 12 {
			return slo * 3 // hot: admit
		}
		return slo * 0.1 // idle: drain
	})
	fl := newFakeScaler(4, 1)
	c := newController(t, eng, reg, fl, Config{
		SLOPs: slo, TickPs: 100 * sim.Us,
		DownAfter: 3, CooldownTicks: 2, MinActive: 1,
	})
	eng.RunUntil(40 * 100 * sim.Us)
	if fl.admits == 0 {
		t.Fatal("sustained breach never scaled up")
	}
	if fl.admits > 3 {
		t.Fatalf("%d admits in a 12-tick breach with cooldown 2, want <= 3", fl.admits)
	}
	if got := fl.ActiveMembers(); got != 1 {
		t.Fatalf("quiet phase drained to %d active, want MinActive=1", got)
	}
	for _, a := range c.Actions {
		if a.What == "drain" && a.Rank == 0 {
			t.Fatal("drained rank 0 below the floor")
		}
	}
	if c.SLOHeldFrac() <= 0 || c.SLOHeldFrac() >= 1 {
		t.Fatalf("SLOHeldFrac = %g, want in (0,1) for a mixed run", c.SLOHeldFrac())
	}
}

// TestImbalanceFlipsPolicyOnce: a sustained per-rank qdepth skew fires
// the FlipPolicy hook exactly once, ever.
func TestImbalanceFlipsPolicyOnce(t *testing.T) {
	eng := sim.NewEngine()
	reg := telemetry.NewRegistry()
	slo := float64(10 * sim.Us)
	scriptedP99(reg, func(int) float64 { return slo * 0.6 }) // dead band: no scaling
	reg.Register("fleet.state", telemetry.CollectorFunc(func(emit func(telemetry.Sample)) {
		emit(telemetry.Sample{Name: "rank0", Value: 1})
		emit(telemetry.Sample{Name: "rank1", Value: 1})
	}))
	reg.Register("fleet", telemetry.CollectorFunc(func(emit func(telemetry.Sample)) {
		emit(telemetry.Sample{Name: "rank0.qdepth.p99", Value: 40})
		emit(telemetry.Sample{Name: "rank1.qdepth.p99", Value: 1})
	}))
	flips := 0
	fl := newFakeScaler(2, 2)
	c := newController(t, eng, reg, fl, Config{
		SLOPs: slo, TickPs: 100 * sim.Us,
		FlipPolicy: func() { flips++ }, ImbalanceRatio: 4, ImbalanceAfter: 3,
	})
	eng.RunUntil(30 * 100 * sim.Us)
	if flips != 1 {
		t.Fatalf("FlipPolicy fired %d times, want exactly 1", flips)
	}
	found := false
	for _, a := range c.Actions {
		if a.What == "flip-policy" {
			found = true
		}
	}
	if !found {
		t.Fatal("flip-policy missing from the action log")
	}
}
