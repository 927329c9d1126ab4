// Package autoscale is the SLO-driven fleet controller: a closed loop
// that subscribes to the observability plane's scrape ticks and resizes
// the active rank set — admitting parked ranks when the rolling p99
// breaches the latency SLO, draining them back out when the tail falls
// comfortably under it, and flipping the placement policy when per-rank
// queue depths diverge. Everything it reads comes from the obs series
// store (the same series an operator would graph and alert on): the
// rolling latency window under server.window.p99/.count, per-rank
// queue-depth sketches under fleet.rank<i>.qdepth.p99, the activity
// bitmap under fleet.state.rank<i>.
//
// The controller is deliberately conservative — production autoscalers
// that react to single samples flap, and flapping is worse than either
// steady state: every admit/drain resharding connections costs
// migrations. Three mechanisms damp it:
//
//   - hysteresis: a scale-up needs upAfter consecutive breach ticks, a
//     scale-down needs DownAfter consecutive ticks below lowFrac*SLO —
//     an oscillating tail straddling the SLO edge never accumulates
//     either streak;
//   - cooldown: after any action the controller sits out CooldownTicks
//     ticks, long enough for the reshard to show up in the window;
//   - a dead band: between lowFrac*SLO and SLO neither streak grows.
//
// The controller runs inside the scraper's single self-rescheduling
// engine event (its control tick is every TickPs/ScrapeInterval-th
// scrape), so runs are deterministic: same seed, same trace, same
// actions, at any GOMAXPROCS.
package autoscale

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Scaler is the fleet surface the controller drives. internal/fleet's
// Fleet implements it (administrative Drain/Admit hold members out of
// the breaker's auto-readmission).
type Scaler interface {
	Members() int
	ActiveMembers() int
	IsActive(i int) bool
	Drain(i int) error
	Admit(i int) error
}

// The controller's fixed thresholds.
const (
	// latencyPrefix locates the server's rolling latency window in the
	// series store.
	latencyPrefix = "server.window"
	// lowFrac*SLOPs is the scale-down threshold.
	lowFrac = 0.4
	// upAfter consecutive breach ticks trigger an admit.
	upAfter = 2
	// minSamples skips control decisions on ticks whose window holds
	// fewer completions (idle start, post-reshard gap).
	minSamples = 32
)

// Config parameterizes a controller.
type Config struct {
	// Obs is the observability plane the controller subscribes to: it
	// reads the scraped series store instead of re-scanning the raw
	// registry, and its control tick rides the scraper's engine event.
	Obs *obs.Scraper
	Fl  Scaler
	// Window is the rolling latency record the server feeds; the
	// controller rolls it once per tick so server.window.p99 always
	// spans the last few ticks, not the whole run.
	Window *stats.Window

	// TickPs is the control interval. It must be a whole multiple of the
	// scraper's interval (the controller acts every TickPs/interval-th
	// scrape). Zero selects 500us.
	TickPs int64
	// SLOPs is the p99 latency objective in picoseconds (required).
	SLOPs float64
	// DownAfter consecutive low ticks trigger a drain; zero selects 4.
	DownAfter int
	// CooldownTicks is the post-action quiet period; zero selects 3.
	CooldownTicks int
	// MinActive floors scale-down. Zero selects 1.
	MinActive int

	// FlipPolicy, when non-nil, is invoked (once) when the active ranks'
	// qdepth p99s stay imbalanced — max > ImbalanceRatio*min — for
	// ImbalanceAfter consecutive ticks: the hook where the fleet flips
	// rr/affinity to leastload live.
	FlipPolicy     func()
	ImbalanceRatio float64 // zero selects 4
	ImbalanceAfter int     // zero selects 3

	// OnAction, when non-nil, observes every control decision as it is
	// taken — the flight recorder's correlation feed.
	OnAction func(Action)
}

func (c *Config) defaults() error {
	if c.Obs == nil || c.Fl == nil || c.Window == nil {
		return fmt.Errorf("autoscale: need obs scraper, scaler, and window")
	}
	if c.SLOPs <= 0 {
		return fmt.Errorf("autoscale: need a latency SLO")
	}
	if c.TickPs <= 0 {
		c.TickPs = 500 * sim.Us
	}
	if iv := c.Obs.IntervalPs(); c.TickPs%iv != 0 {
		return fmt.Errorf("autoscale: TickPs %d is not a multiple of the scrape interval %d", c.TickPs, iv)
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 4
	}
	if c.CooldownTicks <= 0 {
		c.CooldownTicks = 3
	}
	if c.MinActive <= 0 {
		c.MinActive = 1
	}
	if c.ImbalanceRatio <= 0 {
		c.ImbalanceRatio = 4
	}
	if c.ImbalanceAfter <= 0 {
		c.ImbalanceAfter = 3
	}
	return nil
}

// Action is one control decision, for the run report and tests.
type Action struct {
	AtPs int64
	What string // "admit", "drain", "flip-policy"
	Rank int    // -1 for flip-policy
	P99  float64
}

func (a Action) String() string {
	if a.Rank < 0 {
		return fmt.Sprintf("%d %s p99=%g", a.AtPs, a.What, a.P99)
	}
	return fmt.Sprintf("%d %s d%d p99=%g", a.AtPs, a.What, a.Rank, a.P99)
}

// Controller is the live autoscaler.
type Controller struct {
	cfg       Config
	tickEvery int // control tick = every tickEvery-th scrape
	scrapes   int

	// Interned series names, so per-tick store reads don't rebuild
	// strings (mirrors the registry's own name interning).
	stateNames, qdepthNames []string

	// Actions is the decision log; TraceString renders it.
	Actions []Action
	// Ticks counts control intervals; SLOHeldTicks those whose measured
	// p99 (with enough samples) met the SLO — the soak's figure of merit.
	Ticks         int
	SLOHeldTicks  int
	MeasuredTicks int

	breachStreak, lowStreak, imbStreak int
	cooldown                           int
	flipped                            bool
}

// New validates the config and builds a controller; Start arms it.
func New(cfg Config) (*Controller, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:       cfg,
		tickEvery: int(cfg.TickPs / cfg.Obs.IntervalPs()),
	}
	for i := 0; i < cfg.Fl.Members(); i++ {
		c.stateNames = append(c.stateNames, fmt.Sprintf("fleet.state.rank%d", i))
		c.qdepthNames = append(c.qdepthNames, fmt.Sprintf("fleet.rank%d.qdepth.p99", i))
	}
	return c, nil
}

// Start subscribes the control loop to the scraper's ticks. Call before
// the scraper starts running.
func (c *Controller) Start() {
	c.cfg.Obs.OnScrape(func(atPs int64, st *obs.Store) {
		c.scrapes++
		if c.scrapes%c.tickEvery != 0 {
			return
		}
		c.tick(atPs, st)
	})
}

// tick is one control interval: read the freshly scraped series, decide,
// roll the window.
func (c *Controller) tick(atPs int64, st *obs.Store) {
	p99 := st.LastValue(latencyPrefix + ".p99")
	count := int(st.LastValue(latencyPrefix + ".count"))
	c.Ticks++

	if count >= minSamples {
		c.MeasuredTicks++
		if p99 <= c.cfg.SLOPs {
			c.SLOHeldTicks++
		}
		c.decide(atPs, p99)
		c.checkImbalance(atPs, st, p99)
	}

	c.cfg.Window.Roll()
}

// decide applies the hysteresis ladder to the measured tail.
func (c *Controller) decide(atPs int64, p99 float64) {
	if c.cooldown > 0 {
		c.cooldown--
		return
	}
	switch {
	case p99 > c.cfg.SLOPs:
		c.breachStreak++
		c.lowStreak = 0
		if c.breachStreak >= upAfter {
			c.scaleUp(atPs, p99)
		}
	case p99 < lowFrac*c.cfg.SLOPs:
		c.lowStreak++
		c.breachStreak = 0
		if c.lowStreak >= c.cfg.DownAfter {
			c.scaleDown(atPs, p99)
		}
	default:
		// Dead band: neither streak accumulates across it.
		c.breachStreak, c.lowStreak = 0, 0
	}
}

// scaleUp admits the lowest-indexed parked rank.
func (c *Controller) scaleUp(atPs int64, p99 float64) {
	c.breachStreak = 0
	for i := 0; i < c.cfg.Fl.Members(); i++ {
		if c.cfg.Fl.IsActive(i) {
			continue
		}
		if err := c.cfg.Fl.Admit(i); err != nil {
			return
		}
		c.act(atPs, "admit", i, p99)
		return
	}
	// Every rank already active: nothing to give; stay quiet until the
	// streak rebuilds (no cooldown charged for a no-op).
}

// scaleDown drains the highest-indexed active rank, respecting the floor.
func (c *Controller) scaleDown(atPs int64, p99 float64) {
	c.lowStreak = 0
	if c.cfg.Fl.ActiveMembers() <= c.cfg.MinActive {
		return
	}
	for i := c.cfg.Fl.Members() - 1; i >= 0; i-- {
		if !c.cfg.Fl.IsActive(i) {
			continue
		}
		if err := c.cfg.Fl.Drain(i); err != nil {
			return
		}
		c.act(atPs, "drain", i, p99)
		return
	}
}

// checkImbalance watches the active ranks' qdepth p99 spread and fires
// the policy-flip hook when it stays pathological.
func (c *Controller) checkImbalance(atPs int64, st *obs.Store, p99 float64) {
	if c.cfg.FlipPolicy == nil || c.flipped {
		return
	}
	min, max, n := 0.0, 0.0, 0
	for i := range c.stateNames {
		if st.LastValue(c.stateNames[i]) != 1 {
			continue
		}
		q := st.LastValue(c.qdepthNames[i])
		if n == 0 || q < min {
			min = q
		}
		if q > max {
			max = q
		}
		n++
	}
	if n < 2 || max <= (min+1)*c.cfg.ImbalanceRatio {
		c.imbStreak = 0
		return
	}
	if c.imbStreak++; c.imbStreak >= c.cfg.ImbalanceAfter {
		c.cfg.FlipPolicy()
		c.flipped = true
		c.act(atPs, "flip-policy", -1, p99)
	}
}

func (c *Controller) act(atPs int64, what string, rank int, p99 float64) {
	a := Action{AtPs: atPs, What: what, Rank: rank, P99: p99}
	c.Actions = append(c.Actions, a)
	c.cooldown = c.cfg.CooldownTicks
	if c.cfg.OnAction != nil {
		c.cfg.OnAction(a)
	}
}

// SLOHeldFrac is the fraction of measured ticks that met the SLO.
func (c *Controller) SLOHeldFrac() float64 {
	if c.MeasuredTicks == 0 {
		return 0
	}
	return float64(c.SLOHeldTicks) / float64(c.MeasuredTicks)
}

// TraceString renders the action log one decision per line — the
// byte-compared artifact of the workload determinism gate.
func (c *Controller) TraceString() string {
	var b strings.Builder
	for _, a := range c.Actions {
		b.WriteString(a.String())
		b.WriteByte('\n')
	}
	return b.String()
}
