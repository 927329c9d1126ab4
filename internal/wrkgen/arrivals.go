// Open-loop trace-replay arrivals: instead of the closed loop (each
// connection re-issuing on completion), traffic is a pre-generated
// arrival trace replayed against the target at fixed simulated times,
// whether or not earlier requests have completed — the traffic model
// under which queues actually build and tail latency means something.
//
// Generation is a non-homogeneous Poisson process per stream, shaped by
// a diurnal ramp, flash-crowd windows, and burst storms, thinned
// against the peak rate (Lewis–Shedler). ALL arrival-process state —
// the RNG, the thinning clock, the burst schedule, the connection
// cursor — lives in the per-stream generator, never in package or
// shared structs: stream k's sub-trace is a pure function of
// (config, k), so streams generate independently on a runner pool and
// the merged trace is byte-identical serial vs pooled at any
// GOMAXPROCS (the determinism gate in arrivals_test.go).
package wrkgen

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Arrival is one open-loop request arrival.
type Arrival struct {
	AtPs int64
	Conn int
}

// FlashCrowd multiplies the arrival rate by Mult inside [StartPs, EndPs).
type FlashCrowd struct {
	StartPs, EndPs int64
	Mult           float64
}

// ArrivalConfig shapes the open-loop arrival trace.
type ArrivalConfig struct {
	// Streams is the number of independent client populations; each owns
	// its private RNG and clock state. Zero selects 4.
	Streams int
	// Connections is the persistent-connection pool the arrivals are
	// spread over (stream k cycles through its own disjoint slice).
	Connections int
	// BaseRPS is the aggregate baseline arrival rate (requests/second of
	// simulated time) before shaping.
	BaseRPS float64
	// HorizonPs bounds the trace: no arrival lands at or after it.
	HorizonPs int64
	Seed      int64

	// DiurnalAmp in [0,1) adds a sinusoidal ramp: rate(t) scales by
	// 1 + DiurnalAmp*sin(2*pi*t/DiurnalPeriodPs). Zero amp disables it.
	DiurnalAmp      float64
	DiurnalPeriodPs int64
	// Flash multiplies the rate inside each window (flash crowds).
	Flash []FlashCrowd
	// BurstEveryPs, when > 0, superimposes burst storms: per stream, a
	// Poisson process with this mean interval fires BurstLen
	// back-to-back arrivals spaced BurstGapPs apart.
	BurstEveryPs int64
	BurstLen     int
	BurstGapPs   int64
}

func (c *ArrivalConfig) defaults() error {
	if c.Streams <= 0 {
		c.Streams = 4
	}
	if c.Connections <= 0 {
		return fmt.Errorf("wrkgen: arrivals need connections")
	}
	if c.BaseRPS <= 0 {
		return fmt.Errorf("wrkgen: arrivals need a base rate")
	}
	if c.HorizonPs <= 0 {
		return fmt.Errorf("wrkgen: arrivals need a horizon")
	}
	if c.DiurnalAmp < 0 || c.DiurnalAmp >= 1 {
		return fmt.Errorf("wrkgen: diurnal amplitude %g outside [0,1)", c.DiurnalAmp)
	}
	if c.DiurnalAmp > 0 && c.DiurnalPeriodPs <= 0 {
		c.DiurnalPeriodPs = c.HorizonPs
	}
	for _, f := range c.Flash {
		if f.Mult <= 0 || f.EndPs <= f.StartPs {
			return fmt.Errorf("wrkgen: bad flash crowd %+v", f)
		}
	}
	if c.BurstEveryPs > 0 {
		if c.BurstLen <= 0 {
			c.BurstLen = 8
		}
		if c.BurstGapPs <= 0 {
			c.BurstGapPs = 2 * sim.Us
		}
	}
	return nil
}

// rateMult is the shaping factor at simulated time t (diurnal * flash).
func (c *ArrivalConfig) rateMult(t int64) float64 {
	m := 1.0
	if c.DiurnalAmp > 0 {
		m *= 1 + c.DiurnalAmp*math.Sin(2*math.Pi*float64(t)/float64(c.DiurnalPeriodPs))
	}
	for _, f := range c.Flash {
		if t >= f.StartPs && t < f.EndPs {
			m *= f.Mult
		}
	}
	return m
}

// peakMult bounds rateMult over the horizon, for thinning.
func (c *ArrivalConfig) peakMult() float64 {
	m := 1.0
	if c.DiurnalAmp > 0 {
		m *= 1 + c.DiurnalAmp
	}
	fm := 1.0
	for _, f := range c.Flash {
		if f.Mult > fm {
			fm = f.Mult
		}
	}
	return m * fm
}

// Trace is a merged, time-ordered arrival trace.
type Trace struct {
	Arrivals []Arrival
}

// String renders the trace one "atps conn" line per arrival — the
// byte-compared artifact of the arrival determinism gate.
func (t Trace) String() string {
	var b strings.Builder
	for _, a := range t.Arrivals {
		fmt.Fprintf(&b, "%d %d\n", a.AtPs, a.Conn)
	}
	return b.String()
}

// genStream generates stream k's sub-trace. Everything it touches is
// local: the RNG is seeded from (Seed, k) alone, and the stream's
// connections are the k-th residue class of the pool.
func genStream(cfg ArrivalConfig, k int) []Arrival {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(k)*0x9E3779B9))
	lamMax := cfg.BaseRPS / float64(cfg.Streams) * cfg.peakMult() // arrivals/s
	var out []Arrival
	cursor := 0
	conn := func() int {
		c := (k + cursor*cfg.Streams) % cfg.Connections
		cursor++
		return c
	}
	// Thinned Poisson baseline.
	t := int64(0)
	for {
		gap := rng.ExpFloat64() / lamMax * 1e12 // seconds -> ps
		if gap > float64(cfg.HorizonPs) {
			break
		}
		t += int64(gap) + 1
		if t >= cfg.HorizonPs {
			break
		}
		if rng.Float64()*cfg.peakMult() < cfg.rateMult(t) {
			out = append(out, Arrival{AtPs: t, Conn: conn()})
		}
	}
	// Burst storms ride on top as a separate compound process.
	if cfg.BurstEveryPs > 0 {
		bt := int64(0)
		for {
			gap := rng.ExpFloat64() * float64(cfg.BurstEveryPs)
			if gap > float64(cfg.HorizonPs) {
				break
			}
			bt += int64(gap) + 1
			if bt >= cfg.HorizonPs {
				break
			}
			for i := 0; i < cfg.BurstLen; i++ {
				at := bt + int64(i)*cfg.BurstGapPs
				if at >= cfg.HorizonPs {
					break
				}
				out = append(out, Arrival{AtPs: at, Conn: conn()})
			}
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].AtPs < out[b].AtPs })
	return out
}

// GenArrivals generates the full trace serially.
func GenArrivals(cfg ArrivalConfig) (Trace, error) {
	return GenArrivalsPooled(cfg, nil)
}

// GenArrivalsPooled generates each stream's sub-trace as an independent
// job on the pool (nil = serial) and merges them deterministically:
// results come back in stream order, and the merge is a stable sort by
// time with stream order breaking ties — identical bytes at any worker
// count.
func GenArrivalsPooled(cfg ArrivalConfig, pool *runner.Pool) (Trace, error) {
	if err := cfg.defaults(); err != nil {
		return Trace{}, err
	}
	idx := make([]int, cfg.Streams)
	for i := range idx {
		idx[i] = i
	}
	subs, err := runner.Map(context.Background(), pool, idx,
		func(_ context.Context, k int, _ int) ([]Arrival, error) {
			return genStream(cfg, k), nil
		})
	if err != nil {
		return Trace{}, err
	}
	var all []Arrival
	for _, s := range subs {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].AtPs < all[b].AtPs })
	return Trace{Arrivals: all}, nil
}

// OpenLoop replays an arrival trace against a Target: requests are
// submitted at their trace times regardless of completion, so queueing
// delay is visible in the latency record instead of throttling the
// offered load (the closed-loop Generator's coordinated omission).
type OpenLoop struct {
	eng    *sim.Engine
	target Target
	trace  Trace
	next   int

	Issued    uint64
	Completed uint64
	InFlight  int
	PeakIn    int
	// Latency is the end-to-end record over the measured window
	// (bounded mode); Window, when non-nil, additionally receives every
	// completion — warmup included — for the autoscaler's rolling tail.
	Latency stats.Histogram
	Window  *stats.Window

	measuring bool
}

// NewOpenLoop builds a replayer; Start schedules the first arrival.
func NewOpenLoop(eng *sim.Engine, target Target, trace Trace, win *stats.Window) *OpenLoop {
	g := &OpenLoop{eng: eng, target: target, trace: trace, Window: win}
	g.Latency.SetBounded()
	return g
}

// Start arms the trace replay.
func (g *OpenLoop) Start() { g.scheduleNext() }

func (g *OpenLoop) scheduleNext() {
	if g.next >= len(g.trace.Arrivals) {
		return
	}
	a := g.trace.Arrivals[g.next]
	g.next++
	at := a.AtPs
	if now := g.eng.Now(); at < now {
		at = now
	}
	g.eng.At(at, func() {
		g.submit(a)
		g.scheduleNext()
	})
}

func (g *OpenLoop) submit(a Arrival) {
	g.Issued++
	g.InFlight++
	if g.InFlight > g.PeakIn {
		g.PeakIn = g.InFlight
	}
	start := g.eng.Now()
	g.target.Submit(a.Conn, func() {
		g.InFlight--
		g.Completed++
		lat := float64(g.eng.Now() - start)
		if g.measuring {
			g.Latency.Observe(lat)
		}
		if g.Window != nil {
			g.Window.Observe(lat)
		}
	})
}

// BeginMeasurement zeroes the windowed stats; call after warmup.
func (g *OpenLoop) BeginMeasurement() {
	g.measuring = true
	g.Completed = 0
	g.Latency.Reset()
}
