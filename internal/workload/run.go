package workload

import (
	"fmt"
	"strings"

	"repro/internal/autoscale"
	"repro/internal/corpus"
	"repro/internal/dram"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/wrkgen"
)

// Fault schedules one fleet event into a run: a forced rank failure
// (breaker trip + drain), or a readmission when Restore is set.
type Fault struct {
	AtPs    int64
	Rank    int
	Restore bool
}

// RunConfig assembles one end-to-end workload run: a multi-rank
// SmartDIMM fleet serving a KV-cache or embedding-gather request mix
// under open-loop trace-replay traffic, optionally supervised by the
// SLO autoscaler.
type RunConfig struct {
	// Kind selects the request source: "kv" or "embed".
	Kind string
	// Ranks is the fleet size. Zero selects 4.
	Ranks int
	// InitialActive caps how many ranks start admitted (the rest are
	// administratively parked for the autoscaler to deploy). Zero means
	// all ranks start active.
	InitialActive int
	// Policy is the starting placement policy.
	Policy fleet.Policy
	// Conns/Workers mirror the server knobs. Zero selects 64/10.
	Conns, Workers int
	Seed           int64
	// Params overrides the calibration; nil selects DefaultParams.
	Params *sim.Params

	// Arrivals shapes the open-loop trace. Connections, Seed, and
	// HorizonPs are filled from the run when zero.
	Arrivals  wrkgen.ArrivalConfig
	HorizonPs int64 // trace horizon; zero selects 10ms
	WarmupPs  int64 // measurement gate; zero selects 1ms
	DrainPs   int64 // post-horizon settle window; zero selects 2ms

	KV    KVConfig
	Embed EmbedConfig

	// Scale, when non-nil, runs the autoscaler over the fleet: Run fills
	// Obs/Fl/Window, and installs a default FlipPolicy (switch to
	// LeastLoaded) when none is set.
	Scale *autoscale.Config

	// ScrapePs is the obs scrape interval. Zero selects the autoscaler's
	// control interval (one scrape per tick), or 200us without a Scale.
	// The control interval must be a whole multiple of it.
	ScrapePs int64
	// Rules are alert rules evaluated on every scrape tick.
	Rules []obs.Rule
	// Record arms the per-run tracer and flight recorder: every rule
	// firing captures an incident bundle (ps-windowed trace slice plus
	// canonical report correlating alerts, actions, and faults).
	Record bool
	// LookbackPs is the incident bundle window; zero selects 2ms.
	LookbackPs int64

	// Faults are injected fleet events (flash-crowd chaos).
	Faults []Fault

	// Pool parallelizes trace generation (nil = serial); the trace — and
	// therefore the whole run — is byte-identical either way.
	Pool *runner.Pool
}

func (c *RunConfig) defaults() error {
	if c.Kind != "kv" && c.Kind != "embed" {
		return fmt.Errorf("workload: unknown kind %q (want kv or embed)", c.Kind)
	}
	if c.Ranks <= 0 {
		c.Ranks = 4
	}
	if c.InitialActive <= 0 || c.InitialActive > c.Ranks {
		c.InitialActive = c.Ranks
	}
	if c.Conns <= 0 {
		c.Conns = 64
	}
	if c.Workers <= 0 {
		c.Workers = 10
	}
	if c.HorizonPs <= 0 {
		c.HorizonPs = 10 * sim.Ms
	}
	if c.WarmupPs <= 0 {
		c.WarmupPs = sim.Ms
	}
	if c.DrainPs <= 0 {
		c.DrainPs = 2 * sim.Ms
	}
	return nil
}

// Report is one run's outcome; Canonical renders the byte-compared
// determinism artifact.
type Report struct {
	Kind    string
	Metrics server.Metrics
	// Issued/Completed/PeakInFlight are the open-loop replayer's view.
	Issued, Completed uint64
	PeakInFlight      int
	// P50/P99 come from the replayer's end-to-end record over the
	// measured window.
	P50Ps, P99Ps float64
	// Fleet state at the end of the run.
	Fleet       fleet.Totals
	FinalActive int
	PagesOK     bool
	// Workload-mix counters (whichever source ran).
	Gets, Sets, Gathers uint64
	// Autoscaler outcome (zero-valued without Scale).
	SLOHeldFrac    float64
	Actions        string // autoscale.Controller.TraceString
	ActiveTimeline []int
	P99Timeline    []float64 // observed tail per control tick
	// Observability outcome (zero-valued when the obs plane was off).
	AlertLog         string // obs transition log, one line per transition
	Alerts           []obs.Transition
	Incidents        []obs.Incident
	IncidentsDropped int
	// Store is the scraped series store (nil when the plane was off) —
	// the figures' timeline source. Not part of Canonical.
	Store *obs.Store
	// Trace is the run tracer (Record only). Not part of Canonical.
	Trace *telemetry.Tracer
}

// Collect implements telemetry.Collector.
func (r Report) Collect(emit func(telemetry.Sample)) {
	emit(telemetry.Sample{Name: "issued", Value: float64(r.Issued)})
	emit(telemetry.Sample{Name: "completed", Value: float64(r.Completed)})
	emit(telemetry.Sample{Name: "peak_inflight", Value: float64(r.PeakInFlight)})
	emit(telemetry.Sample{Name: "p50_lat_ps", Value: r.P50Ps})
	emit(telemetry.Sample{Name: "p99_lat_ps", Value: r.P99Ps})
	emit(telemetry.Sample{Name: "gets", Value: float64(r.Gets)})
	emit(telemetry.Sample{Name: "sets", Value: float64(r.Sets)})
	emit(telemetry.Sample{Name: "gathers", Value: float64(r.Gathers)})
	emit(telemetry.Sample{Name: "slo_held_frac", Value: r.SLOHeldFrac})
	emit(telemetry.Sample{Name: "final_active", Value: float64(r.FinalActive)})
}

// Canonical renders every deterministic observable — counts, latency
// percentiles, fleet totals, the action log, the active-rank timeline —
// into one string for byte comparison across worker counts.
func (r Report) Canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kind %s\n", r.Kind)
	fmt.Fprintf(&b, "issued %d completed %d peak %d\n", r.Issued, r.Completed, r.PeakInFlight)
	fmt.Fprintf(&b, "requests %d tx %d errors %d\n", r.Metrics.Requests, r.Metrics.TXBytes, r.Metrics.Errors)
	fmt.Fprintf(&b, "lat p50 %g p99 %g mean %d\n", r.P50Ps, r.P99Ps, r.Metrics.MeanLatPs)
	fmt.Fprintf(&b, "mix gets %d sets %d gathers %d\n", r.Gets, r.Sets, r.Gathers)
	fmt.Fprintf(&b, "fleet active %d trips %d migr %d sheds %d soft %d admdrain %d admadmit %d\n",
		r.FinalActive, r.Fleet.Trips, r.Fleet.Migrations, r.Fleet.Sheds, r.Fleet.SoftOps,
		r.Fleet.AdminDrains, r.Fleet.AdminAdmits)
	fmt.Fprintf(&b, "pages_ok %v\n", r.PagesOK)
	fmt.Fprintf(&b, "slo_held %g\n", r.SLOHeldFrac)
	fmt.Fprintf(&b, "active_timeline %v\n", r.ActiveTimeline)
	b.WriteString("--- actions ---\n")
	b.WriteString(r.Actions)
	b.WriteString("--- alerts ---\n")
	b.WriteString(r.AlertLog)
	fmt.Fprintf(&b, "incidents %d dropped %d\n", len(r.Incidents), r.IncidentsDropped)
	return b.String()
}

// Run executes one workload scenario end to end and reports.
func Run(cfg RunConfig) (Report, error) {
	if err := cfg.defaults(); err != nil {
		return Report{}, err
	}
	var tracer *telemetry.Tracer
	if cfg.Record {
		tracer = telemetry.New()
	}
	params := sim.DefaultParams()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	sys, err := sim.NewSystem(sim.SystemConfig{
		Params: params, LLCBytes: 2 << 20, LLCWays: 8,
		Geometry:       dram.MediumGeometry(),
		WithSmartDIMM:  true,
		SmartDIMMRanks: cfg.Ranks,
		Tracer:         tracer,
	})
	if err != nil {
		return Report{}, err
	}
	fl, err := fleet.New(fleet.Config{Sys: sys, Policy: cfg.Policy})
	if err != nil {
		return Report{}, err
	}
	// Park the tail ranks before any connection exists: placements avoid
	// them from the start, and only the autoscaler can deploy them.
	for i := cfg.InitialActive; i < cfg.Ranks; i++ {
		if err := fl.Drain(i); err != nil {
			return Report{}, err
		}
	}

	var (
		src server.WorkloadSource
		kv  *KV
		em  *Embed
		msg int
	)
	switch cfg.Kind {
	case "kv":
		c := cfg.KV
		c.Seed = cfg.Seed
		if kv, err = NewKV(c); err != nil {
			return Report{}, err
		}
		src, msg = kv, kv.MaxPayload()
	case "embed":
		c := cfg.Embed
		c.Seed = cfg.Seed
		if em, err = NewEmbed(c); err != nil {
			return Report{}, err
		}
		src, msg = em, em.MaxPayload()
	}

	win := stats.NewWindow(4)
	srv, err := server.New(sys.Engine, server.Config{
		Sys: sys, Backend: fl, Mode: server.HTTPSMode, Workers: cfg.Workers,
		MsgSize: msg, Connections: cfg.Conns, FileKind: corpus.Text, Seed: cfg.Seed,
		Source: src, LatWindow: win,
	})
	if err != nil {
		return Report{}, err
	}

	reg := telemetry.NewRegistry()
	fl.RegisterMetrics(reg)
	reg.Register("server.window", win)

	arr := cfg.Arrivals
	if arr.Connections <= 0 {
		arr.Connections = cfg.Conns
	}
	if arr.Seed == 0 {
		arr.Seed = cfg.Seed
	}
	if arr.HorizonPs <= 0 {
		arr.HorizonPs = cfg.HorizonPs
	}
	trace, err := wrkgen.GenArrivalsPooled(arr, cfg.Pool)
	if err != nil {
		return Report{}, err
	}
	// The server feeds the window itself (LatWindow): pass nil here or
	// every completion would be observed twice.
	gen := wrkgen.NewOpenLoop(sys.Engine, srv, trace, nil)

	// The observability plane: armed whenever anything consumes it (the
	// autoscaler, alert rules, or the flight recorder). Bench runs with
	// none of those schedule no scrape events and stay byte-identical.
	var (
		scraper *obs.Scraper
		rec     *obs.Recorder
		tickPs  int64
	)
	if cfg.Scale != nil {
		if tickPs = cfg.Scale.TickPs; tickPs <= 0 {
			tickPs = 500 * sim.Us
		}
	}
	if cfg.Scale != nil || len(cfg.Rules) > 0 || cfg.Record || cfg.ScrapePs > 0 {
		scrapePs := cfg.ScrapePs
		if scrapePs <= 0 {
			if scrapePs = tickPs; scrapePs <= 0 {
				scrapePs = 200 * sim.Us
			}
		}
		// The series rings hold the whole run: tick timelines index
		// straight into a ring only while it has not wrapped.
		seriesCap := int((cfg.HorizonPs+cfg.DrainPs)/scrapePs) + 8
		if cfg.Record {
			rec = obs.NewRecorder(obs.RecorderConfig{LookbackPs: cfg.LookbackPs})
		}
		scraper, err = obs.New(obs.Config{
			Eng: sys.Engine, Reg: reg, IntervalPs: scrapePs, SeriesCap: seriesCap,
			Rules: cfg.Rules, Tracer: tracer,
			TraceSeries: []string{"server.window.p99", "fleet.active"},
			Recorder:    rec,
		})
		if err != nil {
			return Report{}, err
		}
	}

	var ctl *autoscale.Controller
	if cfg.Scale != nil {
		sc := *cfg.Scale
		sc.Obs, sc.Fl, sc.Window = scraper, fl, win
		if sc.FlipPolicy == nil {
			sc.FlipPolicy = func() { fl.SetPolicy(fleet.LeastLoaded) }
		}
		if rec != nil && sc.OnAction == nil {
			sc.OnAction = func(a autoscale.Action) {
				if a.Rank < 0 {
					rec.Note(a.AtPs, "action", fmt.Sprintf("%s p99=%g", a.What, a.P99))
				} else {
					rec.Note(a.AtPs, "action", fmt.Sprintf("%s d%d p99=%g", a.What, a.Rank, a.P99))
				}
			}
		}
		if ctl, err = autoscale.New(sc); err != nil {
			return Report{}, err
		}
		ctl.Start()
	}
	if scraper != nil {
		scraper.Start()
	}

	for _, f := range cfg.Faults {
		f := f
		sys.Engine.At(f.AtPs, func() {
			if f.Restore {
				_ = fl.Admit(f.Rank)
				rec.Note(f.AtPs, "fault", fmt.Sprintf("restore rank%d", f.Rank))
			} else {
				_ = fl.Fail(f.Rank)
				rec.Note(f.AtPs, "fault", fmt.Sprintf("fail rank%d", f.Rank))
			}
		})
	}

	gen.Start()
	sys.Engine.RunUntil(cfg.WarmupPs)
	srv.BeginMeasurement()
	gen.BeginMeasurement()
	sys.Engine.RunUntil(arr.HorizonPs + cfg.DrainPs)

	m := srv.Collect()
	if err := srv.LastError(); err != nil {
		return Report{}, fmt.Errorf("workload %s: %w", cfg.Kind, err)
	}
	rep := Report{
		Kind: cfg.Kind, Metrics: m,
		Issued: gen.Issued, Completed: gen.Completed, PeakInFlight: gen.PeakIn,
		P50Ps: gen.Latency.Percentile(50), P99Ps: gen.Latency.Percentile(99),
		Fleet:       fl.Totals(),
		FinalActive: fl.ActiveMembers(),
		PagesOK:     fl.OutstandingPages() == fl.ExpectedPages(),
	}
	if kv != nil {
		rep.Gets, rep.Sets = kv.Gets, kv.Sets
	}
	if em != nil {
		rep.Gathers = em.Gathers
	}
	if scraper != nil {
		rep.AlertLog = scraper.AlertLogString()
		rep.Alerts = scraper.Transitions()
		rep.Store = scraper.Store()
		rep.Trace = tracer
	}
	if rec != nil {
		rep.Incidents = rec.Incidents
		rep.IncidentsDropped = rec.Dropped
	}
	if ctl != nil {
		rep.SLOHeldFrac = ctl.SLOHeldFrac()
		rep.Actions = ctl.TraceString()
		// The figure timelines come from the series store: the control
		// tick is every tickEvery-th scrape, so every tickEvery-th point
		// of a series is its value at a tick.
		tickEvery := int(tickPs / scraper.IntervalPs())
		p99s := seriesAtTicks(rep.Store, "server.window.p99", tickEvery)
		actives := seriesAtTicks(rep.Store, "fleet.active", tickEvery)
		rep.P99Timeline = p99s
		rep.ActiveTimeline = make([]int, len(actives))
		for i, v := range actives {
			rep.ActiveTimeline[i] = int(v)
		}
	}
	return rep, nil
}

// DefaultAlertRules is the production rule set for a workload run: a
// multi-window SLO burn-rate page on the rolling server tail (budget
// 25% of scrape intervals over SLO; page while both the 1ms and 400us
// windows burn at more than 2x budget, damped by 200us of For), and an
// instant breaker alert on any fleet trip in the last 300us.
func DefaultAlertRules(sloPs float64) []obs.Rule {
	return []obs.Rule{
		obs.BurnRate("slo-burn", "server.window.p99", sloPs,
			0.25, 2, sim.Ms, 400*sim.Us, 200*sim.Us),
		obs.Threshold("breaker-trip", "fleet.trips", obs.ReduceDelta,
			300*sim.Us, 0.5, 0),
	}
}

// seriesAtTicks extracts every every-th point of a scraped series —
// its value at each control tick, given one tick per every scrapes.
// Run sizes the ring to the whole run, so indices align with scrape
// numbers (the alignment the non-wrapping ring guarantees).
func seriesAtTicks(st *obs.Store, name string, every int) []float64 {
	se := st.Series(name)
	if se == nil || every <= 0 {
		return nil
	}
	var out []float64
	for i := 0; i < se.Len(); i++ {
		if (i+1)%every == 0 {
			out = append(out, se.At(i).V)
		}
	}
	return out
}
