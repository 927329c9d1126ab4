// The scraper: one self-rescheduling engine event that samples the
// telemetry registry into the series store, evaluates the alert rules,
// feeds the flight recorder, and then runs subscriber hooks (the
// autoscaler's control tick) — all inside a single event so nothing can
// interleave and runs stay byte-identical.

package obs

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config parameterizes a Scraper.
type Config struct {
	Eng *sim.Engine
	Reg *telemetry.Registry

	// IntervalPs is the scrape period. Zero selects 200us.
	IntervalPs int64
	// SeriesCap bounds each series ring. Zero selects 1024 points.
	SeriesCap int

	// Rules are the alert rules, evaluated in order on every scrape.
	Rules []Rule

	// Tracer, when non-nil, receives alert transitions as instants on an
	// "obs/alerts" track, mirrors TraceSeries as counters, and is the
	// source of incident trace slices.
	Tracer *telemetry.Tracer
	// TraceSeries names scraped series to mirror into the tracer as
	// counter events (rendered as stepped charts; dumped by
	// `tracestat -series`).
	TraceSeries []string

	// Recorder, when non-nil, receives alert-transition notes and
	// captures an incident bundle on every firing.
	Recorder *Recorder
}

// Scraper is the live observability plane.
type Scraper struct {
	cfg   Config
	store *Store
	rules []ruleState
	hooks []func(atPs int64, st *Store)

	buf         []telemetry.Sample // SnapshotInto reuse: 0 allocs/op steady state
	transitions []Transition

	alertTrack  telemetry.TrackID
	seriesTrack telemetry.TrackID

	// Scrapes counts completed ticks.
	Scrapes int
}

// New validates the config and builds a scraper; Start arms it.
func New(cfg Config) (*Scraper, error) {
	if cfg.Eng == nil || cfg.Reg == nil {
		return nil, fmt.Errorf("obs: need engine and registry")
	}
	if cfg.IntervalPs <= 0 {
		cfg.IntervalPs = 200 * sim.Us
	}
	if cfg.SeriesCap <= 0 {
		cfg.SeriesCap = 1024
	}
	s := &Scraper{cfg: cfg, store: newStore(cfg.SeriesCap)}
	for _, r := range cfg.Rules {
		if err := r.defaults(); err != nil {
			return nil, err
		}
		s.rules = append(s.rules, ruleState{rule: r})
	}
	if cfg.Tracer != nil {
		s.alertTrack = cfg.Tracer.Track("obs/alerts")
		if len(cfg.TraceSeries) > 0 {
			s.seriesTrack = cfg.Tracer.Track("obs/series")
		}
	}
	return s, nil
}

// IntervalPs returns the scrape period (subscribers align their control
// intervals to multiples of it).
func (s *Scraper) IntervalPs() int64 { return s.cfg.IntervalPs }

// Store returns the series store.
func (s *Scraper) Store() *Store { return s.store }

// OnScrape subscribes a hook to run at the end of every scrape tick —
// after sampling and alert evaluation, inside the same engine event.
// Hooks run in subscription order. Subscribe before Start.
func (s *Scraper) OnScrape(fn func(atPs int64, st *Store)) {
	s.hooks = append(s.hooks, fn)
}

// Transitions returns the alert log entries in occurrence order.
func (s *Scraper) Transitions() []Transition { return s.transitions }

// AlertLogString renders the alert log — a byte-compared artifact.
func (s *Scraper) AlertLogString() string { return AlertLog(s.transitions) }

// Start schedules the first scrape one interval out.
func (s *Scraper) Start() {
	s.cfg.Eng.After(s.cfg.IntervalPs, s.tick)
}

func (s *Scraper) tick() {
	at := s.cfg.Eng.Now()
	s.buf = s.cfg.Reg.SnapshotInto(s.buf)
	for _, smp := range s.buf {
		s.store.observe(smp.Name, at, smp.Value)
	}
	if s.cfg.Tracer != nil {
		for _, name := range s.cfg.TraceSeries {
			if se := s.store.Series(name); se != nil {
				s.cfg.Tracer.Counter(s.seriesTrack, name, at, se.LastValue())
			}
		}
	}
	for i := range s.rules {
		rs := &s.rules[i]
		tr, ok := rs.step(s.store, at)
		if !ok {
			continue
		}
		s.transitions = append(s.transitions, tr)
		if s.cfg.Tracer != nil {
			s.cfg.Tracer.Instant(s.alertTrack, "alert:"+tr.Rule+":"+tr.To.String(), at)
		}
		s.cfg.Recorder.Note(at, "alert", fmt.Sprintf("%s %s->%s v=%g", tr.Rule, tr.From, tr.To, tr.V))
		if tr.To == Firing {
			s.cfg.Recorder.trigger(at, tr.Rule, s)
		}
	}
	s.Scrapes++
	for _, h := range s.hooks {
		h(at, s.store)
	}
	s.cfg.Eng.After(s.cfg.IntervalPs, s.tick)
}
