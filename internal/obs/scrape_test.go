package obs

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// buildRun wires an engine, a registry with a deterministic synthetic
// workload (a latency gauge that breaches mid-run and a trip counter
// that bumps once), a traced scraper with a burn-rate and a breaker
// rule, and a recorder; returns everything after running to horizon.
func buildRun(t *testing.T) *Scraper {
	t.Helper()
	eng := sim.NewEngine()
	reg := telemetry.NewRegistry()
	lat, trips := 50.0, 0.0
	reg.Register("svc", telemetry.CollectorFunc(func(emit func(telemetry.Sample)) {
		emit(telemetry.Sample{Name: "p99", Value: lat})
		emit(telemetry.Sample{Name: "trips", Value: trips})
	}))
	const iv = 100 * sim.Us
	rec := NewRecorder(10 * iv)
	tr := telemetry.New()
	sc, err := New(Config{
		Eng: eng, Reg: reg, IntervalPs: iv, SeriesCap: 256,
		Rules: []Rule{
			BurnRate("slo-burn", "svc.p99", 100, 0.25, 2, 8*iv, 2*iv, 0),
			Threshold("breaker", "svc.trips", ReduceDelta, 3*iv, 0.5, 0),
		},
		Tracer: tr, TraceSeries: []string{"svc.p99"},
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Latency breaches from 2ms to 4ms; a trip lands at 2.5ms.
	eng.At(2000*sim.Us, func() { lat = 500 })
	eng.At(2500*sim.Us, func() { trips = 1 })
	eng.At(4000*sim.Us, func() { lat = 50 })
	sc.Start()
	eng.RunUntil(8000 * sim.Us)
	return sc
}

// The scraper samples every interval into the store, the rules fire in
// the expected order, and the recorder captures bundles for both.
func TestScraperEndToEnd(t *testing.T) {
	sc := buildRun(t)
	if sc.Scrapes != 80 {
		t.Fatalf("Scrapes = %d, want 80", sc.Scrapes)
	}
	se := sc.Store().Series("svc.p99")
	if se.Len() != 80 {
		t.Fatalf("svc.p99 has %d points, want 80", se.Len())
	}
	if p := se.At(0); p.AtPs != 100*sim.Us || p.V != 50 {
		t.Fatalf("first point = %+v", p)
	}

	var order []string
	for _, tr := range sc.Transitions() {
		order = append(order, fmt.Sprintf("%s:%s", tr.Rule, tr.To))
	}
	want := []string{"slo-burn:firing", "breaker:firing", "breaker:inactive", "slo-burn:inactive"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("alert order = %v, want %v\nlog:\n%s", order, want, sc.AlertLogString())
	}

	rec := sc.cfg.Recorder
	if len(rec.Incidents) != 2 || rec.Dropped != 0 {
		t.Fatalf("incidents = %d dropped = %d, want 2/0", len(rec.Incidents), rec.Dropped)
	}
	in := rec.Incidents[1] // the breaker, fired after the page
	if in.Rule != "breaker" || in.Trace == nil {
		t.Fatalf("incident = %+v", in)
	}
	// The bundle timeline must correlate the page that preceded the
	// breaker trip inside the lookback window.
	if want := "slo-burn inactive->firing"; !strings.Contains(in.Report, want) {
		t.Fatalf("incident report missing %q:\n%s", want, in.Report)
	}
	if !strings.Contains(in.Report, "svc.p99 last=") {
		t.Fatalf("incident report missing series summary:\n%s", in.Report)
	}
}

// Two identical runs produce byte-identical alert logs and incident
// bundles — the plane's core determinism contract.
func TestScraperDeterministicReplay(t *testing.T) {
	a, b := buildRun(t), buildRun(t)
	if a.AlertLogString() != b.AlertLogString() {
		t.Fatalf("alert logs diverged:\n%s\nvs:\n%s", a.AlertLogString(), b.AlertLogString())
	}
	ra, rb := a.cfg.Recorder.Incidents, b.cfg.Recorder.Incidents
	if len(ra) != len(rb) {
		t.Fatalf("incident counts diverged: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Canonical() != rb[i].Canonical() {
			t.Fatalf("incident %d bundle diverged:\n%s\nvs:\n%s", i, ra[i].Canonical(), rb[i].Canonical())
		}
	}
	if len(ra) > 0 && !strings.Contains(ra[0].Canonical(), "trace_sha256 ") {
		t.Fatalf("bundle canonical missing trace digest:\n%s", ra[0].Canonical())
	}
}

// Hooks run in subscription order, after sampling and alerting, inside
// the scrape event; a hook sees the point scraped this tick.
func TestScraperHooksOrderAndFreshness(t *testing.T) {
	eng := sim.NewEngine()
	reg := telemetry.NewRegistry()
	v := 0.0
	reg.Register("g", telemetry.CollectorFunc(func(emit func(telemetry.Sample)) {
		emit(telemetry.Sample{Name: "v", Value: v})
	}))
	sc, err := New(Config{Eng: eng, Reg: reg, IntervalPs: 100})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	sc.OnScrape(func(atPs int64, st *Store) {
		got = append(got, fmt.Sprintf("a@%d=%g", atPs, st.LastValue("g.v")))
	})
	sc.OnScrape(func(atPs int64, st *Store) {
		got = append(got, fmt.Sprintf("b@%d", atPs))
	})
	eng.At(150, func() { v = 7 })
	sc.Start()
	eng.RunUntil(200)
	want := "[a@100=0 b@100 a@200=7 b@200]"
	if fmt.Sprint(got) != want {
		t.Fatalf("hook trace = %v, want %s", got, want)
	}
}

// maxIncidents caps capture; later firings only count Dropped. noteCap
// bounds the note ring.
func TestRecorderIncidentCap(t *testing.T) {
	eng := sim.NewEngine()
	reg := telemetry.NewRegistry()
	v := 0.0
	reg.Register("g", telemetry.CollectorFunc(func(emit func(telemetry.Sample)) {
		emit(telemetry.Sample{Name: "v", Value: v})
	}))
	rec := NewRecorder(0)
	sc, err := New(Config{
		Eng: eng, Reg: reg, IntervalPs: 100,
		Rules:    []Rule{Threshold("hi", "g.v", ReduceLast, 0, 5, 0)},
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Flip the gauge across the threshold slowly enough to fire one
	// more time than the cap.
	for i := int64(0); i <= maxIncidents; i++ {
		at := i * 300
		eng.At(at+50, func() { v = 10 })
		eng.At(at+150, func() { v = 0 })
	}
	sc.Start()
	eng.RunUntil(300*(maxIncidents+1) + 100)
	if len(rec.Incidents) != maxIncidents || rec.Dropped != 1 {
		t.Fatalf("incidents = %d dropped = %d, want %d/1", len(rec.Incidents), rec.Dropped, maxIncidents)
	}
	// The note ring keeps the newest noteCap notes.
	for i := int64(0); i <= noteCap; i++ {
		rec.Note(2000+i, "test", "")
	}
	if rec.n != noteCap || rec.noteAt(0).AtPs != 2001 {
		t.Fatalf("ring holds %d notes from %d, want %d from 2001", rec.n, rec.noteAt(0).AtPs, noteCap)
	}
}
