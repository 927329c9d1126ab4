// The incident experiment: the flash-crowd + rank-fault scenario with
// the crowd pushed past the initial ranks' collapse point and the full
// observability plane armed — a 100us scraper, the default burn-rate +
// breaker alert rules, and the flight recorder. The rendered figure is
// the incident narrative end to end: the per-tick timeline with alert
// transitions marked on the ticks they fired in, the deterministic
// alert log, and each frozen incident bundle's correlated timeline.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/autoscale"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/wrkgen"
)

// IncidentResult is the run plus the rendering parameters.
type IncidentResult struct {
	TickPs  int64
	SLOPs   float64
	CrowdPs [2]int64
	FaultPs int64
	Report  workload.Report
}

// Incident runs the scenario. It mirrors Autoscale's shape with the
// crowd multiplier raised to 3.0x — base 900k peaks ~2.7M rps, at the
// two initial ranks' collapse point — so the burn-rate page fires from
// the crowd alone, before the injected fault trips the breaker.
func Incident(seed int64) (IncidentResult, error) {
	const (
		tickPs  = 200 * sim.Us
		crowdOn = 3 * sim.Ms
		crowdOf = 6 * sim.Ms
		faultPs = 4200 * sim.Us
	)
	res := IncidentResult{
		TickPs: tickPs, SLOPs: float64(100 * sim.Us),
		CrowdPs: [2]int64{crowdOn, crowdOf}, FaultPs: faultPs,
	}
	rep, err := workload.Run(workload.RunConfig{
		Kind: "kv", Ranks: 4, InitialActive: 2, Conns: 48, Workers: 16, Seed: seed,
		HorizonPs: 8 * sim.Ms, WarmupPs: sim.Ms, DrainPs: 2 * sim.Ms,
		KV: workload.KVConfig{Keys: 1024, ZipfS: 0.99, ReadFrac: 0.9},
		Arrivals: wrkgen.ArrivalConfig{
			Streams: 4, BaseRPS: 9e5,
			DiurnalAmp: 0.15, DiurnalPeriodPs: 10 * sim.Ms,
			Flash:        []wrkgen.FlashCrowd{{StartPs: crowdOn, EndPs: crowdOf, Mult: 3.0}},
			BurstEveryPs: 2 * sim.Ms, BurstLen: 12, BurstGapPs: sim.Us,
		},
		Scale: &autoscale.Config{
			SLOPs: res.SLOPs, TickPs: tickPs,
			DownAfter: 6, CooldownTicks: 2, MinActive: 2,
		},
		Faults: []workload.Fault{
			{AtPs: faultPs, Rank: 1},
			{AtPs: 7 * sim.Ms, Rank: 1, Restore: true},
		},
		ScrapePs:   100 * sim.Us,
		Rules:      workload.DefaultAlertRules(res.SLOPs),
		Record:     true,
		LookbackPs: 2 * sim.Ms,
	})
	if err != nil {
		return res, err
	}
	res.Report = rep
	return res, nil
}

// WriteIncidentReport renders the narrative: the tick timeline with
// alert transitions marked, the alert log, and each incident bundle's
// header + correlated timeline (the bundle's series summary is elided
// to a count; the trace slice to its digest line).
func (r IncidentResult) WriteIncidentReport(w io.Writer) error {
	rep := r.Report
	marks := map[int]string{}
	addMark := func(atPs int64, text string) {
		idx := int(atPs/r.TickPs) - 1
		if atPs%r.TickPs != 0 {
			idx++ // between ticks: surfaces at the next tick boundary
		}
		if idx < 0 || idx >= len(rep.ActiveTimeline) {
			return
		}
		if marks[idx] != "" {
			marks[idx] += "  "
		}
		marks[idx] += text
	}
	addMark(r.CrowdPs[0], "<- flash crowd on")
	addMark(r.FaultPs, "<- rank 1 fails")
	addMark(r.CrowdPs[1], "<- flash crowd off")
	for _, tr := range rep.Alerts {
		addMark(tr.AtPs, fmt.Sprintf("[%s %s->%s]", tr.Rule, tr.From, tr.To))
	}
	if _, err := fmt.Fprintf(w, "%8s %7s %10s %5s  %s\n", "t(ms)", "active", "p99(us)", "slo", "event"); err != nil {
		return err
	}
	for i, active := range rep.ActiveTimeline {
		var p99 float64
		if i < len(rep.P99Timeline) {
			p99 = rep.P99Timeline[i]
		}
		verdict := "ok"
		if p99 > r.SLOPs {
			verdict = "MISS"
		}
		atPs := int64(i+1) * r.TickPs
		if _, err := fmt.Fprintf(w, "%8.1f %7d %10.1f %5s  %s\n",
			float64(atPs)/float64(sim.Ms), active, p99/float64(sim.Us), verdict, marks[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "--- alert log ---\n%s", rep.AlertLog); err != nil {
		return err
	}
	for i, in := range rep.Incidents {
		if _, err := fmt.Fprintf(w, "--- incident %d ---\n%s", i, elideSeries(in.Report)); err != nil {
			return err
		}
		if in.Trace != nil {
			if _, err := fmt.Fprintf(w, "trace slice: %d events\n", in.Trace.Len()); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintf(w, "incidents=%d dropped=%d slo_held=%.0f%% admits=%d trips=%d\n",
		len(rep.Incidents), rep.IncidentsDropped, rep.SLOHeldFrac*100,
		rep.Fleet.AdminAdmits, rep.Fleet.Trips)
	return err
}

// elideSeries truncates an incident report at its series summary,
// keeping the header and correlated timeline.
func elideSeries(report string) string {
	const marker = "--- series ---\n"
	i := strings.Index(report, marker)
	if i < 0 {
		return report
	}
	n := strings.Count(report[i+len(marker):], "\n")
	return report[:i] + fmt.Sprintf("(series summary: %d series elided)\n", n)
}
