// Incident chaos: the observability-plane soak behind `./ci.sh obs`.
// It reruns the workload scenario with the flash crowd pushed past the
// two initial ranks' collapse point and the full alerting/recording
// stack armed — a 100us scraper, the default burn-rate + breaker rules,
// and a flight recorder with a 2ms lookback — and checks the incident
// narrative an on-call operator would reconstruct:
//
//   - the burn-rate page leads: the crowd alone breaches the tail, so
//     the SLO page fires before the injected rank failure trips the
//     breaker — detection from symptoms, not just from the fault event;
//   - every alert resolves: by run end each rule's last transition is
//     back to inactive (the autoscaler's added capacity absorbed the
//     crowd and the restored rank cleared the breaker);
//   - each firing froze a bundle: one incident per firing, none
//     dropped, each carrying a non-empty trace slice and a timeline
//     that correlates the cause — the breaker incident contains the
//     injected fault note, the burn incident the autoscaler's response;
//   - replayability: the run canonical (actions + alert log) and every
//     incident bundle (report + trace digest) are byte-identical from
//     the same seed, serial or pooled, at any GOMAXPROCS.
package chaos

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// incidentSoakConfig is the workload soak scenario with the crowd
// hardened and the observability plane armed; seed and workers vary.
func incidentSoakConfig(seed int64, workers int) workload.RunConfig {
	cfg := workloadSoakConfig(seed, workers)
	// 3.0x on base 900k peaks ~2.7M rps — at the two initial ranks'
	// collapse point, so the tail breaches from the crowd alone and the
	// burn-rate page leads the injected rank failure instead of
	// trailing it.
	cfg.Arrivals.Flash[0].Mult = 3.0
	cfg.ScrapePs = 100 * sim.Us
	cfg.Rules = workload.DefaultAlertRules(cfg.Scale.SLOPs)
	cfg.Record = true
	cfg.LookbackPs = 2 * sim.Ms
	return cfg
}

// RunIncidentSoak executes the soak once. Construction failures return
// an error; invariant breaches land in Report.Violations. The captured
// incidents come back alongside, in firing order; the report carries
// each one's canonical bundle (report text plus trace digest).
func RunIncidentSoak(seed int64, workers int) (Report, []obs.Incident, error) {
	rep, err := workload.Run(incidentSoakConfig(seed, workers))
	if err != nil {
		return Report{}, nil, err
	}
	out := Report{Soak: "incident", Seed: seed, Counts: []Count{
		{"alerts", int64(len(rep.Alerts))}, {"incidents", int64(len(rep.Incidents))},
		{"incidents_dropped", int64(rep.IncidentsDropped)},
	}}
	out.artifact("canonical", rep.Canonical())
	for i, in := range rep.Incidents {
		out.artifact(fmt.Sprintf("bundle %d", i), in.Canonical())
	}

	// Walk the transition log once: first firing per rule, last state
	// per rule (in first-seen order, so violations render stably).
	firstFiring := map[string]int64{}
	lastByRule := map[string]obs.Transition{}
	var ruleOrder []string
	firings := 0
	for _, tr := range rep.Alerts {
		if _, seen := lastByRule[tr.Rule]; !seen {
			ruleOrder = append(ruleOrder, tr.Rule)
		}
		lastByRule[tr.Rule] = tr
		if tr.To == obs.Firing {
			firings++
			if _, ok := firstFiring[tr.Rule]; !ok {
				firstFiring[tr.Rule] = tr.AtPs
			}
		}
	}
	burnAt, burnOK := firstFiring["slo-burn"]
	tripAt, tripOK := firstFiring["breaker-trip"]
	if !burnOK {
		out.violate("burn-rate page never fired")
	}
	if !tripOK {
		out.violate("breaker-trip alert never fired")
	}
	if burnOK && tripOK && burnAt >= tripAt {
		out.violate("burn-rate page at %d did not lead the breaker alert at %d", burnAt, tripAt)
	}
	for _, rule := range ruleOrder {
		if tr := lastByRule[rule]; tr.To != obs.Inactive {
			out.violate("rule %s ended %s at %d (never resolved)", rule, tr.To, tr.AtPs)
		}
	}

	// Every firing froze exactly one bundle, and each bundle correlates
	// its cause.
	if len(rep.Incidents) != firings {
		out.violate("%d incidents captured for %d firings", len(rep.Incidents), firings)
	}
	if rep.IncidentsDropped != 0 {
		out.violate("%d incidents dropped", rep.IncidentsDropped)
	}
	for _, in := range rep.Incidents {
		if !strings.Contains(in.Report, "rule="+in.Rule) {
			out.violate("incident at %d misattributed (rule %q not in report header)", in.AtPs, in.Rule)
		}
		if in.Trace == nil || in.Trace.Len() == 0 {
			out.violate("incident %s at %d carries no trace slice", in.Rule, in.AtPs)
		}
		if in.Rule == "breaker-trip" && !strings.Contains(in.Report, " fault ") {
			out.violate("breaker incident at %d missing the injected fault from its timeline", in.AtPs)
		}
		if in.Rule == "slo-burn" && !strings.Contains(in.Report, " action ") {
			out.violate("burn incident at %d missing the autoscaler response from its timeline", in.AtPs)
		}
	}

	// This is a genuine incident run: the SLO must actually have been
	// violated for a stretch, and the controller must still not thrash.
	if rep.SLOHeldFrac > 0.9 {
		out.violate("SLO held %.0f%% of ticks — the scenario never became an incident", rep.SLOHeldFrac*100)
	}
	if rep.Completed == 0 {
		out.violate("no requests completed")
	}
	checkNoFlap(splitActions(rep.Actions), &out)
	return out, rep.Incidents, nil
}
