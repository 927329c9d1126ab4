// The autoscale experiment: a KV-cache fleet starting half parked
// serves an open-loop trace with a flash crowd and a forced rank
// failure, supervised by the SLO autoscaler. The timeline samples the
// observed p99 and the active rank count at every control tick, with
// the controller's decisions marked on the ticks they landed in — the
// printed series shows the crowd breaching the SLO, ranks deploying,
// the breaker absorbing the fault, and the fleet draining back once
// the crowd passes.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/autoscale"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/wrkgen"
)

// AutoscalePoint is one control tick of the timeline.
type AutoscalePoint struct {
	AtPs   int64
	Active int
	P99Ps  float64
	Mark   string // controller action(s) landing in this tick, if any
}

// AutoscaleResult is the timeline plus the run's figure of merit.
type AutoscaleResult struct {
	Points      []AutoscalePoint
	TickPs      int64
	SLOPs       float64
	SLOHeldFrac float64
	CrowdPs     [2]int64 // flash-crowd start/end
	FaultPs     int64
	Report      workload.Report
}

// Autoscale runs the flash-crowd + rank-fault scenario (the same shape
// the chaos workload soak pins) and assembles the per-tick timeline.
func Autoscale(seed int64) (AutoscaleResult, error) {
	const (
		tickPs  = 200 * sim.Us
		crowdOn = 3 * sim.Ms
		crowdOf = 6 * sim.Ms
		faultPs = 4200 * sim.Us
	)
	res := AutoscaleResult{
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
			Flash:        []wrkgen.FlashCrowd{{StartPs: crowdOn, EndPs: crowdOf, Mult: 2.5}},
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
		// The default alert rules ride the same scraper the controller
		// reads; their transitions land on the timeline as tick marks.
		Rules: workload.DefaultAlertRules(res.SLOPs),
	})
	if err != nil {
		return res, err
	}
	res.Report = rep
	res.SLOHeldFrac = rep.SLOHeldFrac

	res.Points = make([]AutoscalePoint, len(rep.ActiveTimeline))
	for i := range res.Points {
		res.Points[i] = AutoscalePoint{
			AtPs: int64(i+1) * tickPs, Active: rep.ActiveTimeline[i],
		}
		if i < len(rep.P99Timeline) {
			res.Points[i].P99Ps = rep.P99Timeline[i]
		}
	}
	// Pin each controller decision onto the tick it fired at (actions
	// land exactly on tick instants).
	var at int64
	var what string
	for _, line := range splitLines(rep.Actions) {
		if _, err := fmt.Sscanf(line, "%d %s", &at, &what); err != nil {
			continue
		}
		idx := int(at/tickPs) - 1
		if idx < 0 || idx >= len(res.Points) {
			continue
		}
		if res.Points[idx].Mark != "" {
			res.Points[idx].Mark += ", "
		}
		res.Points[idx].Mark += what
	}
	// Alert transitions land on scrape instants — tick instants here, the
	// scraper defaulting to the control interval.
	for _, tr := range rep.Alerts {
		idx := int(tr.AtPs/tickPs) - 1
		if idx < 0 || idx >= len(res.Points) {
			continue
		}
		if res.Points[idx].Mark != "" {
			res.Points[idx].Mark += ", "
		}
		res.Points[idx].Mark += fmt.Sprintf("[%s %s->%s]", tr.Rule, tr.From, tr.To)
	}
	return res, nil
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// WriteAutoscaleTimeline renders the per-tick series with the crowd
// window, the injected fault, and every controller decision marked.
func (r AutoscaleResult) WriteAutoscaleTimeline(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%8s %7s %10s %5s  %s\n", "t(ms)", "active", "p99(us)", "slo", "event"); err != nil {
		return err
	}
	for _, p := range r.Points {
		verdict := "ok"
		if p.P99Ps > r.SLOPs {
			verdict = "MISS"
		}
		mark := p.Mark
		if r.CrowdPs[0] > p.AtPs-r.TickPs && r.CrowdPs[0] <= p.AtPs {
			mark = join(mark, "<- flash crowd on")
		}
		if r.FaultPs > p.AtPs-r.TickPs && r.FaultPs <= p.AtPs {
			mark = join(mark, "<- rank 1 fails")
		}
		if r.CrowdPs[1] > p.AtPs-r.TickPs && r.CrowdPs[1] <= p.AtPs {
			mark = join(mark, "<- flash crowd off")
		}
		if _, err := fmt.Fprintf(w, "%8.1f %7d %10.1f %5s  %s\n",
			float64(p.AtPs)/float64(sim.Ms), p.Active, p.P99Ps/float64(sim.Us), verdict, mark); err != nil {
			return err
		}
	}
	rep := r.Report
	_, err := fmt.Fprintf(w, "issued=%d completed=%d slo_held=%.0f%% admits=%d drains=%d trips=%d final_active=%d\n",
		rep.Issued, rep.Completed, r.SLOHeldFrac*100,
		rep.Fleet.AdminAdmits, rep.Fleet.AdminDrains, rep.Fleet.Trips, rep.FinalActive)
	return err
}

func join(a, b string) string {
	if a == "" {
		return b
	}
	return a + "  " + b
}
