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

	"repro/internal/sim"
	"repro/internal/workload"
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

// Autoscale runs workload.FlashCrowdScenario and assembles the
// per-tick timeline.
func Autoscale(seed int64) (AutoscaleResult, error) {
	cfg := workload.FlashCrowdScenario(seed)
	// The default alert rules ride the same scraper the controller
	// reads; their transitions land on the timeline as tick marks.
	cfg.Rules = workload.DefaultAlertRules(cfg.Scale.SLOPs)
	res := AutoscaleResult{TickPs: cfg.Scale.TickPs, SLOPs: cfg.Scale.SLOPs,
		CrowdPs: [2]int64{cfg.Arrivals.Flash[0].StartPs, cfg.Arrivals.Flash[0].EndPs},
		FaultPs: cfg.Faults[0].AtPs}
	rep, err := workload.Run(cfg)
	if err != nil {
		return res, err
	}
	res.Report = rep
	res.SLOHeldFrac = rep.SLOHeldFrac

	res.Points = make([]AutoscalePoint, len(rep.ActiveTimeline))
	for i := range res.Points {
		res.Points[i] = AutoscalePoint{
			AtPs: int64(i+1) * res.TickPs, Active: rep.ActiveTimeline[i],
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
		idx := int(at/res.TickPs) - 1
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
		idx := int(tr.AtPs/res.TickPs) - 1
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
