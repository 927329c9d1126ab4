// Workload chaos: the production-workload soak behind `./ci.sh
// workload`. One seeded scenario — a KV-cache fleet starting half
// parked, an open-loop trace with a 2.5x flash crowd, and a forced rank
// failure injected mid-crowd — runs under the SLO autoscaler, and the
// harness checks the operational invariants a production cache owner
// would page on:
//
//   - the autoscaler actually reacts: the flash crowd forces at least
//     one administrative admission, and the SLO-held fraction over
//     measured control ticks stays above the floor;
//   - no flapping: the action log never admits and drains the same
//     rank back-to-back within the hysteresis window, and total actions
//     stay bounded (a flapping controller reshards connections every
//     tick — migrations are the symptom);
//   - page conservation across every rank driver, exactly as the fleet
//     chaos schedule checks it, but here while ranks are parked,
//     deployed, failed, and drained by two independent controllers (the
//     breaker and the autoscaler);
//   - seed replayability: the same seed reproduces the canonical
//     report byte-for-byte, serial or pooled trace generation.
package chaos

import (
	"fmt"
	"strings"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// workloadSoakConfig is the pinned scenario; seed and the trace
// generator's worker count (as for runner.New) vary.
func workloadSoakConfig(seed int64, workers int) workload.RunConfig {
	cfg := workload.FlashCrowdScenario(seed)
	cfg.Pool = runner.New(workers)
	return cfg
}

// RunWorkloadSoak executes the soak once. Construction failures return
// an error; invariant breaches land in Report.Violations.
func RunWorkloadSoak(seed int64, workers int) (Report, error) {
	rep, err := workload.Run(workloadSoakConfig(seed, workers))
	if err != nil {
		return Report{}, err
	}
	actions := splitActions(rep.Actions)
	out := Report{Soak: "workload", Seed: seed, Counts: []Count{
		{"issued", int64(rep.Issued)}, {"completed", int64(rep.Completed)},
		{"admits", int64(rep.Fleet.AdminAdmits)}, {"drains", int64(rep.Fleet.AdminDrains)},
		{"trips", int64(rep.Fleet.Trips)}, {"actions", int64(len(actions))},
		{"final_active", int64(rep.FinalActive)},
	}}
	out.artifact("canonical", rep.Canonical())
	if rep.Completed == 0 {
		out.violate("no requests completed")
	}
	if rep.Issued < rep.Completed {
		out.violate("completed %d > issued %d", rep.Completed, rep.Issued)
	}
	// The InitialActive=2 park counts as 2 drains; the crowd must force
	// at least one admission beyond that.
	if rep.Fleet.AdminAdmits == 0 {
		out.violate("flash crowd never scaled up (0 admits)")
	}
	if rep.Fleet.Trips == 0 {
		out.violate("injected fault never tripped the breaker")
	}
	if rep.SLOHeldFrac < 0.5 {
		out.violate("SLO held only %.0f%% of measured ticks (floor 50%%)", rep.SLOHeldFrac*100)
	}
	if !rep.PagesOK {
		out.violate("page conservation violated across rank drivers")
	}
	checkNoFlap(actions, &out)
	return out, nil
}

// splitActions breaks the action trace into its non-empty lines.
func splitActions(trace string) []string {
	return strings.FieldsFunc(trace, func(r rune) bool { return r == '\n' })
}

// checkNoFlap flags opposite-direction actions landing closer together
// than the hysteresis machinery permits (after an admit, cooldown plus
// the DownAfter streak put the earliest legitimate drain 8 ticks =
// 1.6ms out; flapWindowPs sits well inside that), and an action count
// that says the controller thrashed.
const flapWindowPs = sim.Ms

func checkNoFlap(actions []string, rep *Report) {
	type act struct {
		at   int64
		what string
	}
	parsed := make([]act, 0, len(actions))
	for _, line := range actions {
		var a act
		if _, err := fmt.Sscanf(line, "%d %s", &a.at, &a.what); err == nil {
			parsed = append(parsed, a)
		}
	}
	for i := 1; i < len(parsed); i++ {
		a, b := parsed[i-1], parsed[i]
		opposite := (a.what == "admit" && b.what == "drain") || (a.what == "drain" && b.what == "admit")
		if opposite && b.at-a.at < flapWindowPs {
			rep.violate("flap: %q then %q within %dus", actions[i-1], actions[i], (b.at-a.at)/sim.Us)
		}
	}
	if len(actions) > 12 {
		rep.violate("%d autoscale actions in a 10ms run (thrash)", len(actions))
	}
}
