package main

import (
	"fmt"
	"regexp"
	"testing"

	"repro/internal/profile"
	"repro/internal/sim"
)

// The CLI and the KPI bench assemble their runs through the same
// scenario.Build, so at a pinned scenario's settings the CLI must print
// exactly that scenario's requests and RPS — serial, sharded and
// workload runs alike.
func TestCLIMatchesPinnedScenarios(t *testing.T) {
	want := map[string]bool{"smartdimm-1dev": true, "cpu-baseline": true, "fleet-4rank": true, "rdma-4rank": true,
		"fleet-8rank-big": true, "kv-4rank": true}
	reqRe := regexp.MustCompile(`(?m)^requests:\s+(\d+) in`)
	rpsRe := regexp.MustCompile(`(?m)^RPS:\s+(\d+)$`)
	for _, sc := range profile.DefaultBenchScenarios() {
		if !want[sc.Name] {
			continue
		}
		if sc.Shards > 0 {
			// The sharded scenario's 20ms window costs ~10s a run; a 1ms
			// window (as bench's TestBuilderMatchesPinnedRunners uses)
			// exercises the same assembly on both sides.
			sc.MeasurePs = sim.Ms
		}
		t.Run(sc.Name, func(t *testing.T) {
			pinned, err := profile.RunBenchScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			args := []string{"-placement", sc.Placement, "-devices", fmt.Sprint(sc.Devices),
				"-conns", fmt.Sprint(sc.Conns), "-workers", fmt.Sprint(sc.Workers), "-seed", fmt.Sprint(sc.Seed),
				"-warmup-ms", fmt.Sprint(sc.WarmupPs / sim.Ms), "-measure-ms", fmt.Sprint(sc.MeasurePs / sim.Ms)}
			if sc.Workload != "" {
				args = append(args, "-workload", sc.Workload, "-rps", fmt.Sprint(sc.RPS))
			} else {
				args = append(args, "-ulp", sc.ULP, "-msg", fmt.Sprint(sc.Msg), "-corpus", sc.FileKind.String())
			}
			if sc.DataPath != "" {
				args = append(args, "-datapath", sc.DataPath)
			}
			if sc.Shards > 0 {
				args = append(args, "-shards", fmt.Sprint(sc.Shards))
			}
			cfg, sweep, _, err := parseArgs(args)
			if err != nil {
				t.Fatal(err)
			}
			out, err := runOne(cfg, sweep[0])
			if err != nil {
				t.Fatal(err)
			}
			req, rps := reqRe.FindStringSubmatch(out), rpsRe.FindStringSubmatch(out)
			if req == nil || rps == nil {
				t.Fatalf("report lacks requests/RPS lines:\n%s", out)
			}
			if got, w := req[1], fmt.Sprintf("%.0f", pinned.KPIs["requests"]); got != w {
				t.Errorf("CLI served %s requests, %s pins %s", got, sc.Name, w)
			}
			if got, w := rps[1], fmt.Sprintf("%.0f", pinned.KPIs["rps"]); got != w {
				t.Errorf("CLI RPS %s, %s pins %s", got, sc.Name, w)
			}
		})
	}
}
