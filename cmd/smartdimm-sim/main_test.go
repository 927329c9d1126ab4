package main

import (
	"fmt"
	"regexp"
	"testing"

	"repro/internal/corpus"
	"repro/internal/profile"
	"repro/internal/sim"
)

// The CLI and the KPI bench assemble their servers through the same
// scenario.Build, so at a pinned scenario's settings the CLI must print
// exactly that scenario's requests and RPS.
func TestCLIMatchesPinnedScenarios(t *testing.T) {
	want := map[string]bool{"smartdimm-1dev": true, "cpu-baseline": true, "fleet-4rank": true, "rdma-4rank": true}
	reqRe := regexp.MustCompile(`(?m)^requests:\s+(\d+) in`)
	rpsRe := regexp.MustCompile(`(?m)^RPS:\s+(\d+)$`)
	for _, sc := range profile.DefaultBenchScenarios() {
		if !want[sc.Name] {
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			pinned, err := profile.RunBenchScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			datapath := sc.DataPath
			if datapath == "" {
				datapath = "host"
			}
			out, err := runOne(cliConfig{
				placement: sc.Placement, datapath: datapath, ulpName: sc.ULP,
				workers: sc.Workers, devices: sc.Devices,
				llc: 2 << 20, ways: 8, kind: corpus.Text,
				warmupMs: int(sc.WarmupPs / sim.Ms), measureMs: int(sc.MeasurePs / sim.Ms), seed: sc.Seed,
			}, sc.Msg, sc.Conns)
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
