package scenario_test

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Every pinned KPI scenario builds, on the engine its kind names.
func TestPinnedSpecsBuild(t *testing.T) {
	for _, sp := range profile.DefaultBenchScenarios() {
		st, err := scenario.Build(sp)
		if err != nil {
			t.Errorf("%s: %v", sp.Name, err)
			continue
		}
		var got string
		switch {
		case st.Sharded != nil:
			got = "sharded"
		case st.Cluster != nil:
			got = "cluster"
		case st.Workload != nil:
			got = "workload"
		case st.Server != nil:
			got = "serial"
		}
		want := "serial"
		switch {
		case sp.Shards > 0:
			want = "sharded"
		case sp.Nodes > 0:
			want = "cluster"
		case sp.Workload != "":
			want = "workload"
		}
		if got != want {
			t.Errorf("%s: built a %q stack, want %q", sp.Name, got, want)
		}
	}
}

// A field the spec's kind cannot honour is an error that names it.
func TestBuildRejectsConflicts(t *testing.T) {
	serial := scenario.Spec{Placement: "smartdimm", ULP: "tls", Msg: 1024, Conns: 8, Workers: 2,
		FileKind: corpus.Text, Seed: 1, WarmupPs: sim.Ms, MeasurePs: sim.Ms}
	sharded := serial
	sharded.Placement, sharded.Shards = "rr", 2
	cluster := serial
	cluster.Placement, cluster.Nodes = "cluster", 3
	work := scenario.Spec{Placement: "rr", Devices: 2, Workload: "kv", RPS: 1e5,
		Conns: 8, Workers: 2, Seed: 1, WarmupPs: sim.Ms, MeasurePs: sim.Ms}
	think := func(int) int64 { return 0 }
	for _, tc := range []struct {
		name  string
		base  scenario.Spec
		edit  func(*scenario.Spec)
		names string // a substring the error must contain
	}{
		{"serial exec workers", serial, func(s *scenario.Spec) { s.ExecWorkers = 2 }, "ExecWorkers"},
		{"serial rps", serial, func(s *scenario.Spec) { s.RPS = 1e5 }, "RPS"},
		{"serial peer on cpu", serial, func(s *scenario.Spec) { s.Placement, s.DataPath = "cpu", "peer" }, "peer"},
		{"unknown data path", serial, func(s *scenario.Spec) { s.DataPath = "dma" }, "data path"},
		{"shards with nodes", sharded, func(s *scenario.Spec) { s.Nodes = 3 }, "Nodes"},
		{"shards with workload", sharded, func(s *scenario.Spec) { s.Workload = "kv" }, "Workload"},
		{"sharded peer", sharded, func(s *scenario.Spec) { s.DataPath = "peer" }, "DataPath peer"},
		{"sharded cas trace", sharded, func(s *scenario.Spec) { s.TraceCAS = 16 }, "TraceCAS"},
		{"sharded think", sharded, func(s *scenario.Spec) { s.ThinkPsFor = think }, "ThinkPsFor"},
		{"sharded single-device placement", sharded, func(s *scenario.Spec) { s.Placement = "cpu" }, "placement"},
		{"sharded unknown placement", sharded, func(s *scenario.Spec) { s.Placement = "bogus" }, "placement"},
		{"nodes with workload", cluster, func(s *scenario.Spec) { s.Workload = "kv" }, "Workload"},
		{"cluster placement", cluster, func(s *scenario.Spec) { s.Placement = "rr" }, "Placement"},
		{"cluster devices", cluster, func(s *scenario.Spec) { s.Devices = 4 }, "Devices"},
		{"cluster plain http", cluster, func(s *scenario.Spec) { s.ULP = "none" }, "ULP"},
		{"cluster peer", cluster, func(s *scenario.Spec) { s.DataPath = "peer" }, "DataPath peer"},
		{"cluster think", cluster, func(s *scenario.Spec) { s.ThinkPsFor = think }, "ThinkPsFor"},
		{"cluster tracer", cluster, func(s *scenario.Spec) { s.Tracer = telemetry.New() }, "Tracer"},
		{"workload llc", work, func(s *scenario.Spec) { s.LLCBytes = 4 << 20 }, "LLCBytes"},
		{"workload ways", work, func(s *scenario.Spec) { s.LLCWays = 16 }, "LLCWays"},
		{"workload tracer", work, func(s *scenario.Spec) { s.Tracer = telemetry.New() }, "Tracer"},
		{"workload msg", work, func(s *scenario.Spec) { s.Msg = 4096 }, "Msg"},
		{"workload corpus", work, func(s *scenario.Spec) { s.FileKind = corpus.HTML }, "FileKind"},
		{"workload ulp", work, func(s *scenario.Spec) { s.ULP = "compression" }, "ULP"},
		{"workload peer", work, func(s *scenario.Spec) { s.DataPath = "peer" }, "DataPath peer"},
		{"workload exec workers", work, func(s *scenario.Spec) { s.ExecWorkers = 2 }, "ExecWorkers"},
		{"workload single-device placement", work, func(s *scenario.Spec) { s.Placement = "qat" }, "placement"},
	} {
		sp := tc.base
		tc.edit(&sp)
		if _, err := scenario.Build(sp); err == nil || !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%s: Build error = %v, want one naming %q", tc.name, err, tc.names)
		}
	}
}

// A sharded spec honours the LLC size, and its Run reports the
// aggregate, the per-shard report, and the merged shard trace.
func TestShardedRun(t *testing.T) {
	tr := telemetry.New()
	st, err := scenario.Build(scenario.Spec{Placement: "rr", Shards: 2, ULP: "tls", Msg: 1024, Conns: 8,
		Workers: 2, FileKind: corpus.Text, Seed: 1, WarmupPs: sim.Ms / 5, MeasurePs: sim.Ms / 5,
		LLCBytes: 1 << 20, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	for s, sys := range st.Sharded.Systems() {
		if got := sys.Hier.LLC.SizeBytes(); got != 1<<20 {
			t.Errorf("shard %d LLC = %d bytes, want the spec's 1MB", s, got)
		}
	}
	r, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Sharded == nil || r.Metrics.Requests == 0 || r.Metrics.Requests != r.Sharded.Agg.Requests {
		t.Fatalf("result = %+v, want the shards' aggregate", r.Metrics)
	}
	fe := false
	for _, name := range tr.Tracks() {
		fe = fe || strings.HasPrefix(name, "fe/")
	}
	if tr.Len() == 0 || !fe {
		t.Fatalf("tracer holds %d events on tracks %v, want the merged shard stream", tr.Len(), tr.Tracks())
	}
}
