package fleet

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/runner/runnertest"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// shardedFingerprint runs a small sharded cluster and renders its
// deterministic artifacts — the merged Perfetto trace, the metrics
// registry dump, and the aggregated/per-shard KPI lines — into one byte
// blob for identity comparison across execution schedules. When
// withExec is true the blob also includes execution-level counters
// (epoch count, lookahead): those are invariant across worker counts
// but legitimately change with the window size, so the lookahead
// invariance gate drops them.
func shardedFingerprint(t *testing.T, execWorkers int, lookahead int64, withExec bool) []byte {
	t.Helper()
	sc, err := NewSharded(ShardedConfig{
		Shards: 2, RanksPerShard: 2, Policy: RoundRobin,
		Workers: 4, MsgSize: 2048, Connections: 8,
		FileKind: corpus.Text, Mode: server.HTTPSMode, Seed: 7,
		ExecWorkers: execWorkers, LookaheadPs: lookahead,
		Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sc.Run(sim.Ms/2, sim.Ms)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "agg requests=%d cpu=%d tx=%d mean=%d p99=%g errors=%d\n",
		m.Agg.Requests, m.Agg.CPUBusyPs, m.Agg.TXBytes, m.Agg.MeanLatPs,
		m.Agg.Latency.Percentile(99), m.Agg.Errors)
	for s, ps := range m.PerShard {
		fmt.Fprintf(&b, "shard%d requests=%d cpu=%d tx=%d stages=%v\n",
			s, ps.Requests, ps.CPUBusyPs, ps.TXBytes, ps.StagePs)
	}
	fmt.Fprintf(&b, "msgs=%d dispatched=%d completed=%d\n",
		m.SentMsgs, sc.Dispatched(), sc.Generator().Completed)
	reg := telemetry.NewRegistry()
	reg.Register("server", m.Agg)
	if withExec {
		fmt.Fprintf(&b, "epochs=%d events=%d\n", m.Epochs, m.Processed)
		sc.RegisterMetrics(reg)
	} else {
		for s, sys := range sc.Systems() {
			sys.RegisterMetricsPrefixed(reg, fmt.Sprintf("shard%d", s))
		}
	}
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if err := sc.MergedTrace().WritePerfetto(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestShardedClusterDeterministicAcrossWorkers is the full-stack shard
// determinism gate: serial reference execution, fully parallel
// execution, and a different GOMAXPROCS all produce byte-identical
// traces, metrics dumps, and reports.
func TestShardedClusterDeterministicAcrossWorkers(t *testing.T) {
	runnertest.SameBytes(t, func(workers int) []byte {
		return shardedFingerprint(t, workers, 0, true)
	})
}

// TestShardedClusterLookaheadInvariance shrinks the epoch window well
// below the dispatch latency: partitioning into many more epochs must
// not move a single byte of output.
func TestShardedClusterLookaheadInvariance(t *testing.T) {
	ref := shardedFingerprint(t, 1, 0, false)
	// 100ns windows against the default ~6us dispatch: ~60x more epochs.
	if got := shardedFingerprint(t, 4, 100*sim.Ns, false); !bytes.Equal(got, ref) {
		t.Fatal("shrunken lookahead window changed cluster output")
	}
}

// TestShardedClusterAggregation checks the cluster-wide rollups: every
// shard serves traffic, the aggregate is the shard sum, and the engine
// counters reflect all shards.
func TestShardedClusterAggregation(t *testing.T) {
	sc, err := NewSharded(ShardedConfig{
		Shards: 3, Workers: 4, MsgSize: 1024, Connections: 9,
		FileKind: corpus.Text, Mode: server.HTTPSMode, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sc.Run(sim.Ms/2, sim.Ms)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for s, ps := range m.PerShard {
		if ps.Requests == 0 {
			t.Fatalf("shard %d served no requests", s)
		}
		sum += ps.Requests
	}
	if m.Agg.Requests != sum {
		t.Fatalf("aggregate requests %d != shard sum %d", m.Agg.Requests, sum)
	}
	// Generator completions lag server-side counts by the responses still
	// crossing the fabric when the window closes (one per connection at
	// most).
	done := sc.Generator().Completed
	if done == 0 || done > m.Agg.Requests || m.Agg.Requests-done > 9 {
		t.Fatalf("generator completions %d inconsistent with aggregate requests %d", done, m.Agg.Requests)
	}
	if m.Epochs == 0 || m.SentMsgs == 0 {
		t.Fatalf("sharded execution did not happen: epochs=%d msgs=%d", m.Epochs, m.SentMsgs)
	}
	// Every request crosses the fabric twice (dispatch + completion).
	if m.SentMsgs < 2*m.Agg.Requests {
		t.Fatalf("cross-shard messages %d < 2x requests %d", m.SentMsgs, m.Agg.Requests)
	}
	if got := sc.Engine().Processed(); got != m.Processed || got == 0 {
		t.Fatalf("engine processed %d, metrics say %d", got, m.Processed)
	}
}

// TestShardedClusterRejectsBadConfigs pins the constructor's guard
// rails.
func TestShardedClusterRejectsBadConfigs(t *testing.T) {
	base := ShardedConfig{
		Shards: 2, Workers: 2, MsgSize: 1024, Connections: 4,
		FileKind: corpus.Text, Mode: server.HTTPSMode,
	}
	for name, mutate := range map[string]func(*ShardedConfig){
		"zero shards":          func(c *ShardedConfig) { c.Shards = 0 },
		"fewer conns":          func(c *ShardedConfig) { c.Connections = 1 },
		"plain http":           func(c *ShardedConfig) { c.Mode = server.PlainHTTP },
		"lookahead > dispatch": func(c *ShardedConfig) { c.LookaheadPs = DeriveDispatchPs(sim.DefaultParams()) + 1 },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := NewSharded(cfg); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
}

// TestDeriveDispatchPs pins the lookahead derivation: half the in-rack
// RTT for the default calibration, floored at the memory-domain command
// round trip when the RTT collapses.
func TestDeriveDispatchPs(t *testing.T) {
	p := sim.DefaultParams()
	d := DeriveDispatchPs(p)
	if want := int64(p.RTTUs * float64(sim.Us) / 2); d != want {
		t.Fatalf("dispatch = %dps, want half RTT %dps", d, want)
	}
	p.RTTUs = 0
	if d := DeriveDispatchPs(p); d < 120*sim.Ns {
		t.Fatalf("dispatch floor = %dps, want >= doorbell overhead", d)
	}
}
