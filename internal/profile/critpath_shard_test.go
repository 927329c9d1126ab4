package profile

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestCritPathShardPairing: merged shard traces reuse async ids across
// tracks (every shard counts "req" from 1). Pairing must be per-track,
// or shard 0's begin would close against shard 1's end.
func TestCritPathShardPairing(t *testing.T) {
	tr := telemetry.New()
	s0 := tr.Track("s0/requests")
	s1 := tr.Track("s1/requests")
	tr.AsyncBegin(s0, "req", 1, 0)
	tr.AsyncBegin(s1, "req", 1, 100)
	// Ends arrive cross-ordered: s1's first. Name+id pairing would hand
	// s0's begin (at 0) to this end and report a 300ps request.
	tr.AsyncEnd(s1, "req", 1, 300)
	tr.AsyncEnd(s0, "req", 1, 1_000)
	cp := AnalyzeTracer(tr, Options{})
	if len(cp.Requests) != 2 {
		t.Fatalf("requests = %d, want 2", len(cp.Requests))
	}
	lat := map[int64]bool{}
	for _, r := range cp.Requests {
		lat[r.LatencyPs()] = true
	}
	if !lat[200] || !lat[1_000] {
		t.Fatalf("latencies = %+v, want {200, 1000}: cross-shard ids mispaired", cp.Requests)
	}
}

// TestCritPathShardAwareAttribution: under ShardAware a span blocks only
// requests of its own shard — shards are disjoint hardware — while
// shared planes ("fe/" here) attribute to every request, and the engine
// exclusion matches through the shard prefix.
func TestCritPathShardAwareAttribution(t *testing.T) {
	tr := telemetry.New()
	s0r := tr.Track("s0/requests")
	s1r := tr.Track("s1/requests")
	s0w := tr.Track("s0/worker0")
	s1w := tr.Track("s1/worker0")
	fe := tr.Track("fe/dispatch")
	s0e := tr.Track("s0/engine")

	// Two concurrent requests, one per shard, over [0, 1000).
	tr.AsyncBegin(s0r, "req", 1, 0)
	tr.AsyncBegin(s1r, "req", 1, 0)
	tr.Span(s0w, "ulp", 0, 400)       // shard 0 work
	tr.Span(s1w, "ulp", 0, 250)       // shard 1 work
	tr.Span(fe, "dispatch", 500, 100) // shared fabric hop
	tr.Span(s0e, "run", 0, 1_000)     // container, must stay excluded
	tr.AsyncEnd(s0r, "req", 1, 1_000)
	tr.AsyncEnd(s1r, "req", 1, 1_000)

	cp := AnalyzeTracer(tr, Options{ShardAware: true})
	if len(cp.Requests) != 2 {
		t.Fatalf("requests = %d, want 2", len(cp.Requests))
	}
	// Requests come out in end-emission order: s0 first.
	byName := func(r Request) map[string]int64 {
		m := map[string]int64{}
		for _, s := range r.Stages {
			m[s.Name] = s.Ps
		}
		return m
	}
	r0, r1 := byName(cp.Requests[0]), byName(cp.Requests[1])
	if r0["ulp"] != 400 || r0["dispatch"] != 100 || r0[WaitStage] != 500 {
		t.Fatalf("shard-0 request stages = %v", r0)
	}
	if r1["ulp"] != 250 || r1["dispatch"] != 100 || r1[WaitStage] != 650 {
		t.Fatalf("shard-1 request stages = %v (foreign shard's ulp bled through?)", r1)
	}
	for _, s := range cp.Stages {
		if s.Name == "run" {
			t.Fatal("prefixed engine track leaked into the stage table")
		}
	}

	// Without ShardAware the old global attribution applies: shard 1's
	// request also counts shard 0's ulp span (union 400).
	flat := AnalyzeTracer(tr, Options{})
	r1flat := byName(flat.Requests[1])
	if r1flat["ulp"] != 400 {
		t.Fatalf("flat shard-1 ulp = %d, want global union 400", r1flat["ulp"])
	}
}

// TestCritPathShardedClusterDispatchStage runs a real sharded fleet and
// checks the analyzer end-to-end on its merged trace: per-shard request
// lifecycles pair correctly, the dispatch fabric shows up as its own
// stage, and the front-end "creq" windows decompose into fabric time
// plus wait.
func TestCritPathShardedClusterDispatchStage(t *testing.T) {
	mt := telemetry.New()
	st, err := scenario.Build(scenario.Spec{
		Placement: "rr", Shards: 2, Workers: 4, Msg: 2048, Conns: 6, ULP: "tls",
		FileKind: corpus.Text, Seed: 11, ExecWorkers: 1,
		WarmupPs: sim.Ms / 2, MeasurePs: sim.Ms, Tracer: mt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(); err != nil {
		t.Fatal(err)
	}
	cp := Analyze(mt.Tracks(), mt.Events(), Options{FromPs: sim.Ms / 2, ShardAware: true})
	if len(cp.Requests) == 0 {
		t.Fatal("no requests analyzed from the merged trace")
	}
	for _, r := range cp.Requests {
		if r.LatencyPs() <= 0 {
			t.Fatalf("non-positive latency %d for request %d: cross-shard mispairing", r.LatencyPs(), r.ID)
		}
	}
	var dispatch *StageTotal
	for i := range cp.Stages {
		if cp.Stages[i].Name == "dispatch" {
			dispatch = &cp.Stages[i]
		}
	}
	if dispatch == nil || dispatch.BlockedPs <= 0 {
		t.Fatalf("dispatch fabric not attributed: stages = %+v", cp.Stages)
	}
	// Every creq window must contain fabric time: the round trip is two
	// dispatch hops by construction.
	nCreq := 0
	for _, e := range mt.Events() {
		if e.Kind == telemetry.KindAsyncBegin && e.Name == "creq" {
			nCreq++
		}
	}
	if nCreq == 0 {
		t.Fatal("front-end emitted no creq lifecycles")
	}
}
