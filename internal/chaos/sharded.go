// Sharded chaos: the serving-path soak run on the sharded PDES cluster.
// Every server shard gets its own seeded fault injector (independent
// streams, like distinct machines in a rack failing independently); the
// soak drives the closed-loop workload through the dispatch fabric,
// classifies every server-side failure against the degradable-error
// taxonomy, and checks the per-shard conservation invariants while the
// cluster is still live. The whole report — per-shard fault traces,
// breaker totals, serving counters — renders to one deterministic
// string, and the shard determinism gate requires it byte-identical for
// any ExecWorkers/GOMAXPROCS combination: fault injection must not
// open a nondeterminism hole the fault-free gates can't see.
package chaos

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/offload"
	"repro/internal/server"
	"repro/internal/sim"
)

// The sharded soak's pinned size: two server shards, four connections
// each, measured for 2ms after a 1ms warmup.
const (
	shardedShards  = 2
	shardedConns   = 4 * shardedShards
	shardedMeasure = 2 * sim.Ms
)

// armServingSites installs a seeded per-shard fault plan on the sites
// the serving path consults: CRC corruption on the rank's command bus
// and ALERT_n assertions against the device MMIO window, plus an
// occasional DSA engine fault. Rates stay low enough that the breaker
// degrades instead of every request dying, so the soak exercises the
// trip/fallback/readmit machinery across shards.
func armServingSites(rng *rand.Rand, inj *fault.Injector) {
	inj.Arm("memctrl.crc", fault.Bernoulli{Prob: 0.002 + 0.01*rng.Float64()})
	inj.Arm("core.alert", fault.Bernoulli{Prob: 0.002 + 0.01*rng.Float64()})
	if rng.Intn(2) == 0 {
		inj.Arm("core.dsa", fault.Periodic{Every: int64(40 + rng.Intn(100)), Offset: int64(rng.Intn(10))})
	}
}

// RunSharded executes one sharded chaos soak: a compressed-HTTP serving
// workload over fault-injected sub-systems, the standard warmup/measure
// protocol, then invariant checks per shard. workers is the epoch
// parallelism (1 = serial reference, 0 = GOMAXPROCS); trace threads
// per-shard span tracers through the run. The returned error reports
// harness construction failures only; invariant breaches land in
// Report.Violations. The cluster is returned alongside so callers can
// fingerprint its merged trace.
func RunSharded(seed int64, workers int, trace bool) (Report, *fleet.Sharded, error) {
	rep := Report{Soak: "sharded", Seed: seed}
	injs := make([]*fault.Injector, shardedShards)
	sc, err := fleet.NewSharded(fleet.ShardedConfig{
		Shards: shardedShards, Workers: 4,
		MsgSize: 2048, Connections: shardedConns,
		FileKind: corpus.HTML, Mode: server.CompressedHTTP, Seed: seed,
		ExecWorkers: workers,
		Trace:       trace,
		Faults: func(shard int) *fault.Injector {
			// A per-shard RNG derived from (seed, shard) picks the plan;
			// the injector's own site streams derive from its seed — both
			// independent of any other shard.
			inj := fault.New(seed + int64(shard)*7919)
			armServingSites(rand.New(rand.NewSource(seed^int64(shard+1)*104729)), inj)
			injs[shard] = inj
			return inj
		},
	})
	if err != nil {
		return rep, nil, err
	}

	sc.Generator().Start()
	sc.Engine().RunUntil(sim.Ms)
	for _, srv := range sc.Servers() {
		srv.BeginMeasurement()
	}
	sc.Generator().BeginMeasurement()
	sc.Engine().RunUntil(sim.Ms + shardedMeasure)

	var requests, errs, tolerated, consults, fired, trips, readmits, fallback int64
	var perShard strings.Builder
	for s, srv := range sc.Servers() {
		m := srv.Collect()
		requests += int64(m.Requests)
		errs += int64(m.Errors)
		if err := srv.LastError(); err != nil {
			if offload.Degradable(err) {
				tolerated++
			} else {
				rep.violate("shard %d: non-degradable error: %v", s, err)
			}
		}
		if m.Requests == 0 {
			rep.violate("shard %d: served no requests under fault load", s)
		}
		fl := sc.Fleets()[s]
		t := fl.Totals()
		trips += int64(t.Trips)
		readmits += int64(t.Readmits)
		fallback += int64(t.Degraded.FallbackOps)
		// Conservation while live: pages allocated across the shard's
		// ranks must equal what its connections hold, even mid-fault.
		if out, exp := fl.OutstandingPages(), fl.ExpectedPages(); out != exp {
			rep.violate("shard %d: conservation: %d pages allocated, connections hold %d", s, out, exp)
		}
		c, f := injs[s].Counts()
		consults += c
		fired += f
		if c == 0 {
			rep.violate("shard %d: fault sites never consulted — injection not wired through", s)
		}
		fmt.Fprintf(&perShard, "shard%d requests=%d errors=%d consults=%d fired=%d trips=%d fallback=%d\n",
			s, m.Requests, m.Errors, c, f, t.Trips, t.Degraded.FallbackOps)
	}
	epochs, cross := int64(sc.Engine().Epochs()), int64(sc.Engine().Sent())
	if requests > 0 && cross < 2*(requests-shardedConns) {
		rep.violate("dispatch fabric undercounted: %d msgs for %d requests", cross, requests)
	}
	rep.Counts = []Count{
		{"requests", requests}, {"errors", errs}, {"tolerated", tolerated},
		{"consults", consults}, {"fired", fired},
		{"trips", trips}, {"readmits", readmits}, {"fallback_ops", fallback},
		{"epochs", epochs}, {"cross_shard_msgs", cross},
	}
	rep.artifact("shards", perShard.String())
	for s, inj := range injs {
		rep.artifact(fmt.Sprintf("shard %d faults", s), inj.TraceString())
	}
	return rep, sc, nil
}
