// Cluster chaos: the replication-tier soak. Each schedule derives a
// random fault plan from its seed — node kills with later rejoins,
// symmetric and asymmetric network partitions, a graceful drain, and
// background per-link packet loss — runs it against a replicated
// cluster through warmup -> chaos -> heal -> settle phases, and then
// replays the recorded client history through the linearizability
// checker: no client-acked write may be lost, no read may travel back
// in time, regardless of what the schedule did to the nodes.
//
// Every schedule is seed-replayable and renders to one canonical report
// string; the cluster determinism gate requires the report and the
// merged trace byte-identical across ExecWorkers/GOMAXPROCS, so the
// soak doubles as a nondeterminism detector for the failover paths.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/sim"
)

// The cluster soak's pinned size: three nodes serving four client
// connections through warmup (leader election and steady state), a 6ms
// fault window, and a post-heal settle before the check.
const (
	clusterNodes   = 3
	clusterConns   = 4
	clusterWarmup  = 2 * sim.Ms
	clusterChaos   = 6 * sim.Ms
	clusterSettle  = 3 * sim.Ms
	clusterHealsAt = clusterWarmup + clusterChaos
)

// clusterSchedule is the fault plan derived from one seed.
type clusterSchedule struct {
	lines      []string
	kills      [][2]int64 // per victim: [killPs, rejoinPs)
	victims    []int
	partitions fault.Partitions
	lossProb   float64
	drainNode  int // -1 = none
	drainAt    int64
	undrainAt  int64
}

// deriveSchedule rolls a fault plan inside [warmup, warmup+chaos): one
// or two node kills (distinct victims, rejoining before heal), one to
// three partition windows over random endpoint splits (router
// included; asymmetric half the time), background per-link loss, and —
// half the time — a drain of a surviving node.
func deriveSchedule(rng *rand.Rand, nodes int, warmupPs, chaosPs int64) clusterSchedule {
	sc := clusterSchedule{drainNode: -1}
	healPs := warmupPs + chaosPs
	span := func(maxFrac float64) (int64, int64) {
		from := warmupPs + int64(rng.Float64()*0.5*float64(chaosPs))
		dur := int64((0.1 + rng.Float64()*maxFrac) * float64(chaosPs))
		to := from + dur
		if to > healPs {
			to = healPs
		}
		return from, to
	}

	nKills := 1 + rng.Intn(2)
	perm := rng.Perm(nodes)
	for k := 0; k < nKills; k++ {
		victim := perm[k]
		from, to := span(0.4)
		sc.victims = append(sc.victims, victim)
		sc.kills = append(sc.kills, [2]int64{from, to})
		sc.lines = append(sc.lines, fmt.Sprintf("kill node=%d at=%dps rejoin=%dps", victim, from, to))
	}

	nParts := 1 + rng.Intn(3)
	for p := 0; p < nParts; p++ {
		// Split the endpoint space (0 = router, 1+i = node i) into two
		// non-empty sides.
		eps := rng.Perm(nodes + 1)
		cut := 1 + rng.Intn(nodes)
		a := append([]int(nil), eps[:cut]...)
		b := append([]int(nil), eps[cut:]...)
		sort.Ints(a)
		sort.Ints(b)
		from, to := span(0.3)
		part := fault.Partition{FromPs: from, ToPs: to, A: a, B: b, OneWay: rng.Intn(2) == 0}
		sc.partitions = append(sc.partitions, part)
		sc.lines = append(sc.lines, fmt.Sprintf("partition a=%v b=%v from=%dps to=%dps oneway=%v",
			a, b, from, to, part.OneWay))
	}

	sc.lossProb = 0.002 + rng.Float64()*0.01
	sc.lines = append(sc.lines, fmt.Sprintf("loss prob=%.4f", sc.lossProb))

	if rng.Intn(2) == 0 {
		// Drain a node that is not being killed, if one exists.
		for _, cand := range perm[nKills:] {
			sc.drainNode = cand
			break
		}
		if sc.drainNode >= 0 {
			sc.drainAt, _ = span(0.2)
			sc.undrainAt = healPs
			sc.lines = append(sc.lines, fmt.Sprintf("drain node=%d at=%dps undrain=%dps",
				sc.drainNode, sc.drainAt, sc.undrainAt))
		}
	}
	return sc
}

// RunCluster executes one seed-replayable cluster chaos schedule and
// checks it. workers is the epoch parallelism (1 = serial, 0 =
// GOMAXPROCS); trace threads per-shard tracers through the run. The
// returned error reports harness construction failures only; invariant
// breaches, the linearizability checker's included, land in the report.
// The cluster comes back alongside so callers can fingerprint its merged
// trace.
func RunCluster(seed int64, workers int, trace bool) (Report, *cluster.Cluster, error) {
	rep := Report{Soak: "cluster", Seed: seed}
	sched := deriveSchedule(rand.New(rand.NewSource(seed^0x5eed)), clusterNodes, clusterWarmup, clusterChaos)
	rep.artifact("schedule", strings.Join(sched.lines, "\n"))

	c, err := cluster.New(cluster.Config{
		Nodes: clusterNodes, Conns: clusterConns,
		MsgSize: 1024, Workers: 2, NodeConns: 2,
		FileKind: corpus.Text, Seed: seed,
		Trace: trace, ExecWorkers: workers,
		NetFaults: func(ep int) *fault.Injector {
			// One injector per endpoint (shard-owned), every endpoint
			// arming the same value-typed partition windows — that is how
			// a partition cuts both directions from two different
			// injectors without shared state. Loss streams stay
			// per-endpoint-independent via the injector seed.
			inj := fault.New(seed + int64(ep)*7919)
			inj.Arm(cluster.SiteNetCut, sched.partitions)
			for d := 0; d <= clusterNodes; d++ {
				if d != ep {
					inj.Arm(fmt.Sprintf("%s.%d", cluster.SiteNetDrop, d), fault.Bernoulli{Prob: sched.lossProb})
				}
			}
			return inj
		},
	})
	if err != nil {
		return rep, nil, err
	}
	for k, victim := range sched.victims {
		c.KillAt(victim, sched.kills[k][0])
		c.RejoinAt(victim, sched.kills[k][1])
	}
	if sched.drainNode >= 0 {
		c.DrainAt(sched.drainNode, sched.drainAt)
		c.UndrainAt(sched.drainNode, sched.undrainAt)
	}

	c.Start()
	c.RunUntil(clusterWarmup)
	c.BeginMeasurement()
	c.RunUntil(clusterHealsAt)          // partitions end, victims rejoined
	c.RunUntil(clusterHealsAt + sim.Ms) // post-heal serving window (availability proof)
	m, err := c.Collect()
	if err != nil {
		return rep, c, err
	}
	c.Quiesce(clusterSettle)

	net := c.Net().Totals()
	check := c.Check()
	rep.Counts = []Count{
		{"ops", int64(m.Ops)}, {"acked_writes", int64(m.AckedWrites)}, {"acked_reads", int64(m.AckedReads)},
		{"timeouts", int64(m.Timeouts)}, {"retries", int64(m.Retries)}, {"promotions", int64(m.Promotions)},
		{"net_sent", int64(net.Sent)}, {"net_dropped", int64(net.Dropped)}, {"net_retrans", int64(net.Retrans)},
		{"net_delivered", int64(net.Delivered)}, {"net_expired", int64(net.Expired)},
	}
	rep.artifact("check", check.String())
	if !check.Ok() {
		rep.violate("linearizability: %d violations (see check)", check.ViolationCount)
	}
	healed := false
	for _, op := range c.History() {
		if op.Kind == cluster.OpWrite && op.AckPs >= clusterHealsAt {
			healed = true
			break
		}
	}
	if !healed {
		rep.violate("no write acked after heal (availability did not recover)")
	}
	if net.Dropped == 0 {
		rep.violate("schedule dropped no messages — chaos not wired through")
	}
	return rep, c, nil
}
