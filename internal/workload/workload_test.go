package workload

// Workload-suite unit tests: the zipf sampler's exact moments at a
// fixed seed, per-connection source determinism (a connection's stream
// must not depend on other connections' interleaving), and the
// end-to-end Run harness — same seed, same canonical report, serial or
// pooled, with the autoscaler reacting to a flash crowd.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/autoscale"
	"repro/internal/runner"
	"repro/internal/runner/runnertest"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/wrkgen"
)

// TestZipfMoments pins the sampler against its own analytic
// distribution at a fixed seed: the empirical mean over 200k draws must
// sit within a tight band of Zipf.Mean, the head key's frequency within
// a band of P(0), and every draw in range. Uniform (s=0) must also come
// out flat.
func TestZipfMoments(t *testing.T) {
	z, err := NewZipf(1024, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	const draws = 200000
	var sum float64
	var head int
	for i := 0; i < draws; i++ {
		k := z.Sample(rng.Float64())
		if k < 0 || k >= z.N() {
			t.Fatalf("draw %d out of range", k)
		}
		sum += float64(k)
		if k == 0 {
			head++
		}
	}
	mean := sum / draws
	if rel := math.Abs(mean-z.Mean()) / z.Mean(); rel > 0.02 {
		t.Fatalf("empirical mean %g vs analytic %g (rel %g > 2%%)", mean, z.Mean(), rel)
	}
	headFreq := float64(head) / draws
	if rel := math.Abs(headFreq-z.P(0)) / z.P(0); rel > 0.02 {
		t.Fatalf("head frequency %g vs P(0)=%g (rel %g > 2%%)", headFreq, z.P(0), rel)
	}

	u, err := NewZipf(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := (64.0 - 1) / 2
	if math.Abs(u.Mean()-want) > 1e-9 {
		t.Fatalf("uniform mean %g, want %g", u.Mean(), want)
	}
	if _, err := NewZipf(0, 1); err == nil {
		t.Fatal("NewZipf accepted zero keys")
	}
}

// TestKVPerConnDeterminism: a connection's request stream is a pure
// function of (seed, conn, submission count) — interleaving other
// connections' requests must not perturb it.
func TestKVPerConnDeterminism(t *testing.T) {
	mk := func() *KV {
		kv, err := NewKV(KVConfig{Keys: 512, ZipfS: 0.99, ReadFrac: 0.8, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return kv
	}
	solo := mk()
	var want []int
	for i := 0; i < 40; i++ {
		spec := solo.NextRequest(7)
		want = append(want, spec.Payload, boolInt(spec.Store))
	}
	mixed := mk()
	var got []int
	for i := 0; i < 40; i++ {
		mixed.NextRequest(i % 5) // noise on other conns
		spec := mixed.NextRequest(7)
		got = append(got, spec.Payload, boolInt(spec.Store))
		mixed.NextRequest(100 + i)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("conn 7 stream diverged at %d: %v vs %v", i, want[i], got[i])
		}
	}
	if mixed.Gets+mixed.Sets != 120 {
		t.Fatalf("counter total %d, want 120", mixed.Gets+mixed.Sets)
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestKVMix checks the GET/SET ratio and the size-class mix converge on
// the configured shares.
func TestKVMix(t *testing.T) {
	kv, err := NewKV(KVConfig{Keys: 2048, ZipfS: 0, ReadFrac: 0.75, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		spec := kv.NextRequest(i % 16)
		sizes[spec.Payload]++
		if spec.Store && spec.Kind != "set" || !spec.Store && spec.Kind != "get" {
			t.Fatalf("kind %q / store %v mismatch", spec.Kind, spec.Store)
		}
	}
	readFrac := float64(kv.Gets) / n
	if math.Abs(readFrac-0.75) > 0.02 {
		t.Fatalf("read fraction %g, want ~0.75", readFrac)
	}
	// Default classes 128/1024/4096 at 60/30/10% (uniform keys).
	for _, c := range []struct {
		size int
		frac float64
	}{{128, 0.6}, {1024, 0.3}, {4096, 0.1}} {
		got := float64(sizes[c.size]) / n
		if math.Abs(got-c.frac) > 0.05 {
			t.Fatalf("size %d share %g, want ~%g", c.size, got, c.frac)
		}
	}
	if kv.MaxPayload() != 4096 {
		t.Fatalf("MaxPayload %d, want 4096", kv.MaxPayload())
	}
}

// TestEmbedSpec checks the gather geometry lands in the spec.
func TestEmbedSpec(t *testing.T) {
	em, err := NewEmbed(EmbedConfig{Tables: 4, Lookups: 16, Dim: 32, Rows: 1 << 12, ZipfS: 1.05, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	spec := em.NextRequest(0)
	if spec.Kind != "gather" || spec.Store {
		t.Fatalf("spec %+v: want a gather GET", spec)
	}
	if want := 4 * 16 * 32 * 4; spec.GatherBytes != want {
		t.Fatalf("GatherBytes %d, want %d", spec.GatherBytes, want)
	}
	if want := 4 * 32 * 4; spec.Payload != want {
		t.Fatalf("Payload %d, want %d (pooled)", spec.Payload, want)
	}
	if em.RowsRead != 64 {
		t.Fatalf("RowsRead %d, want 64", em.RowsRead)
	}
	// Zipf skew 1.05 over 4096 rows: the hot 1% should take far more
	// than its uniform 1% share.
	for i := 0; i < 200; i++ {
		em.NextRequest(i % 8)
	}
	hotFrac := float64(em.HotRows) / float64(em.RowsRead)
	if hotFrac < 0.05 {
		t.Fatalf("hot-row fraction %g, want > 5%% under skew", hotFrac)
	}
}

// soakCfg is the shared end-to-end scenario: a 4-rank fleet starting at
// 2 active, a flash crowd mid-trace, a rank fault during the crowd, and
// the autoscaler holding the SLO.
func soakCfg(pool *runner.Pool) RunConfig {
	return RunConfig{
		Kind: "kv", Ranks: 4, InitialActive: 2, Conns: 48, Workers: 8, Seed: 11,
		HorizonPs: 8 * sim.Ms, WarmupPs: sim.Ms, DrainPs: 2 * sim.Ms,
		KV: KVConfig{Keys: 1024, ZipfS: 0.99, ReadFrac: 0.9},
		Arrivals: wrkgen.ArrivalConfig{
			Streams: 4, BaseRPS: 1.2e6,
			Flash: []wrkgen.FlashCrowd{{StartPs: 3 * sim.Ms, EndPs: 6 * sim.Ms, Mult: 3}},
		},
		Scale: &autoscale.Config{
			SLOPs: float64(40 * sim.Us), TickPs: 200 * sim.Us,
			DownAfter: 6, CooldownTicks: 2, MinActive: 1,
		},
		Faults: []Fault{{AtPs: 4 * sim.Ms, Rank: 0}},
		Pool:   pool,
	}
}

// TestRunKVAutoscales is the end-to-end smoke: the flash crowd must
// push the autoscaler to admit parked ranks, the run must finish with
// page conservation intact, and the mix counters must add up.
func TestRunKVAutoscales(t *testing.T) {
	rep, err := Run(soakCfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 || rep.Issued < rep.Completed {
		t.Fatalf("issued %d completed %d", rep.Issued, rep.Completed)
	}
	if rep.Fleet.AdminAdmits == 0 {
		t.Fatalf("flash crowd never scaled up:\n%s", rep.Actions)
	}
	if !rep.PagesOK {
		t.Fatal("page conservation violated")
	}
	if rep.Gets+rep.Sets != rep.Issued {
		t.Fatalf("mix %d+%d != issued %d", rep.Gets, rep.Sets, rep.Issued)
	}
	if rep.SLOHeldFrac <= 0 {
		t.Fatal("no measured SLO ticks")
	}
}

// TestRunSameSeedSameReport is the workload determinism gate: the same
// seed must produce a byte-identical canonical report whether the trace
// generates serially, on a 4-worker pool, or at GOMAXPROCS=2.
func TestRunSameSeedSameReport(t *testing.T) {
	runnertest.SameBytes(t, func(workers int) []byte {
		rep, err := Run(soakCfg(runner.New(workers)))
		if err != nil {
			t.Fatal(err)
		}
		return []byte(rep.Canonical())
	})
}

// TestRunEmbed drives the gather workload end to end: every request is
// a gather, and the gather stage must show up in the breakdown.
func TestRunEmbed(t *testing.T) {
	cfg := RunConfig{
		Kind: "embed", Ranks: 2, Conns: 24, Workers: 6, Seed: 3,
		HorizonPs: 4 * sim.Ms, WarmupPs: sim.Ms,
		Embed:    EmbedConfig{Tables: 4, Lookups: 8, Dim: 32, Rows: 1 << 12, ZipfS: 1.05},
		Arrivals: wrkgen.ArrivalConfig{Streams: 2, BaseRPS: 4e5},
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Gathers != rep.Issued {
		t.Fatalf("gathers %d != issued %d", rep.Gathers, rep.Issued)
	}
	if rep.Metrics.StagePs[server.StageGather] == 0 {
		t.Fatal("gather stage never attributed")
	}
	if !rep.PagesOK {
		t.Fatal("page conservation violated")
	}
}
