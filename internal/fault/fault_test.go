package fault

import (
	"strings"
	"testing"
)

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	for i := 0; i < 100; i++ {
		if in.Fire("anything", int64(i)) {
			t.Fatal("nil injector fired")
		}
	}
	if tr := in.Trace(); tr != nil {
		t.Fatalf("nil injector has trace %v", tr)
	}
}

func TestOneShotAndPeriodic(t *testing.T) {
	in := New(1)
	in.Arm("once", OneShot{N: 3})
	in.Arm("beat", Periodic{Every: 4})
	var onceFires, beatFires []int64
	for i := int64(1); i <= 12; i++ {
		if in.Fire("once", i) {
			onceFires = append(onceFires, i)
		}
		if in.Fire("beat", i) {
			beatFires = append(beatFires, i)
		}
	}
	if len(onceFires) != 1 || onceFires[0] != 3 {
		t.Fatalf("one-shot fired at %v, want [3]", onceFires)
	}
	if len(beatFires) != 3 || beatFires[0] != 4 || beatFires[1] != 8 || beatFires[2] != 12 {
		t.Fatalf("periodic fired at %v, want [4 8 12]", beatFires)
	}
}

func TestWindowConfinesFiring(t *testing.T) {
	in := New(7)
	in.Arm("w", window{fromPs: 100, toPs: 200, prob: 1})
	for now := int64(0); now < 300; now += 10 {
		got := in.Fire("w", now)
		want := now >= 100 && now < 200
		if got != want {
			t.Fatalf("window fire at now=%d: got %v want %v", now, got, want)
		}
	}
}

func TestSameSeedSameTrace(t *testing.T) {
	run := func() string {
		in := New(42)
		in.Arm("a", Bernoulli{Prob: 0.3})
		in.Arm("b", Burst{GE: GEConfig{PGoodBad: 0.1, PBadGood: 0.4, LossBad: 0.9}})
		for i := int64(0); i < 500; i++ {
			in.Fire("a", i)
			in.Fire("b", i)
		}
		return in.TraceString()
	}
	a, b := run(), run()
	if a == "" {
		t.Fatal("no events fired at all")
	}
	if a != b {
		t.Fatalf("same seed produced different traces:\n%s\n---\n%s", a, b)
	}
}

// Per-site streams must be independent of cross-site interleaving: the
// decisions at site "a" may not change when a second site starts being
// consulted in between.
func TestSiteStreamsIndependent(t *testing.T) {
	solo := New(9)
	solo.Arm("a", Bernoulli{Prob: 0.5})
	var soloBits []bool
	for i := int64(0); i < 200; i++ {
		soloBits = append(soloBits, solo.Fire("a", i))
	}

	mixed := New(9)
	mixed.Arm("a", Bernoulli{Prob: 0.5})
	mixed.Arm("noise", Bernoulli{Prob: 0.5})
	for i := int64(0); i < 200; i++ {
		mixed.Fire("noise", i)
		if mixed.Fire("a", i) != soloBits[i] {
			t.Fatalf("site a decision %d changed under interleaving", i)
		}
		mixed.Fire("noise", i)
	}
}

func TestGilbertElliottBursts(t *testing.T) {
	// A harsh bad state with slow recovery must produce clustered losses:
	// the number of loss->loss adjacencies should far exceed what the
	// same loss rate would give independently.
	ge := NewGilbertElliott(GEConfig{PGoodBad: 0.02, PBadGood: 0.2, LossGood: 0, LossBad: 1}, 3)
	const n = 20000
	losses, pairs := 0, 0
	prev := false
	for i := 0; i < n; i++ {
		l := ge.Lose()
		if l {
			losses++
			if prev {
				pairs++
			}
		}
		prev = l
	}
	if losses == 0 {
		t.Fatal("GE chain never lost")
	}
	rate := float64(losses) / n
	indep := rate * rate * n // expected adjacent pairs if independent
	if float64(pairs) < 4*indep {
		t.Fatalf("losses not bursty: %d pairs, independent expectation %.1f (rate %.3f)", pairs, indep, rate)
	}
}

func TestCountsAndSites(t *testing.T) {
	in := New(5)
	in.Arm("x", OneShot{N: 1})
	in.Arm("y", Periodic{Every: 2})
	in.Fire("x", 0)
	in.Fire("y", 0)
	in.Fire("y", 0)
	total, fired := in.Counts()
	if total != 3 || fired != 2 {
		t.Fatalf("counts = (%d,%d), want (3,2)", total, fired)
	}
	if len(in.sites) != 2 || in.sites["x"] == nil || in.sites["y"] == nil {
		t.Fatalf("sites = %v", in.sites)
	}
}

// TestPartitionCutsDirections pins the Partition plan's link semantics:
// symmetric partitions cut both directions inside the window, OneWay
// cuts only A->B, and uninvolved endpoints are never cut.
func TestPartitionCutsDirections(t *testing.T) {
	in := New(11)
	in.Arm("cut", Partition{FromPs: 100, ToPs: 200, A: []int{0, 1}, B: []int{2}})
	cases := []struct {
		src, dst int
		now      int64
		want     bool
	}{
		{0, 2, 150, true},  // A->B inside window
		{2, 1, 150, true},  // B->A inside window (symmetric)
		{0, 1, 150, false}, // intra-A traffic unaffected
		{0, 3, 150, false}, // endpoint in neither set
		{0, 2, 50, false},  // before the window
		{0, 2, 200, false}, // window end is exclusive
	}
	for _, c := range cases {
		if got := in.FireLink("cut", c.src, c.dst, c.now); got != c.want {
			t.Fatalf("FireLink(%d>%d, now=%d) = %v, want %v", c.src, c.dst, c.now, got, c.want)
		}
	}

	one := New(12)
	one.Arm("cut", Partition{FromPs: 0, ToPs: 100, A: []int{0}, B: []int{1}, OneWay: true})
	if !one.FireLink("cut", 0, 1, 50) {
		t.Fatal("asymmetric partition must cut A->B")
	}
	if one.FireLink("cut", 1, 0, 50) {
		t.Fatal("asymmetric partition must not cut B->A")
	}
}

// TestPartitionsCompose checks that a Partitions plan cuts a link while
// any member window does, and that the same value can arm several
// injectors (both directions of a link decided from different senders)
// consistently.
func TestPartitionsCompose(t *testing.T) {
	plan := Partitions{
		{FromPs: 0, ToPs: 50, A: []int{0}, B: []int{1}},
		{FromPs: 100, ToPs: 150, A: []int{1}, B: []int{2}, OneWay: true},
	}
	a, b := New(1), New(2) // distinct seeds: decisions must not depend on RNG
	a.Arm("cut", plan)
	b.Arm("cut", plan)
	type q struct {
		src, dst int
		now      int64
		want     bool
	}
	for _, c := range []q{
		{0, 1, 25, true}, {1, 0, 25, true}, {1, 2, 25, false},
		{1, 2, 125, true}, {2, 1, 125, false}, {0, 1, 125, false},
		{0, 1, 75, false},
	} {
		ga := a.FireLink("cut", c.src, c.dst, c.now)
		gb := b.FireLink("cut", c.src, c.dst, c.now)
		if ga != c.want || gb != c.want {
			t.Fatalf("Partitions(%d>%d, now=%d): a=%v b=%v want %v", c.src, c.dst, c.now, ga, gb, c.want)
		}
	}
}

// TestPartitionTraceRecordsLinks pins seed-reproducibility and the
// directed-event trace form: same seed and consultation sequence, same
// canonical trace, with link=src>dst annotations on directed events.
func TestPartitionTraceRecordsLinks(t *testing.T) {
	run := func() string {
		in := New(33)
		in.Arm("cut", Partition{FromPs: 10, ToPs: 30, A: []int{0}, B: []int{1}})
		in.Arm("drop", Bernoulli{Prob: 0.5})
		for now := int64(0); now < 40; now += 5 {
			in.FireLink("cut", 0, 1, now)
			in.FireLink("drop", 1, 0, now)
		}
		return in.TraceString()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different link traces:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "link=0>1") {
		t.Fatalf("directed trace missing link annotation:\n%s", a)
	}
	// The direction-blind fallback must also record its link.
	if !strings.Contains(a, "link=1>0") {
		t.Fatalf("fallback consultation missing link annotation:\n%s", a)
	}
}

// TestFireLinkFallsBackUndirected: a directionless plan consulted via
// FireLink behaves exactly like Fire (same stream, same decisions).
func TestFireLinkFallsBackUndirected(t *testing.T) {
	direct, linked := New(5), New(5)
	direct.Arm("x", Bernoulli{Prob: 0.4})
	linked.Arm("x", Bernoulli{Prob: 0.4})
	for i := int64(0); i < 200; i++ {
		if direct.Fire("x", i) != linked.FireLink("x", 3, 4, i) {
			t.Fatalf("FireLink fallback diverged from Fire at consultation %d", i)
		}
	}
}
