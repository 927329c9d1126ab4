package netsim

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

func TestLinkDeliversInOrder(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, LinkConfig{Gbps: 100, PropPs: 1000})
	var got []int64
	l.Deliver = func(p Packet) { got = append(got, p.Seq) }
	for i := int64(0); i < 10; i++ {
		l.Send(Packet{Seq: i, Len: 1000, Wire: 1040})
	}
	for eng.Step() {
	}
	if len(got) != 10 {
		t.Fatalf("delivered %d, want 10", len(got))
	}
	for i, s := range got {
		if s != int64(i) {
			t.Fatalf("out of order: %v", got)
		}
	}
	if l.Delivered != 10 || l.Dropped != 0 {
		t.Fatalf("stats %d/%d", l.Delivered, l.Dropped)
	}
}

func TestLinkSerializationPacing(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, LinkConfig{Gbps: 10, PropPs: 0}) // 10Gbps: 1250B = 1us
	var times []int64
	l.Deliver = func(p Packet) { times = append(times, eng.Now()) }
	l.Send(Packet{Len: 1250, Wire: 1250})
	l.Send(Packet{Len: 1250, Wire: 1250})
	for eng.Step() {
	}
	if len(times) != 2 {
		t.Fatal("delivery count")
	}
	gap := times[1] - times[0]
	if gap < 900_000 || gap > 1_100_000 {
		t.Fatalf("serialization gap = %dps, want ~1us", gap)
	}
}

func TestLinkDropRate(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, LinkConfig{Gbps: 100, DropProb: 0.5, Seed: 42})
	n := 0
	l.Deliver = func(Packet) { n++ }
	for i := 0; i < 10000; i++ {
		l.Send(Packet{Len: 100, Wire: 140})
	}
	for eng.Step() {
	}
	if l.Dropped == 0 {
		t.Fatal("nothing dropped at p=0.5")
	}
	rate := float64(l.Dropped) / float64(l.Sent)
	if rate < 0.45 || rate > 0.55 {
		t.Fatalf("drop rate %.3f, want ~0.5", rate)
	}
	if uint64(n) != l.Delivered || l.Delivered+l.Dropped != l.Sent {
		t.Fatal("accounting inconsistent")
	}
}

func TestLinkReorder(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, LinkConfig{Gbps: 100, PropPs: 100, ReorderProb: 0.3,
		ReorderDelayPs: 1_000_000, Seed: 7})
	var got []int64
	l.Deliver = func(p Packet) { got = append(got, p.Seq) }
	for i := int64(0); i < 100; i++ {
		l.Send(Packet{Seq: i, Len: 100, Wire: 140})
	}
	for eng.Step() {
	}
	if l.Reordered == 0 {
		t.Fatal("no reordering at p=0.3")
	}
	inOrder := true
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("reordered packets arrived in order")
	}
}

func TestLinkBurstLoss(t *testing.T) {
	eng := sim.NewEngine()
	ge := fault.GEConfig{PGoodBad: 0.02, PBadGood: 0.25, LossBad: 1}
	l := NewLink(eng, LinkConfig{Gbps: 100, Burst: ge, Seed: 5})
	var lost []bool
	l.Deliver = func(Packet) {}
	for i := 0; i < 20000; i++ {
		before := l.BurstDropped
		l.Send(Packet{Len: 100, Wire: 140})
		lost = append(lost, l.BurstDropped > before)
	}
	for eng.Step() {
	}
	if l.BurstDropped == 0 {
		t.Fatal("no burst losses")
	}
	if l.Delivered+l.Dropped != l.Sent || l.BurstDropped > l.Dropped {
		t.Fatalf("accounting: sent=%d delivered=%d dropped=%d burst=%d",
			l.Sent, l.Delivered, l.Dropped, l.BurstDropped)
	}
	// Losses must cluster: the probability that a loss follows a loss
	// should far exceed the unconditional loss rate.
	var losses, pairs int
	for i := 1; i < len(lost); i++ {
		if lost[i-1] {
			losses++
			if lost[i] {
				pairs++
			}
		}
	}
	rate := float64(l.BurstDropped) / float64(l.Sent)
	condRate := float64(pairs) / float64(losses)
	if condRate < 4*rate {
		t.Fatalf("losses not bursty: P(loss|loss)=%.3f vs rate=%.3f", condRate, rate)
	}
}

func TestLinkBurstDoesNotPerturbBernoulliStream(t *testing.T) {
	// Enabling the GE chain must not change which packets the Bernoulli
	// switch drops — the chain draws from its own RNG stream.
	run := func(burst fault.GEConfig) []uint64 {
		eng := sim.NewEngine()
		l := NewLink(eng, LinkConfig{Gbps: 100, DropProb: 0.1, Burst: burst, Seed: 9})
		var bern []uint64
		for i := 0; i < 2000; i++ {
			burstBefore, dropBefore := l.BurstDropped, l.Dropped
			l.Send(Packet{Len: 100, Wire: 140})
			if l.BurstDropped == burstBefore && l.Dropped > dropBefore {
				bern = append(bern, uint64(i))
			}
		}
		for eng.Step() {
		}
		return bern
	}
	plain := run(fault.GEConfig{})
	bursty := run(fault.GEConfig{PGoodBad: 0.05, PBadGood: 0.3, LossBad: 1})
	// The switch draw precedes the GE check and is unconditional, so the
	// exact same packets are switch-dropped in both runs.
	if len(plain) != len(bursty) {
		t.Fatalf("switch drop count changed: %d vs %d", len(plain), len(bursty))
	}
	for i := range plain {
		if plain[i] != bursty[i] {
			t.Fatalf("switch drop %d moved: packet %d vs %d", i, plain[i], bursty[i])
		}
	}
}

func TestLinkFlapWindows(t *testing.T) {
	eng := sim.NewEngine()
	// 10Gbps: a 1250B frame serializes in 1us. Down 10us of every 100us.
	l := NewLink(eng, LinkConfig{
		Gbps: 10, PropPs: 0,
		FlapEveryPs: 100 * 1_000_000, FlapDownPs: 10 * 1_000_000,
	})
	l.Deliver = func(Packet) {}
	for i := 0; i < 1000; i++ {
		l.Send(Packet{Len: 1250, Wire: 1250})
	}
	for eng.Step() {
	}
	if l.FlapDropped == 0 {
		t.Fatal("no flap drops")
	}
	// Back-to-back 1us frames against a 10%-down link: ~10% land in the
	// down window (the first 10 of every 100).
	if l.FlapDropped < 80 || l.FlapDropped > 120 {
		t.Fatalf("FlapDropped = %d, want ~100", l.FlapDropped)
	}
	if l.Delivered+l.Dropped != l.Sent {
		t.Fatal("accounting inconsistent")
	}
	// Flapping is deterministic: same config, same drops.
	eng2 := sim.NewEngine()
	l2 := NewLink(eng2, LinkConfig{
		Gbps: 10, PropPs: 0,
		FlapEveryPs: 100 * 1_000_000, FlapDownPs: 10 * 1_000_000,
	})
	l2.Deliver = func(Packet) {}
	for i := 0; i < 1000; i++ {
		l2.Send(Packet{Len: 1250, Wire: 1250})
	}
	for eng2.Step() {
	}
	if l2.FlapDropped != l.FlapDropped {
		t.Fatalf("flap drops not deterministic: %d vs %d", l2.FlapDropped, l.FlapDropped)
	}
}

func TestLinkDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		eng := sim.NewEngine()
		l := NewLink(eng, LinkConfig{Gbps: 100, DropProb: 0.1, Seed: 3})
		l.Deliver = func(Packet) {}
		for i := 0; i < 1000; i++ {
			l.Send(Packet{Len: 100, Wire: 140})
		}
		for eng.Step() {
		}
		return l.Dropped, l.Delivered
	}
	d1, del1 := run()
	d2, del2 := run()
	if d1 != d2 || del1 != del2 {
		t.Fatal("same seed produced different outcomes")
	}
}
