package nettcp

import (
	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// GoodputResult is one Fig. 2 measurement point.
type GoodputResult struct {
	DropProb    float64
	GoodputGbps float64
	Retransmits uint64
	Timeouts    uint64
	Resyncs     uint64 // SmartNIC hook only
	Completed   bool
	// Bursty-variant accounting (MeasureGoodputBursty).
	BurstDrops       uint64
	FlapDrops        uint64
	Reordered        uint64
	FallbackEncrypts uint64 // SmartNIC hook only
}

// MeasureGoodput runs one bulk transfer of total bytes through a lossy
// 100GbE link with the given ULP hook and drop probability, returning
// achieved goodput — one point of Fig. 2.
func MeasureGoodput(p sim.Params, hook ULPHook, dropProb float64, total int64, seed int64) GoodputResult {
	return measure(p, hook, netsim.LinkConfig{DropProb: dropProb}, total, seed)
}

// BurstyNet describes the impaired data path for MeasureGoodputBursty:
// Gilbert-Elliott bursty loss, deterministic link-flap windows, and
// optional reordering — the failure modes that hurt autonomous NIC
// offload most, since every loss or spurious retransmit inside a burst
// desynchronizes the inline engine again (Fig. 2b).
type BurstyNet struct {
	Burst          fault.GEConfig
	FlapEveryPs    int64
	FlapDownPs     int64
	ReorderProb    float64
	ReorderDelayPs int64
}

// MeasureGoodputBursty runs one bulk transfer through a link impaired
// per net, returning the achieved goodput and the drop/degradation
// accounting — one point of the Fig. 2b bursty-loss experiment.
func MeasureGoodputBursty(p sim.Params, hook ULPHook, net BurstyNet, total int64, seed int64) GoodputResult {
	return measure(p, hook, netsim.LinkConfig{Burst: net.Burst,
		FlapEveryPs: net.FlapEveryPs, FlapDownPs: net.FlapDownPs,
		ReorderProb: net.ReorderProb, ReorderDelayPs: net.ReorderDelayPs,
	}, total, seed)
}

// measure runs one bulk transfer of total bytes over a 100GbE data link
// impaired as impair says (its rate, delay and seed are set here).
func measure(p sim.Params, hook ULPHook, impair netsim.LinkConfig, total int64, seed int64) GoodputResult {
	eng := sim.NewEngine()
	rttHalf := int64(p.RTTUs * float64(sim.Us) / 2)
	impair.Gbps, impair.PropPs, impair.Seed = p.LinkGbps, rttHalf, seed
	data := netsim.NewLink(eng, impair)
	ack := netsim.NewLink(eng, netsim.LinkConfig{
		Gbps: p.LinkGbps, PropPs: rttHalf, Seed: seed + 1,
	})
	cfg := DefaultConfig()
	cfg.MSS = p.MTUBytes - 40
	sender, recv, err := NewTransfer(eng, data, ack, cfg, hook, total)
	if err != nil {
		// Inputs are internally derived; an error here means a broken
		// caller, reported as a never-completed zero-goodput point.
		return GoodputResult{DropProb: impair.DropProb}
	}

	// Bound the run: generous deadline scaled to the ideal time.
	ideal := int64(float64(total*8) / (p.LinkGbps * 1e9) * 1e12)
	deadline := 200*ideal + 2*sim.S
	eng.RunUntil(deadline)

	res := GoodputResult{
		DropProb:    impair.DropProb,
		Retransmits: sender.Retransmits,
		Timeouts:    sender.Timeouts,
		Completed:   sender.Done(),
		BurstDrops:  data.BurstDropped,
		FlapDrops:   data.FlapDropped,
		Reordered:   data.Reordered,
	}
	elapsed := sender.DonePs
	if !sender.Done() {
		elapsed = eng.Now()
	}
	res.GoodputGbps = recv.Goodput(elapsed) * 8 / 1e9
	if nic, ok := hook.(*NICTLSHook); ok {
		res.Resyncs = nic.Resyncs
		res.FallbackEncrypts = nic.FallbackEncrypts
	}
	return res
}
