// Package netsim models the network fabric of the testbed: serialized
// links with propagation delay and the programmable switch the paper
// uses to inject packet drops (§III, Fig. 2). Packets flow over a
// sim.Engine so link behaviour composes with the TCP model and the
// server model deterministically.
package netsim

import (
	"math/rand"

	"repro/internal/fault"
	"repro/internal/sim"
)

// Packet is one frame on the wire. Payload semantics belong to the
// layer above (nettcp).
type Packet struct {
	Seq   int64 // first payload byte (TCP sequence)
	Len   int   // payload bytes
	Wire  int   // bytes on the wire including headers
	Flags uint8
	Ack   int64 // cumulative ack (for ACK packets)
}

// Packet flags.
const (
	FlagAck uint8 = 1 << iota
	FlagRetransmit
)

// LinkConfig describes one unidirectional link (through the drop-
// injecting switch).
type LinkConfig struct {
	Gbps           float64
	PropPs         int64
	DropProb       float64 // Bernoulli per-packet drop (the switch)
	ReorderProb    float64
	ReorderDelayPs int64 // extra delay applied to reordered packets
	Seed           int64
	// Burst, when enabled, runs a Gilbert-Elliott two-state loss chain
	// on top of (not instead of) DropProb: long good stretches broken by
	// dense loss bursts, the pattern real switches and congested paths
	// produce and the one that defeats SmartNIC resynchronization worst
	// (Fig. 2). The chain draws from its own RNG stream, so enabling it
	// never perturbs DropProb/ReorderProb draws.
	Burst fault.GEConfig
	// FlapEveryPs/FlapDownPs model deterministic link flaps: the link is
	// down (every packet dropped) during the first FlapDownPs of each
	// FlapEveryPs period, measured in engine time at the point the
	// packet clears the transmitter. Zero disables flapping.
	FlapEveryPs int64
	FlapDownPs  int64
	// FlapPhasePs shifts the flap schedule: the first down window opens
	// at FlapPhasePs instead of 0, so an outage can hit mid-stream
	// instead of always eating the opening burst. The link is up before
	// the phase point.
	FlapPhasePs int64
}

// Link is a serialized, lossy, optionally reordering link.
type Link struct {
	cfg  LinkConfig
	eng  *sim.Engine
	rng  *rand.Rand
	ge   *fault.GilbertElliott // nil unless cfg.Burst is enabled
	busy int64                 // time the transmitter frees up
	// Deliver receives packets at the far end.
	Deliver func(Packet)

	Sent      uint64
	Dropped   uint64 // all drops (flap + burst + Bernoulli)
	Reordered uint64
	Delivered uint64
	WireBytes uint64
	// Attribution of Dropped by mechanism.
	BurstDropped uint64 // Gilbert-Elliott bad-state losses
	FlapDropped  uint64 // packets sent into a link-down window
}

// NewLink builds a link on the engine.
func NewLink(eng *sim.Engine, cfg LinkConfig) *Link {
	if cfg.Gbps <= 0 {
		cfg.Gbps = 100
	}
	l := &Link{cfg: cfg, eng: eng, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.Burst.Enabled() {
		// A distinct stream: the GE chain must not consume draws from the
		// Bernoulli/reorder RNG, or enabling bursts would change them.
		l.ge = fault.NewGilbertElliott(cfg.Burst, cfg.Seed^0x6745_2301)
	}
	return l
}

// serializationPs returns wire time for n bytes.
func (l *Link) serializationPs(n int) int64 {
	return int64(float64(n*8) / (l.cfg.Gbps * 1e9) * 1e12)
}

// Send enqueues a packet for transmission. The transmitter serializes
// packets back to back; the switch then drops or delays them.
func (l *Link) Send(p Packet) {
	l.Sent++
	l.WireBytes += uint64(p.Wire)
	start := l.eng.Now()
	if l.busy > start {
		start = l.busy
	}
	done := start + l.serializationPs(p.Wire)
	l.busy = done

	// The Bernoulli draw stays first and unconditional so enabling the
	// burst/flap mechanisms never shifts the switch's RNG stream: the
	// same packets are switch-dropped with or without them.
	if l.rng.Float64() < l.cfg.DropProb {
		l.Dropped++
		return // the switch ate it
	}
	if l.flapDown(done) {
		l.Dropped++
		l.FlapDropped++
		return // link is down: the frame goes nowhere
	}
	if l.ge != nil && l.ge.Lose() {
		l.Dropped++
		l.BurstDropped++
		return // bad-state burst loss
	}
	delay := l.cfg.PropPs
	if l.cfg.ReorderProb > 0 && l.rng.Float64() < l.cfg.ReorderProb {
		l.Reordered++
		delay += l.cfg.ReorderDelayPs
	}
	l.eng.At(done+delay, func() {
		l.Delivered++
		if l.Deliver != nil {
			l.Deliver(p)
		}
	})
}

// BusyUntil returns when the transmitter frees up (for senders that
// pace against the link).
func (l *Link) BusyUntil() int64 { return l.busy }

// flapDown reports whether the link is inside a down window at time t.
func (l *Link) flapDown(t int64) bool {
	if l.cfg.FlapEveryPs <= 0 || l.cfg.FlapDownPs <= 0 {
		return false
	}
	t -= l.cfg.FlapPhasePs
	if t < 0 {
		return false
	}
	return t%l.cfg.FlapEveryPs < l.cfg.FlapDownPs
}
